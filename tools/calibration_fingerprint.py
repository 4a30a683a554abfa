"""Print a bit-exact fingerprint of ``calibrate`` on a fixed set of cases.

    PYTHONPATH=src python3 tools/calibration_fingerprint.py > new.jsonl

Run it on two checkouts (each with its own ``src`` on PYTHONPATH) and
compare the outputs with ``diff``: identical lines mean identical
``cost_history``, ``step_sizes``, ``gradient_sq_norms``, ``v_opt``,
``y_opt``, iteration count and message.  Floats are printed as hex and
arrays as SHA-256 of their bytes, so any moved bit shows.

Cases: the oscillator on noise seeds 7, 22, 25, 101 and 102 with both
structures and both PSD modes; the benchmark's random n=8, k=2 truths of
model seeds 0, 6 and 1; an overflowing first step (sigma_init=1e6), a
search whose first candidates diverge (sigma_init=1e3) and a line-search
failure (sigma_init=1e18, no halvings).
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import phsid as p

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import oscillator_guess, oscillator_truth, random_model  # noqa: E402


def cases():
    truth, start = oscillator_truth(), oscillator_guess()
    for seed in (7, 22, 25, 101, 102):
        u, y = p.generate_reference(truth, p.TimeGrid(1.0, 1000), p.NoiseSpec(seed=seed))
        for structure in p.STRUCTURES:
            for psd_mode in p.PSD_MODES:
                cfg = p.CalibrationConfig(structure=structure, psd_mode=psd_mode)
                yield f"oscillator seed={seed} {structure} {psd_mode}", start, u, y, truth.B, cfg
    for model in (0, 6, 1):
        wide_truth, wide_start = random_model(model, 8, 2)
        u, y = p.generate_reference(wide_truth, p.TimeGrid(1.0, 1000), p.NoiseSpec(seed=model))
        yield (f"wide-n8 model={model}", wide_start, u, y, wide_truth.B,
               p.CalibrationConfig(max_iter=400))
    u, y = p.generate_reference(truth, p.TimeGrid(1.0, 500), p.NoiseSpec(seed=28))
    for label, cfg in (("overflow", p.CalibrationConfig(sigma_init=1e6, max_iter=5)),
                       ("diverging", p.CalibrationConfig(sigma_init=1e3, max_iter=5)),
                       ("line-search failure",
                        p.CalibrationConfig(sigma_init=1e18, max_halvings=0, max_iter=5))):
        yield label, start, u, y, truth.B, cfg


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def main():
    for label, start, u, y, b, cfg in cases():
        res = p.calibrate(start, u, y, b, cfg)
        print(json.dumps({
            "case": label,
            "iterations": res.iterations,
            "converged": res.converged,
            "message": res.message,
            "cost_history": [float(c).hex() for c in res.cost_history],
            "step_sizes": [float(s).hex() for s in res.step_sizes],
            "gradient_sq_norms": [float(g).hex() for g in res.gradient_sq_norms],
            "v_opt": digest(res.v_opt.J.array, res.v_opt.R.array, res.v_opt.w_hat),
            "y_opt": digest(res.y_opt.values),
        }))


if __name__ == "__main__":
    main()
