"""Print a bit-exact fingerprint of ``calibrate`` and of both integrators.

    PYTHONPATH=src python3 tools/calibration_fingerprint.py [ARRAY_DIR] > new.jsonl

``python3 tools/fingerprint_diff.py [BASE]`` runs it (and
``cli_fingerprint.py``) with a git revision's ``src`` and with the working
tree's, and diffs the outputs.  Identical lines mean identical
``cost_history``, ``step_sizes``, ``gradient_sq_norms``, ``v_opt``,
``y_opt``, iteration count and message, identical gradient coefficients at
the start point (``sensitivity_coefficients`` and the central-difference
``finite_difference_gradient``), and identical simulated states.  Floats
are printed as hex and arrays as SHA-256 of their bytes, so any moved bit
shows.  Given ARRAY_DIR, it also saves each digested array there as
``.npy`` (named by ``fingerprint_diff.array_file``), so that the diff can
say how far a moved array moved.

Calibration cases: the oscillator on noise seeds 7, 22, 25, 101 and 102
with both structures; the benchmark's random n=8, k=2 truths of model seeds
0, 6 and 1; an overflowing first step
(sigma_init=1e6), a search whose first candidates diverge (sigma_init=1e3)
and a line-search failure (sigma_init=1e18, no halvings); and the rounding
floor: from the oscillator truth with w_hat + (1e-15, 0), K=100, noise seed
7 and eps_stop=1e-300, the fit reaches cost 4.2e-32 in 4 steps and every
later search fails, with max_halvings=60 and with max_halvings=2000, where
sigma underflows to 0 first.

Simulation cases: explicit Euler and the discrete-gradient scheme over
K=1e4 steps on the random n=8, k=2 truths of model seeds 0 and 6.  With
k >= 2 each step's forcing is a sum of products, so its rounding depends on
how the matrix-vector product is evaluated.

Reduction cases: ``cholesky_reduce`` of full models with a non-identity Q,
the random n=3 and n=8, k=2 truths of model seeds 3 and 8 with
Q = G G^T / n + 0.5 I (G standard normal, Philox keyed with 100 + n); the
reduced J, R, B and w_hat are digested, so a moved bit of the Cholesky
factor shows.

Basis cases: ``tangent_basis(n, structure)`` for n in 1, 2, 8 and 32 and
both structures; the SHA-256 of its labels and of each of its three
(block, i, j) index arrays, dtype included, so a moved, reordered or
retyped direction shows.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import phsid as p

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import grid, oscillator_guess, oscillator_truth, random_model  # noqa: E402

from fingerprint_diff import array_file  # noqa: E402

LONG_STEPS = 10_000


def cases():
    truth, start = oscillator_truth(), oscillator_guess()
    for seed in (7, 22, 25, 101, 102):
        u, y = p.generate_reference(truth, p.TimeGrid(1.0, 1000), p.NoiseSpec(seed=seed))
        for structure in p.STRUCTURES:
            yield (f"oscillator seed={seed} {structure}", start, u, y, truth.B,
                   p.CalibrationConfig(structure=structure))
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
    u, y = p.generate_reference(truth, p.TimeGrid(1.0, 100), p.NoiseSpec(seed=7))
    near_truth = p.ParameterPoint(truth.J, truth.R, truth.w_hat + np.array([1e-15, 0.0]))
    for max_halvings in (60, 2000):
        yield (f"floor max_halvings={max_halvings}", near_truth, u, y, truth.B,
               p.CalibrationConfig(eps_stop=1e-300, max_halvings=max_halvings))


def simulations():
    for model in (0, 6):
        truth, _ = random_model(model, 8, 2)
        u = p.generate_input(grid(LONG_STEPS), truth.k, p.NoiseSpec(seed=model))
        for scheme, simulate in (("euler", p.simulate_euler),
                                 ("midpoint", p.simulate_discrete_gradient)):
            yield f"wide-n8 model={model} {scheme} K={LONG_STEPS}", simulate(truth, u)


def reductions():
    for n in (3, 8):
        truth, _ = random_model(n, n, 2)
        g = np.random.Generator(np.random.Philox(key=100 + n)).normal(size=(n, n))
        q = p.SPDMatrix.from_matrix(g @ g.T / n + 0.5 * np.eye(n))
        full = p.PHSystem(truth.J, truth.R, q, truth.B, truth.w_hat)
        yield f"cholesky_reduce n={n}", p.cholesky_reduce(full)


def bases():
    for n in (1, 2, 8, 32):
        for structure in p.STRUCTURES:
            yield f"tangent_basis n={n} {structure}", p.tangent_basis(n, structure)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(array_dir: Path | None, case: str, key: str, *arrays) -> str:
    """SHA-256 of the concatenated bytes of ``arrays``, which are also saved
    as one flat ``.npy`` array under ``array_dir`` when it is given."""
    flat = np.concatenate([np.ravel(np.asarray(a, dtype=float)) for a in arrays])
    if array_dir is not None:
        np.save(array_file(array_dir, case, key), flat)
    return sha256(flat.tobytes())


def start_gradients(start, u, y, b, structure):
    """Sensitivity and central-difference gradient coefficients at ``start``."""
    sys0 = start.to_system(b)
    basis = p.tangent_basis(start.n, structure)
    coeffs = p.sensitivity_coefficients(sys0, p.simulate_euler(sys0, u), y, basis)
    return coeffs, p.finite_difference_gradient(start, b, u, y, basis)


def main(argv: list[str]):
    array_dir = Path(argv[1]) if len(argv) > 1 else None
    if array_dir is not None:
        array_dir.mkdir(parents=True, exist_ok=True)
    for label, start, u, y, b, cfg in cases():
        res = p.calibrate(start, u, y, b, cfg)
        coeffs, fd = start_gradients(start, u, y, b, cfg.structure)
        print(json.dumps({
            "case": label,
            "iterations": res.iterations,
            "converged": res.converged,
            "message": res.message,
            "cost_history": [float(c).hex() for c in res.cost_history],
            "step_sizes": [float(s).hex() for s in res.step_sizes],
            "gradient_sq_norms": [float(g).hex() for g in res.gradient_sq_norms],
            "v_opt": digest(array_dir, label, "v_opt", res.v_opt.J.array,
                            res.v_opt.R.array, res.v_opt.w_hat),
            "y_opt": digest(array_dir, label, "y_opt", res.y_opt.values),
            "start_coefficients": [float(c).hex() for c in coeffs],
            "start_fd_gradient": [float(f).hex() for f in fd],
        }))
    for label, traj in simulations():
        print(json.dumps({"case": label, "states": digest(array_dir, label, "states",
                                                           traj.states)}))
    for label, red in reductions():
        blocks = {"J": red.J.array, "R": red.R.array, "B": red.B, "w_hat": red.w_hat}
        print(json.dumps({"case": label, **{key: digest(array_dir, label, key, block)
                                            for key, block in blocks.items()}}))
    for label, basis in bases():
        index = dict(zip(("block", "i", "j"), basis._index, strict=True))
        print(json.dumps({"case": label, "labels": sha256("\n".join(basis.labels).encode()),
                          **{key: sha256(a.dtype.str.encode() + a.tobytes())
                             for key, a in index.items()}}))


if __name__ == "__main__":
    main(sys.argv)
