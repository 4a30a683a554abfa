"""phsid benchmark: one workload, untraced (end-to-end metrics) or traced
(per-layer metrics).

    python3 perfbench/run.py --workload cli-long --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; phsid is imported from its ``src``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).  An
untraced run repeats whole rounds of the workload for ``--seconds`` and
reports end-to-end figures from each operation's mean time over them, in
reference seconds (pace.py).  A traced run makes one traced round of
every workload, a paired overhead measurement and the scaling grid, and
reports per-layer figures; ``--seconds`` does not change it.
"""

import os

# one BLAS thread: the workloads run in one process and must not depend on
# how many cores BLAS would otherwise spread small products over
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
NAMES = ("wide-n8", "cli-long")
SETUP_REPEATS = 5


def _import_phsid() -> float:
    """Import phsid from the checkout's ``src``, never from elsewhere, and
    return the time it took in reference seconds (pace.py)."""
    if not (SRC / "phsid" / "__init__.py").is_file():
        sys.exit(f"phsid sources not found at {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import pace
    phsid, elapsed = pace.timed(importlib.import_module, "phsid")
    if Path(phsid.__file__).resolve().parent != SRC / "phsid":
        sys.exit(f"imported phsid from {phsid.__file__}, not from {SRC}")
    return elapsed


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(name, seed, seconds, import_s, workdir):
    import pace
    import workloads as wl

    ledger = wl.Ledger()
    workload = wl.WORKLOADS[name](workdir)
    setups = []
    for _ in range(SETUP_REPEATS):
        inputs, setup_s = pace.timed(workload.setup, seed)
        setups.append(setup_s)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(workload.round(ledger, inputs, len(rounds)))
        if len(rounds) == 1:
            # what one round needs; later rounds repeat it and only add the
            # allocator's fragmentation (Python-level memory stays flat)
            peak_rss_mb = _peak_rss_mb()
    metrics = {"setup_s": (import_s + statistics.median(setups), "s")}
    metrics.update(wl.end_to_end(rounds))
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    ledger.verify()
    return ledger, metrics


def _trace_overhead_s(seed, pairs=6) -> float:
    """Median over pairs of a traced minus an untraced ``calibrate`` of the
    same oscillator data; pairing cancels the host's slow drifts, and the
    order alternates so that neither side always runs first."""
    import phsid
    import tracing
    import workloads as wl

    truth, start = wl.oscillator_truth(), wl.oscillator_guess()
    u, y = phsid.generate_reference(truth, wl.grid(wl.STEPS_PER_UNIT),
                                    phsid.NoiseSpec(seed=wl.sub_seed(seed, 10)))

    def timed(traced):
        with tracing.installed(tracing.Tracer()) if traced else contextlib.nullcontext():
            begin = time.perf_counter()
            phsid.calibrate(start, u, y, truth.B)
            return time.perf_counter() - begin

    diffs = []
    for i in range(pairs):
        first = timed(i % 2 == 1)
        second = timed(i % 2 == 0)
        diffs.append(second - first if i % 2 == 0 else first - second)
    return statistics.median(diffs)


def traced(seed, workdir):
    import grid
    import tracing
    import workloads as wl

    ledger = wl.Ledger()
    metrics = {}
    for name in NAMES:
        tracer = tracing.Tracer()
        workload = wl.WORKLOADS[name](workdir, tracer)
        with tracing.installed(tracer):
            workload.round(ledger, workload.setup(seed), 0)
        layers = tracing.calibration_layers(tracer)
        if name == "cli-long":
            layers.update(tracing.cli_layers(tracer))
        metrics.update({f"{name}.{key}": value for key, value in layers.items()})
    metrics["trace.overhead_s"] = (_trace_overhead_s(seed), "s")
    metrics.update(grid.scaling_grid(seed))
    ledger.verify()
    return ledger, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_s = _import_phsid()
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        if args.trace:
            ledger, metrics = traced(args.seed, workdir)
        else:
            ledger, metrics = untraced(args.workload, args.seed, args.seconds, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for note in ledger.notes:
        print(note, file=sys.stderr)
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
