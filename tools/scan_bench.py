"""Time the scan-bound operations of a git revision and of the working tree.

    python3 tools/scan_bench.py [--base REV] [--repeats R] [--tiny] [--out FILE]

Extracts ``src/`` of BASE (default ``HEAD``) with ``git archive`` into a
temporary directory, as ``fingerprint_diff.py`` does, and starts one worker
process per side: ``base`` and ``aa`` with BASE's ``src`` as PYTHONPATH,
``change`` with the working tree's.  A worker builds every case and runs
each once as a warm-up, then counts the calls of it that last at least
``SAMPLE_S`` (20 ms) in all.  The base worker's count is fixed as the
case's call count for every side.  Then, R times (default 7) for every
case, the three workers time it back to back, the side that goes first
rotating, so that a slow phase of the host hits every side of a round.  A
worker times a case as the mean of its call count of back-to-back calls,
with ``perf_counter`` read once before and once after, so that a
sub-millisecond case is timed over a sample as long as a slow one's.  The
``aa`` side, BASE timed against itself, shows how far the host alone moves
a case's base/change ratio.

Cases: ``simulate_euler`` and ``simulate_discrete_gradient`` at
n in {2, 8, 16, 32} x K in {1e3, 1e4, 1e5} and at n in {64, 128} x K = 1e4
(perfbench's random n, k=2 truth of model seed n, h = 1e-3);
``simulate_euler`` at K = 1e5 of a lossless n = 2
model with J = [[0, 1e200], [-1e200, 0]], which overflows at step 2, so the
call must raise DivergenceError; one call of the Armijo cost evaluator
``calibration._BatchEvaluator`` on 8 candidates, spaced evenly from the
start point to the truth of perfbench's ``wide-n8`` model 0 (n = 8, k = 2,
K = 1e3), so that the stacked sweep has a case of its own; the gradient at
that start point, one ``sensitivity_coefficients`` and its
``assemble_gradient``, so that the adjoint sweep has one; ``calibrate`` on
``wide-n8`` models 0 and 6 and on the oscillator with noise seed 7
(K = 1e3), the last also with ``structure="diagonal_R"``; the oscillator
with ``sigma_init=1e6`` and 5 iterations (noise seed 28, K = 500), whose
first candidates overflow; and one ``phsid calibrate`` of the oscillator
through ``phsid.cli.main`` on CSV and JSON files the worker writes once
into a temporary directory (noise seed 7, K = 1e3), its printed lines
discarded; it repeats ``main`` in the worker's process, so it leaves out
the interpreter's start-up and imports that a ``phsid`` command pays.
``--tiny`` runs the simulations at n in {2, 64, 128} and K = 200, the rest
at K = 200 and calibrations of 2 iterations, for tests.

Before timing, each worker runs every case once more with the cost
evaluator that ``calibrate`` hands to ``armijo_search`` wrapped, and counts
its calls and the rows (costed candidates) they return; those counts are
not timed.

The report, printed or written to FILE as JSON, gives ``sample_ms`` and
per case its ``calls``, per side the median and interquartile range of the
R timings in ms (each the mean of ``calls`` calls), the ratio of the
medians (``speedup``, base over change), the median and interquartile range
of the R per-pair ratios (``paired_speedup``) and of the R base/aa ratios
(``aa_paired_speedup``), for the cases that run a line search each side's
``evaluator_calls`` and ``swept_rows``, and the machine: CPU, CPU count,
numpy version and the OPENBLAS_NUM_THREADS setting the workers ran with.
No bytecode is written and the temporary directory is removed.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "tools"))
from fingerprint_diff import extract_src  # noqa: E402

SAMPLE_S = 0.02


def cases(tiny: bool, workdir: Path):
    """(name, call) for every timed operation, built from the ``phsid`` on
    the path; the CLI case's files go into ``workdir``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import phsid
    import phsid.cli
    from phsid import calibration
    from workloads import grid, oscillator_guess, oscillator_truth, random_model

    sizes = ((2,), (200,)) if tiny else ((2, 8, 16, 32), (1_000, 10_000, 100_000))
    shapes = [(n, steps) for n in sizes[0] for steps in sizes[1]]
    shapes += [(n, 200 if tiny else 10_000) for n in (64, 128)]
    for n, steps in shapes:
        truth, _ = random_model(n, n, 2)
        u = phsid.generate_input(grid(steps), 2, phsid.NoiseSpec(seed=n))
        for label, simulate in (("euler", phsid.simulate_euler),
                                ("midpoint", phsid.simulate_discrete_gradient)):
            yield f"simulate {label} n={n} K={steps}", (
                lambda simulate=simulate, u=u, truth=truth: simulate(truth, u))
    steps = sizes[1][-1]
    diverging = phsid.ReducedPHSystem(
        phsid.SkewSymmetricMatrix.from_matrix([[0.0, 1e200], [-1e200, 0.0]]),
        phsid.PSDMatrix.zeros(2), np.ones((2, 2)), np.array([1.0, 2.0]))
    u = phsid.generate_input(grid(steps), 2, phsid.NoiseSpec(seed=2))

    def diverge(u=u):
        try:
            phsid.simulate_euler(diverging, u)
        except phsid.DivergenceError:
            return
        raise AssertionError("the diverging model ran to its last step")

    yield f"simulate euler diverging n=2 K={steps}", diverge
    steps = 200 if tiny else 1_000
    truth, start = random_model(0, 8, 2)
    u, y = phsid.generate_reference(truth, grid(steps), phsid.NoiseSpec(seed=0))
    t = np.linspace(0.0, 1.0, 8)[:, None]
    j = start.J.array + t[:, :, None] * (truth.J.array - start.J.array)
    r = start.R.array + t[:, :, None] * (truth.R.array - start.R.array)
    w = start.w_hat + t * (truth.w_hat - start.w_hat)
    evaluate = calibration._BatchEvaluator(truth.B, u, y)
    yield f"evaluate 8 candidates n=8 K={steps}", lambda: evaluate(j, r, w)
    model = start.to_system(truth.B)
    traj, basis = phsid.simulate_euler(model, u), phsid.tangent_basis(8)

    def gradient(model=model, traj=traj, y=y, basis=basis):
        return phsid.assemble_gradient(phsid.sensitivity_coefficients(model, traj, y, basis), basis)

    yield "gradient wide-n8 model=0", gradient
    problems = [(f"calibrate wide-n8 model={m}", *random_model(m, 8, 2), m, 400, "full")
                for m in (0, 6)]
    oscillator = (oscillator_truth(), oscillator_guess(), 7, 500)
    problems += [("calibrate oscillator", *oscillator, "full"),
                 ("calibrate oscillator diagonal_R", *oscillator, "diagonal_R")]
    for name, truth, start, seed, max_iter, structure in problems:
        u, y = phsid.generate_reference(truth, grid(steps), phsid.NoiseSpec(seed=seed))
        cfg = phsid.CalibrationConfig(max_iter=2 if tiny else max_iter, structure=structure)
        yield name, (lambda start=start, u=u, y=y, b=truth.B, cfg=cfg:
                     phsid.calibrate(start, u, y, b, cfg))
    truth = oscillator_truth()
    u, y = phsid.generate_reference(truth, phsid.TimeGrid(1.0, 200 if tiny else 500),
                                    phsid.NoiseSpec(seed=28))
    cfg = phsid.CalibrationConfig(sigma_init=1e6, max_iter=2 if tiny else 5)
    yield "calibrate oscillator sigma_init=1e6", (
        lambda u=u, y=y, b=truth.B, cfg=cfg: phsid.calibrate(oscillator_guess(), u, y, b, cfg))
    u, y = phsid.generate_reference(truth, grid(steps), phsid.NoiseSpec(seed=7))
    start = oscillator_guess()
    files = {name: str(workdir / name) for name in ("u.csv", "y.csv", "guess.json")}
    phsid.save_signal_csv(u, files["u.csv"], name="u")
    phsid.save_signal_csv(y, files["y.csv"], name="y")
    phsid.save_model(phsid.PHSystem(start.J, start.R, phsid.SPDMatrix.identity(2), truth.B,
                                    start.w_hat), files["guess.json"])
    argv = ["calibrate", "--data", files["y.csv"], "--input", files["u.csv"],
            "--guess", files["guess.json"], "--out", str(workdir / "result.json"),
            "--history", str(workdir / "history.csv"), "--diff", str(workdir / "diff.csv")]
    argv += ["--max-iter", "2"] * tiny
    expected = 2 if tiny else 0  # not converged in 2 iterations, else converged

    def cli_calibrate():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = phsid.cli.main(argv)
        if code != expected:
            raise AssertionError(f"phsid calibrate exited {code}, expected {expected}")

    yield "cli calibrate oscillator", cli_calibrate


def searches(call) -> dict:
    """Evaluator calls and swept rows of one untimed run of ``call``."""
    from phsid import calibration

    counts = {"evaluator_calls": 0, "swept_rows": 0}
    armijo_search = calibration.armijo_search

    def counting_search(v, g, cost_at_v, evaluator, cfg):
        def counted(j, r, w):
            costs = evaluator(j, r, w)
            counts["evaluator_calls"] += 1
            counts["swept_rows"] += len(costs)
            return costs
        return armijo_search(v, g, cost_at_v, counted, cfg)

    calibration.armijo_search = counting_search
    try:
        call()
    finally:
        calibration.armijo_search = armijo_search
    return counts


def calls_for(call) -> int:
    """How many back-to-back calls of ``call`` last at least ``SAMPLE_S``."""
    calls, start = 0, time.perf_counter()
    while time.perf_counter() - start < SAMPLE_S:
        call()
        calls += 1
    return calls


def serve(tiny: bool) -> None:
    """The worker: print the case names, each case's call count and each
    line-search case's counts, then answer each line ``<calls> <name>`` read
    from stdin with the mean seconds per call of that many calls of it."""
    with tempfile.TemporaryDirectory() as workdir:
        built = dict(cases(tiny, Path(workdir)))
        for call in built.values():
            call()
        calls = {name: calls_for(call) for name, call in built.items()}
        counts = {name: searches(call) for name, call in built.items()}
        print(json.dumps({"names": list(built), "calls": calls,
                          "counts": {name: c for name, c in counts.items()
                                     if c["evaluator_calls"]}}), flush=True)
        for line in sys.stdin:
            repeat, name = line.rstrip("\n").split(" ", 1)
            call, repeat = built[name], int(repeat)
            start = time.perf_counter()
            for _ in range(repeat):
                call()
            print(json.dumps((time.perf_counter() - start) / repeat), flush=True)


class Worker:
    """A worker process that imports phsid from ``src``."""

    def __init__(self, src: Path, tiny: bool):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, str(Path(__file__).resolve()), "--worker"] + ["--tiny"] * tiny
        self.proc = subprocess.Popen(argv, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        header = json.loads(self._answer())
        self.names, self.calls, self.counts = header["names"], header["calls"], header["counts"]

    def _answer(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with status {self.proc.wait()}")
        return line

    def time(self, name: str, calls: int) -> float:
        self.proc.stdin.write(f"{calls} {name}\n")
        self.proc.stdin.flush()
        return json.loads(self._answer())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def _spread(values) -> tuple[float, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(median), float(q3 - q1)


def compare(base_src: Path, tree_src: Path, repeats: int, tiny: bool) -> dict:
    """Per case, the call count of one timing, the median and IQR (ms) of
    each side's timings, the ratio base / change of the medians, the median
    and IQR of the per-pair ratios base / change and base / aa, and each
    side's line-search counts."""
    workers = {}
    try:
        for side, src in (("base", base_src), ("change", tree_src), ("aa", base_src)):
            workers[side] = Worker(src, tiny)
        calls = workers["base"].calls
        ms = {name: {side: [] for side in workers} for name in workers["base"].names}
        for r in range(repeats):
            order = list(workers)[r % len(workers):] + list(workers)[:r % len(workers)]
            for name, times in ms.items():
                for side in order:
                    times[side].append(1e3 * workers[side].time(name, calls[name]))
    finally:
        for worker in workers.values():
            worker.close()
    report = {}
    for name, times in ms.items():
        row = {"calls": calls[name]}
        for side, values in times.items():
            median, iqr = _spread(values)
            row[side] = {"median_ms": round(median, 4), "iqr_ms": round(iqr, 4)}
            row[side].update(workers[side].counts.get(name, {}))
        row["speedup"] = round(row["base"]["median_ms"] / row["change"]["median_ms"], 3)
        for key, other in (("paired_speedup", "change"), ("aa_paired_speedup", "aa")):
            median, iqr = _spread(np.array(times["base"]) / np.array(times[other]))
            row[key] = {"median": round(median, 3), "iqr": round(iqr, 3)}
        report[name] = row
    return report


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", default=None)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        serve(args.tiny)
        return 0
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        cases_report = compare(extract_src(args.base, tmp), ROOT / "src", args.repeats, args.tiny)
    base = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.base],
                          check=True, capture_output=True, text=True).stdout.strip()
    report = {"base": base, "change": "working tree", "repeats": args.repeats,
              "sample_ms": 1e3 * SAMPLE_S, "machine": machine(), "cases": cases_report}
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
