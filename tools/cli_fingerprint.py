"""Print the SHA-256 of every file and stdout of the benchmark's CLI sequence.

    PYTHONPATH=src python3 tools/cli_fingerprint.py > new.txt

``python3 tools/fingerprint_diff.py [BASE]`` runs it (and
``calibration_fingerprint.py``) with a git revision's ``src`` and with the
working tree's, and diffs the outputs.  Identical lines mean that every file the
subcommands wrote and everything they printed is byte-identical.

The sequence is the ``cli-long`` workload's, in a temporary directory: at
K=1e5 generate, simulate euler, and simulate midpoint with ``--energy-out``;
at K=1e3 generate, calibrate with both structures, and report.  It then
runs check-gradient with both structures on the K=1e3 data.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import phsid as p
import phsid.cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import STEPS_PER_UNIT, oscillator_guess, oscillator_truth  # noqa: E402

LONG_STEPS = 100_000
SEEDS = (5, 6)


def commands(d: Path):
    def f(name):
        return str(d / name)

    truth, guess = f("truth.json"), f("guess.json")
    t_long = str(LONG_STEPS / STEPS_PER_UNIT)
    return [
        ["generate", "--model", truth, "--T", t_long, "--steps", str(LONG_STEPS),
         "--seed", str(SEEDS[0]), "--out-u", f("u.csv"), "--out-y", f("y.csv")],
        ["simulate", "--model", truth, "--input", f("u.csv"), "--scheme", "euler",
         "--out", f("we.csv"), "--out-y", f("ye.csv")],
        ["simulate", "--model", truth, "--input", f("u.csv"), "--scheme", "midpoint",
         "--out", f("wm.csv"), "--out-y", f("ym.csv"), "--energy-out", f("energy.csv")],
        ["generate", "--model", truth, "--T", "1", "--steps", str(STEPS_PER_UNIT),
         "--seed", str(SEEDS[1]), "--out-u", f("u1.csv"), "--out-y", f("y1.csv")],
        ["calibrate", "--data", f("y1.csv"), "--input", f("u1.csv"), "--guess", guess,
         "--out", f("result.json"), "--history", f("history.csv"), "--diff", f("diff.csv")],
        ["calibrate", "--data", f("y1.csv"), "--input", f("u1.csv"), "--guess", guess,
         "--structure", "diagonal_R", "--out", f("result_diagonal_R.json"),
         "--history", f("history_diagonal_R.csv"), "--diff", f("diff_diagonal_R.csv")],
        ["report", "--history", f("history.csv"), "--diff", f("diff.csv")],
        ["check-gradient", "--data", f("y1.csv"), "--input", f("u1.csv"), "--guess", guess],
        ["check-gradient", "--data", f("y1.csv"), "--input", f("u1.csv"), "--guess", guess,
         "--structure", "diagonal_R"],
    ]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        identity = p.SPDMatrix.identity(2)
        truth, start = oscillator_truth(), oscillator_guess()
        p.save_model(p.PHSystem(truth.J, truth.R, identity, truth.B, truth.w_hat),
                     d / "truth.json")
        p.save_model(p.PHSystem(start.J, start.R, identity, truth.B, start.w_hat),
                     d / "guess.json")
        for place, argv in enumerate(commands(d)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = phsid.cli.main(argv)
            # paths in the output name the temporary directory: hash them away
            stdout = out.getvalue().replace(tmp, "<dir>")
            print(f"command {place} {argv[0]} exit={code} stdout={sha256(stdout.encode())}")
        for path in sorted(d.iterdir()):
            print(f"file {path.name} {sha256(path.read_bytes())}")


if __name__ == "__main__":
    main()
