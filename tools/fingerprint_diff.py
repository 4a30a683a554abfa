"""Diff the bit-exact fingerprints of the working tree against a git revision.

    python3 tools/fingerprint_diff.py [BASE]

Extracts ``src/`` of BASE (default ``HEAD``) with ``git archive`` into a
temporary directory.  Then runs the working tree's
``calibration_fingerprint.py`` and ``cli_fingerprint.py`` twice each, once
with BASE's ``src`` and once with the working tree's ``src`` as PYTHONPATH,
and prints a unified diff of each pair of outputs.  After each diff it lists
every case whose JSON line differs with the names of the keys that moved,
e.g. ``oscillator seed=7 full: cost_history, v_opt``.  Then it
prints how far each moved array moved, ``max|new - old| / max|old|``: for
the lists printed as hex floats (``cost_history``, ``gradient_sq_norms``,
``start_coefficients``, ...) from the two JSON lines, and for the arrays
that ``calibration_fingerprint.py`` prints only as digests from both
sides' saved ``.npy`` copies.  Then one summary line per tool.
Exits 0 when both pairs are identical and 1 when either differs.  The
temporary directory is removed and no bytecode is written, so the run
leaves nothing behind.
"""

import difflib
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ("calibration_fingerprint.py", "cli_fingerprint.py")


def extract_src(base: str, dest: str) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", base, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return Path(dest) / "src"


def fingerprint(tool: str, src: Path, *args: Path) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, str(ROOT / "tools" / tool), *map(str, args)],
                         env=env, check=True, capture_output=True, text=True)
    return run.stdout.splitlines(keepends=True)


def array_file(directory: Path, case: str, key: str) -> Path:
    """Where ``calibration_fingerprint.py`` saves the array digested as
    ``key`` of ``case``."""
    return Path(directory) / f"{re.sub(r'[^A-Za-z0-9.-]+', '_', case)}.{key}.npy"


def _records(lines: list[str]) -> dict[str, dict]:
    """The JSON records of ``lines`` by case; other lines are skipped."""
    return {rec["case"]: rec for rec in (json.loads(line) for line in lines
                                         if line.startswith("{"))}


def _moved(old: list[str], new: list[str]) -> dict[str, list[str]]:
    """The keys whose values differ, for each case whose JSON line differs."""
    before, after = _records(old), _records(new)
    out = {}
    for case in dict.fromkeys([*before, *after]):
        a, b = before.get(case, {}), after.get(case, {})
        keys = [k for k in dict.fromkeys([*a, *b]) if a.get(k) != b.get(k)]
        if keys:
            out[case] = keys
    return out


def moved_keys(old: list[str], new: list[str]) -> list[str]:
    """``case: key, key`` for each case whose JSON line differs."""
    return [f"{case}: {', '.join(keys)}\n" for case, keys in _moved(old, new).items()]


def array_moves(old: list[str], new: list[str], old_dir: Path, new_dir: Path) -> list[str]:
    """``case: key max|new - old| / max|old| = ...`` for each moved key that
    is a list of hex floats on both sides or whose array both sides saved."""
    before, after = _records(old), _records(new)
    out = []
    for case, keys in _moved(old, new).items():
        for key in keys:
            values = [before.get(case, {}).get(key), after.get(case, {}).get(key)]
            paths = [array_file(d, case, key) for d in (old_dir, new_dir)]
            if all(isinstance(v, list) for v in values):
                a, b = (np.array([float.fromhex(x) for x in v]) for v in values)
            elif all(path.exists() for path in paths):
                a, b = (np.load(path) for path in paths)
            else:
                continue
            if a.shape != b.shape:
                out.append(f"{case}: {key} shape {a.shape} -> {b.shape}\n")
                continue
            scale = np.abs(a).max(initial=0.0) or 1.0
            move = np.abs(b - a).max(initial=0.0) / scale
            out.append(f"{case}: {key} max|new - old| / max|old| = {move:.3g}\n")
    return out


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    base = argv[1] if len(argv) == 2 else "HEAD"
    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        base_src = extract_src(base, tmp)
        old_dir, new_dir = Path(tmp) / "base-arrays", Path(tmp) / "tree-arrays"
        for tool in TOOLS:
            saves = tool == "calibration_fingerprint.py"  # it saves its digested arrays
            old = fingerprint(tool, base_src, *([old_dir] if saves else []))
            new = fingerprint(tool, ROOT / "src", *([new_dir] if saves else []))
            diff = list(difflib.unified_diff(old, new, f"{base}: {tool}",
                                             f"working tree: {tool}"))
            sys.stdout.writelines(diff)
            sys.stdout.writelines(moved_keys(old, new))
            sys.stdout.writelines(array_moves(old, new, old_dir, new_dir))
            print(f"{tool}: {len(new)} lines, {'DIFFERENT' if diff else 'identical'}")
            differs = differs or bool(diff)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
