"""Diff the bit-exact fingerprints of the working tree against a git revision.

    python3 tools/fingerprint_diff.py [BASE]

Extracts ``src/`` of BASE (default ``HEAD``) with ``git archive`` into a
temporary directory.  Then runs the working tree's
``calibration_fingerprint.py`` and ``cli_fingerprint.py`` twice each, once
with BASE's ``src`` and once with the working tree's ``src`` as PYTHONPATH,
and prints a unified diff of each pair of outputs.  After each diff it lists
every case whose JSON line differs with the names of the keys that moved,
e.g. ``oscillator seed=7 full project: cost_history, v_opt``, then one
summary line per tool.  Exits 0 when both pairs are identical and 1 when
either differs.  The temporary directory is removed and no bytecode is written, so
the run leaves nothing behind.
"""

import difflib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ("calibration_fingerprint.py", "cli_fingerprint.py")


def extract_src(base: str, dest: str) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", base, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return Path(dest) / "src"


def fingerprint(tool: str, src: Path) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, str(ROOT / "tools" / tool)],
                         env=env, check=True, capture_output=True, text=True)
    return run.stdout.splitlines(keepends=True)


def moved_keys(old: list[str], new: list[str]) -> list[str]:
    """``case: key, key`` for each case whose JSON line differs, naming the
    keys whose values differ; lines that are not JSON records are skipped."""
    def records(lines):
        return {rec["case"]: rec for rec in (json.loads(line) for line in lines
                                             if line.startswith("{"))}

    before, after = records(old), records(new)
    out = []
    for case in dict.fromkeys([*before, *after]):
        a, b = before.get(case, {}), after.get(case, {})
        keys = [k for k in dict.fromkeys([*a, *b]) if a.get(k) != b.get(k)]
        if keys:
            out.append(f"{case}: {', '.join(keys)}\n")
    return out


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    base = argv[1] if len(argv) == 2 else "HEAD"
    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        base_src = extract_src(base, tmp)
        for tool in TOOLS:
            old, new = fingerprint(tool, base_src), fingerprint(tool, ROOT / "src")
            diff = list(difflib.unified_diff(old, new, f"{base}: {tool}",
                                             f"working tree: {tool}"))
            sys.stdout.writelines(diff)
            sys.stdout.writelines(moved_keys(old, new))
            print(f"{tool}: {len(new)} lines, {'DIFFERENT' if diff else 'identical'}")
            differs = differs or bool(diff)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
