import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "fingerprint_diff.py"
_SPEC = importlib.util.spec_from_file_location("fingerprint_diff", _PATH)
fingerprint_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fingerprint_diff)


def line(**record):
    return json.dumps(record) + "\n"


def test_moved_keys_names_each_case_and_the_keys_that_moved():
    old = [line(case="a", iterations=3, cost="0x1p-1", v_opt="aa"),
           line(case="b", iterations=2, cost="0x1p-2"),
           "command 0 generate exit=0 stdout=ff\n"]
    new = [line(case="a", iterations=3, cost="0x1.1p-1", v_opt="ab"),
           line(case="b", iterations=2, cost="0x1p-2"),
           "command 0 generate exit=0 stdout=ee\n"]
    assert fingerprint_diff.moved_keys(old, new) == ["a: cost, v_opt\n"]


def test_moved_keys_lists_a_case_on_one_side_only_with_all_its_keys():
    old = [line(case="a", states="00")]
    assert fingerprint_diff.moved_keys(old, []) == ["a: case, states\n"]
    assert fingerprint_diff.moved_keys(old, old) == []


def test_array_moves_reports_how_far_each_moved_array_moved(tmp_path):
    old_dir, new_dir = tmp_path / "old", tmp_path / "new"
    old_dir.mkdir()
    new_dir.mkdir()
    base = np.array([2.0, -4.0, 1.0])
    arrays = {"a": (base, base + np.array([0.0, 4e-14, 0.0])), "b": (base, base.copy())}
    for case, (before, after) in arrays.items():
        np.save(fingerprint_diff.array_file(old_dir, case, "states"), before)
        np.save(fingerprint_diff.array_file(new_dir, case, "states"), after)
    old = [line(case="a", states="aa"), line(case="b", states="bb")]
    new = [line(case="a", states="ab"), line(case="b", states="bb")]
    moves = fingerprint_diff.array_moves(old, new, old_dir, new_dir)
    # case b's digest did not move, so its arrays are not compared
    assert len(moves) == 1
    assert moves[0].startswith("a: states max|new - old| / max|old| = ")
    assert float(moves[0].rsplit("= ", 1)[1]) == pytest.approx(1e-14, rel=0.01)


def test_array_moves_reports_how_far_each_moved_hex_list_moved(tmp_path):
    def hexes(values):
        return [float(v).hex() for v in values]

    base = [0.5, -0.25, 2.0]
    old = [line(case="a", cost_history=hexes(base), gradient_sq_norms=hexes(base)),
           line(case="b", start_coefficients=hexes(base))]
    new = [line(case="a", cost_history=hexes([0.5, -0.25 + 2e-15, 2.0]),
                gradient_sq_norms=hexes(base)),
           line(case="b", start_coefficients=hexes(base + [1.0]))]
    # no .npy files were saved: the lists are read from the JSON lines
    moves = fingerprint_diff.array_moves(old, new, tmp_path, tmp_path)
    assert len(moves) == 2
    assert moves[0].startswith("a: cost_history max|new - old| / max|old| = ")
    assert float(moves[0].rsplit("= ", 1)[1]) == pytest.approx(1e-15, rel=0.01)
    assert moves[1] == "b: start_coefficients shape (3,) -> (4,)\n"


def test_array_file_names_one_file_per_case_and_key(tmp_path):
    names = {fingerprint_diff.array_file(tmp_path, case, key).name
             for case in ("oscillator seed=7 full", "wide-n8 model=0")
             for key in ("v_opt", "y_opt")}
    assert len(names) == 4
    assert all(" " not in name and "=" not in name for name in names)
