import importlib.util
import json
from pathlib import Path

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
