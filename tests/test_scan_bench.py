import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("scan_bench", _ROOT / "tools" / "scan_bench.py")
scan_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(scan_bench)


def test_one_tiny_repeat_times_every_case_on_both_sides():
    src = _ROOT / "src"
    report = scan_bench.compare(src, src, repeats=1, tiny=True)
    assert list(report) == ["simulate euler n=2 K=200", "simulate midpoint n=2 K=200",
                            "simulate euler diverging n=2 K=200",
                            "evaluate 8 candidates n=8 K=200", "calibrate wide-n8 model=0",
                            "calibrate wide-n8 model=6", "calibrate oscillator",
                            "calibrate oscillator diagonal_R",
                            "calibrate oscillator sigma_init=1e6", "cli calibrate oscillator"]
    for row in report.values():
        for side in ("base", "change"):
            assert row[side]["median_ms"] > 0
            assert row[side]["iqr_ms"] == 0  # one repeat has no spread
        assert row["speedup"] > 0
        assert row["paired_speedup"]["median"] > 0 and row["paired_speedup"]["iqr"] == 0


def test_machine_names_the_blas_thread_setting(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    info = scan_bench.machine()
    assert info["OPENBLAS_NUM_THREADS"] == "1"
    assert info["cpu_count"] >= 1
