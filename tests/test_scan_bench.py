import importlib.util
import types
from pathlib import Path

import pytest

import phsid
from conftest import oscillator_system
from phsid import calibration

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("scan_bench", _ROOT / "tools" / "scan_bench.py")
scan_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(scan_bench)


def test_one_tiny_repeat_times_every_case_on_every_side():
    src = _ROOT / "src"
    report = scan_bench.compare(src, src, repeats=1, tiny=True)
    assert list(report) == ["simulate euler n=2 K=200", "simulate midpoint n=2 K=200",
                            "simulate euler n=64 K=200", "simulate midpoint n=64 K=200",
                            "simulate euler n=128 K=200", "simulate midpoint n=128 K=200",
                            "simulate euler diverging n=2 K=200",
                            "evaluate 8 candidates n=8 K=200", "gradient wide-n8 model=0",
                            "calibrate wide-n8 model=0",
                            "calibrate wide-n8 model=6", "calibrate oscillator",
                            "calibrate oscillator diagonal_R",
                            "calibrate oscillator sigma_init=1e6", "cli calibrate oscillator"]
    # at K = 200 both wide-n8 starts are already below eps_stop
    searched = ["calibrate oscillator", "calibrate oscillator diagonal_R",
                "calibrate oscillator sigma_init=1e6", "cli calibrate oscillator"]
    # a simulation of 200 steps at n = 2 lasts far less than a sample
    assert report["simulate euler n=2 K=200"]["calls"] > 1
    for name, row in report.items():
        assert row["calls"] >= 1
        counts = row["base"].get("evaluator_calls"), row["base"].get("swept_rows")
        assert (counts[0] is not None) == (name in searched)
        if name in searched:
            assert 1 <= counts[0] <= counts[1]
        for side in ("base", "change", "aa"):
            assert row[side]["median_ms"] > 0
            assert row[side]["iqr_ms"] == 0  # one repeat has no spread
            assert (row[side].get("evaluator_calls"), row[side].get("swept_rows")) == counts
        assert row["speedup"] > 0
        for key in ("paired_speedup", "aa_paired_speedup"):
            assert row[key]["median"] > 0 and row[key]["iqr"] == 0


@pytest.mark.parametrize("seconds, calls", [(0.003, 7), (0.02, 1), (0.05, 1)])
def test_call_count_is_the_fewest_calls_that_last_a_sample(monkeypatch, seconds, calls):
    clock = [0.0]

    def call():
        clock[0] += seconds

    monkeypatch.setattr(scan_bench, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    assert scan_bench.SAMPLE_S == 0.02
    assert scan_bench.calls_for(call) == calls


def test_searches_counts_the_calls_and_rows_of_every_search():
    truth = oscillator_system()
    u, y = phsid.generate_reference(truth, phsid.TimeGrid(1.0, 200), phsid.NoiseSpec(seed=7))
    rows = []
    evaluator = calibration._BatchEvaluator

    class Recording(evaluator):
        def __call__(self, j, r, w):
            costs = super().__call__(j, r, w)
            rows.append(len(costs))
            return costs

    cfg = phsid.CalibrationConfig(max_iter=4)
    start = phsid.ParameterPoint(truth.J, phsid.PSDMatrix.from_matrix(2 * truth.R.array),
                                 truth.w_hat)
    counts = scan_bench.searches(lambda: phsid.calibrate(start, u, y, truth.B, cfg))
    calibration._BatchEvaluator = Recording
    try:
        phsid.calibrate(start, u, y, truth.B, cfg)
    finally:
        calibration._BatchEvaluator = evaluator
    assert counts == {"evaluator_calls": len(rows), "swept_rows": sum(rows)}
    assert len(rows) >= 4
    assert calibration.armijo_search is phsid.armijo_search  # restored


def test_machine_names_the_blas_thread_setting(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    info = scan_bench.machine()
    assert info["OPENBLAS_NUM_THREADS"] == "1"
    assert info["cpu_count"] >= 1
