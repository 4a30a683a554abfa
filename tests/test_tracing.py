"""Guard for the benchmark's tracer: every name it wraps must still exist.

``perfbench/tracing.py`` replaces phsid functions at the names their callers
resolve.  Renaming or removing one of them breaks a traced benchmark run
(``perfbench/run.py --trace 1``), so the sites are checked here, and so is
that a traced ``calibrate`` returns the untraced result bit for bit.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

import phsid as p
import phsid.calibration
from conftest import result_bits

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_every_traced_site_resolves(tracing):
    for module_name, attr, _, _ in tracing._SITES:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def test_a_traced_calibrate_records_the_search_and_restores_the_originals(tracing, oscillator,
                                                                          guess_point):
    sites = [(importlib.import_module(m), attr) for m, attr, _, _ in tracing._SITES]
    sites.append((phsid.calibration, "armijo_search"))
    originals = [getattr(module, attr) for module, attr in sites]
    u, y_data = p.generate_reference(oscillator, p.TimeGrid(1.0, 100), p.NoiseSpec(seed=3))
    cfg = p.CalibrationConfig(max_iter=2)
    with tracing.installed(tracing.Tracer()) as tracer:
        res = p.calibrate(guess_point, u, y_data, oscillator.B, cfg)
    assert res.iterations == 2
    # the traced benchmark measures the same program: the untraced run's bits
    assert result_bits(res) == result_bits(p.calibrate(guess_point, u, y_data, oscillator.B, cfg))
    assert len(tracer.named("calibration.calibrate")) == 1
    assert len(tracer.named("calibration.armijo_search")) == 2
    assert len(tracer.named("calibration.cost_eval")) >= 2
    assert all(np.isfinite(s.dur) and s.dur >= 0 for s in tracer.spans)
    assert [getattr(module, attr) for module, attr in sites] == originals
