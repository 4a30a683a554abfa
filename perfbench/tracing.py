"""Spans around calls into phsid's layers, recorded from the benchmark's side.

A :class:`Tracer` replaces functions at the names the calling module
resolves (``phsid.calibration.simulate_euler``, ``phsid.cli.save_signal_csv``
and so on) with wrappers that record one span per call: name, start, end and
the span that was open when the call began.  Nothing inside phsid changes;
:func:`installed` puts every original back when the traced block ends.

A span's name is ``<layer>.<function>``; the layer is one of phsid's modules.
Its self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


class Tracer:
    """In-memory span recorder; spans are read after the traced block ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        sp = Span(name, parent)
        self.spans.append(sp)
        self._open.append(index)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()
            if parent is not None:
                self.spans[parent].child_s += sp.dur

    def wrap(self, fn, name: str, note=None):
        """``fn`` recording one span per call; ``note(span, args, result)``
        runs after the span has closed, so its cost is not timed as the call's."""
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if note is not None:
                note(sp, args, result)
            return result
        return traced

    # ---- queries over the recorded spans

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def within(self, sp: Span, ancestor: str) -> bool:
        index = sp.parent
        while index is not None:
            if self.spans[index].name == ancestor:
                return True
            index = self.spans[index].parent
        return False

    def total(self, name: str) -> float:
        return sum(s.dur for s in self.named(name))

    def layer_self(self, layer: str) -> float:
        return sum(s.self_s for s in self.spans if s.layer == layer)

    def roots_s(self) -> float:
        return sum(s.dur for s in self.spans if s.parent is None)


def _steps(sp, args, result):
    sp.attrs["steps"] = result.grid.steps


def basis_bytes(basis) -> int:
    """Dense h_J, h_R (n x n) and h_x (n) per direction, 8 bytes per entry:
    computed from the shapes, not measured."""
    return len(basis) * (2 * basis.n * basis.n + basis.n) * 8


def _basis_bytes(sp, args, result):
    sp.attrs["bytes"] = basis_bytes(result)


def _accepted(sp, args, result):
    # runs only when the search returned a step, not when it raised
    sp.attrs["accepted"] = True


def _clipped(sp, args, result):
    sp.attrs["clipped"] = not np.array_equal(result.array, args[0].array)


def _file_bytes(position):
    def note(sp, args, result):
        sp.attrs["bytes"] = os.path.getsize(args[position])
    return note


# (module, attribute, span name, note) for every public call site traced.
# The module is the one whose global name the caller resolves.
_SITES = (
    ("phsid", "calibrate", "calibration.calibrate", None),
    ("phsid", "generate_reference", "data_io.generate_reference", None),
    ("phsid", "simulate_euler", "systems.simulate_euler", _steps),
    ("phsid", "simulate_discrete_gradient", "systems.simulate_discrete_gradient", _steps),
    ("phsid.calibration", "cost", "calibration.cost", None),
    ("phsid.calibration", "simulate_euler", "systems.simulate_euler", _steps),
    ("phsid.calibration", "output", "systems.output", None),
    ("phsid.calibration", "tangent_basis", "sensitivity.tangent_basis", _basis_bytes),
    ("phsid.calibration", "sensitivity_coefficients", "sensitivity.sensitivity_coefficients", None),
    ("phsid.calibration", "assemble_gradient", "sensitivity.assemble_gradient", None),
    ("phsid.calibration", "project_psd", "matrices.project_psd", _clipped),
    ("phsid.sensitivity", "solve_sensitivity", "sensitivity.solve_sensitivity", None),
    ("phsid.sensitivity", "directional_derivative", "sensitivity.directional_derivative", None),
    ("phsid.data_io", "generate_input", "data_io.generate_input", None),
    ("phsid.data_io", "simulate_euler", "systems.simulate_euler", _steps),
    ("phsid.data_io", "output", "systems.output", None),
    ("phsid.cli", "load_model", "data_io.load_model", None),
    ("phsid.cli", "load_signal_csv", "data_io.load_signal_csv", _file_bytes(0)),
    ("phsid.cli", "load_history_csv", "data_io.load_history_csv", _file_bytes(0)),
    ("phsid.cli", "save_signal_csv", "data_io.save_signal_csv", _file_bytes(1)),
    ("phsid.cli", "save_trajectory_csv", "data_io.save_trajectory_csv", _file_bytes(1)),
    ("phsid.cli", "save_history_csv", "data_io.save_history_csv", _file_bytes(1)),
    ("phsid.cli", "save_result", "data_io.save_result", None),
    ("phsid.cli", "generate_reference", "data_io.generate_reference", None),
    ("phsid.cli", "calibrate", "calibration.calibrate", None),
    ("phsid.cli", "cholesky_reduce", "systems.cholesky_reduce", None),
    ("phsid.cli", "simulate_euler", "systems.simulate_euler", _steps),
    ("phsid.cli", "simulate_discrete_gradient", "systems.simulate_discrete_gradient", _steps),
    ("phsid.cli", "output", "systems.output", None),
    ("phsid.cli", "midpoint_output", "systems.midpoint_output", None),
    ("phsid.cli", "hamiltonian", "systems.hamiltonian", None),
    ("phsid.cli", "energy_balance_residual", "systems.energy_balance_residual", None),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every site in ``_SITES`` plus the Armijo search and the cost
    evaluator it is handed, for the duration of the block."""
    import importlib

    import phsid.calibration

    saved = []
    try:
        for module_name, attr, name, note in _SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, note))

        armijo = phsid.calibration.armijo_search

        def armijo_search(v, g, cost_at_v, cost_evaluator, cfg):
            evaluator = tracer.wrap(cost_evaluator, "calibration.cost_eval")
            return armijo(v, g, cost_at_v, evaluator, cfg)

        saved.append((phsid.calibration, "armijo_search", armijo))
        phsid.calibration.armijo_search = tracer.wrap(armijo_search, "calibration.armijo_search",
                                                      _accepted)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _steps_per_s(spans: list[Span]) -> float:
    return _ratio(sum(s.attrs["steps"] for s in spans), sum(s.dur for s in spans))


def calibration_layers(tr: Tracer) -> dict:
    """Per-layer figures of the ``calibrate`` calls a traced round made.

    Times are seconds per ``calibrate`` call, except for
    ``data_io.generate_reference.self_s``: data_io's own time per reference
    data set, the Euler sweep inside it excluded.  Shares are of the time
    inside ``calibrate``.
    """
    calls = len(tr.named("calibration.calibrate"))
    cal_s = tr.total("calibration.calibrate")
    gradient_s = (tr.total("sensitivity.sensitivity_coefficients")
                  + tr.total("sensitivity.assemble_gradient"))
    armijo = tr.named("calibration.armijo_search")
    iterations = sum(s.attrs.get("accepted", False) for s in armijo)
    evals = tr.named("calibration.cost_eval")
    euler = tr.named("systems.simulate_euler")
    midpoint = tr.named("systems.simulate_discrete_gradient")
    sweeps = tr.named("sensitivity.solve_sensitivity")
    psd = tr.named("matrices.project_psd")
    basis = tr.named("sensitivity.tangent_basis")
    refs = tr.named("data_io.generate_reference")
    return {
        "systems.simulate_euler.steps_per_s": (_steps_per_s(euler), "steps/s"),
        "systems.simulate_euler.calls_per_step": (
            _ratio(sum(tr.within(s, "calibration.calibrate") for s in euler), iterations), "count"),
        "systems.simulate_discrete_gradient.steps_per_s": (_steps_per_s(midpoint), "steps/s"),
        "sensitivity.gradient.self_s": (gradient_s / calls, "s"),
        "sensitivity.gradient.share": (gradient_s / cal_s, "ratio"),
        "sensitivity.directions": (
            _ratio(len(sweeps), len(tr.named("sensitivity.sensitivity_coefficients"))), "count"),
        "sensitivity.sweeps_per_s": (_ratio(len(sweeps), sum(s.dur for s in sweeps)), "1/s"),
        "sensitivity.assemble_gradient.self_s": (
            sum(s.self_s for s in tr.named("sensitivity.assemble_gradient")) / calls, "s"),
        "sensitivity.tangent_basis.computed_bytes": (max(s.attrs["bytes"] for s in basis), "B"),
        "calibration.iterations": (iterations / calls, "count"),
        "calibration.step_s": (_ratio(cal_s, iterations), "s"),
        "calibration.armijo.self_s": (sum(s.self_s for s in armijo) / calls, "s"),
        "calibration.armijo.share": (sum(s.dur for s in armijo) / cal_s, "ratio"),
        "calibration.armijo.candidates_per_step": (_ratio(len(evals), len(armijo)), "count"),
        "calibration.armijo.accept_ratio": (_ratio(len(armijo), len(evals)), "ratio"),
        "calibration.cost_eval.self_s": (sum(s.self_s for s in evals) / calls, "s"),
        "matrices.project_psd.calls": (len(psd) / calls, "count"),
        "matrices.project_psd.self_s": (sum(s.self_s for s in psd) / calls, "s"),
        "matrices.project_psd.clip_ratio": (
            _ratio(sum(s.attrs["clipped"] for s in psd), len(psd)), "ratio"),
        "data_io.generate_reference.self_s": (
            _ratio(sum(s.self_s for s in refs + tr.named("data_io.generate_input")), len(refs)),
            "s"),
    }


def cli_layers(tr: Tracer) -> dict:
    """Per-layer figures of a traced ``cli-long`` pass; shares are of the
    time inside the subcommands."""
    pipeline_s = tr.roots_s()
    euler = tr.named("systems.simulate_euler")
    midpoint = tr.named("systems.simulate_discrete_gradient")
    writes = [s for s in tr.spans if s.name.startswith("data_io.save_") and "bytes" in s.attrs]
    reads = [s for s in tr.spans if s.name.startswith("data_io.load_") and "bytes" in s.attrs]
    written = sum(s.attrs["bytes"] for s in writes)
    read = sum(s.attrs["bytes"] for s in reads)
    out = {
        "systems.simulate_euler.steps_per_s": (_steps_per_s(euler), "steps/s"),
        "systems.simulate_discrete_gradient.steps_per_s": (_steps_per_s(midpoint), "steps/s"),
        "data_io.csv_write.mb_per_s": (_ratio(written / 1e6, sum(s.dur for s in writes)), "MB/s"),
        "data_io.csv_read.mb_per_s": (_ratio(read / 1e6, sum(s.dur for s in reads)), "MB/s"),
        "data_io.csv.bytes": (written + read, "B"),
    }
    for sub in ("generate", "simulate_euler", "simulate_midpoint", "calibrate", "report"):
        out[f"cli.{sub}.wall_s"] = (tr.total(f"cli.{sub}"), "s")
    for layer in ("data_io", "systems", "cli"):
        out[f"{layer}.share"] = (tr.layer_self(layer) / pipeline_s, "ratio")
    return out
