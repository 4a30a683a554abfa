"""Gradient-descent calibration of reduced port-Hamiltonian models.

The loop fits v = (J, R, w0) to reference output data by repeating

    1. simulate the state with explicit Euler (the states of an accepted
       candidate are reused, not integrated again),
    2. run one backward sweep of the discrete adjoint over those states,
       read the directional derivative along every tangent-basis direction
       off it, and assemble the cost gradient from them,
    3. find a step size with Armijo backtracking (start at sigma_init,
       halve until the decrease beats gamma * sigma * |g|^2); the candidates
       sigma_init, sigma_init/2, ... are built a batch of up to
       ``_BATCH_WIDTH`` at a time as stacked arrays, the R blocks that are
       not PSD projected in one stacked call per batch, and integrated in
       one stacked Euler sweep per evaluator call.  After the first search
       a search's first call sweeps only the leading rows up to one past the
       row accepted last; the rest lead the next call, which sweeps a whole
       batch again.  The first candidate in order that
       passes the test is accepted, exactly as a one-at-a-time search would,
    4. update v <- retract(v - sigma * g),

until the cost drops below ``eps_stop`` or a guard (iteration cap, halving
cap, exactly-zero gradient) trips.  The retraction re-mirrors the triangular
free parameters, so J stays exactly skew and R exactly symmetric at every
iterate; with ``psd_mode="project"`` the R block is additionally replaced by
its Frobenius-nearest PSD matrix, keeping the iterate admissible.  The
sufficient-decrease condition is evaluated at the retracted candidate, so
every recorded step satisfies the Armijo inequality exactly as stored.

|g|^2 is the squared Euclidean norm of the basis-coefficient vector; the
basis elements themselves are not normalized, which rescales the step
geometry by the (positive definite) Gram matrix of the basis but never
breaks descent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatchError, InvalidModelError, LineSearchError
from .matrices import PSDMatrix, SkewSymmetricMatrix, SymmetricMatrix
from .matrices import project_psd  # noqa: F401 -- perfbench/tracing.py wraps it at this name
from .matrices import _is_finite, _is_integer, _is_real
from .matrices import _project_psd_stack, _skew_from_lower, _sym_from_lower
from .sensitivity import (
    STRUCTURE_FULL,
    STRUCTURES,
    Gradient,
    ParameterPoint,
    _euler_cost,
    _output_cost,
    assemble_gradient,
    sensitivity_coefficients,
    tangent_basis,
)
from .systems import ReducedPHSystem, Signal, Trajectory, _euler_states, output
from .systems import simulate_euler  # noqa: F401 -- perfbench/tracing.py wraps it at this name

PSD_PROJECT = "project"
PSD_NONE = "none"
PSD_MODES = (PSD_PROJECT, PSD_NONE)

# Most step-size candidates armijo_search hands to the cost evaluator at once.
_BATCH_WIDTH = 8

# Bytes of the stacked states one evaluator call sweeps, (K+1) x n floats per
# step-size candidate.
_PASS_BYTES = 1 << 20


@dataclass(frozen=True)
class CalibrationConfig:
    """Run parameters of the descent loop.

    The one declaration of the calibration settings: ``load_config`` takes
    its keys and ``phsid calibrate`` its flags from these fields, and a
    field's ``choices`` metadata lists its allowed values.
    """

    sigma_init: float = 10.0
    gamma: float = 1e-4
    eps_stop: float = 1e-4
    max_iter: int = 500
    max_halvings: int = 60
    structure: str = field(default=STRUCTURE_FULL, metadata={"choices": STRUCTURES})
    psd_mode: str = field(default=PSD_PROJECT, metadata={"choices": PSD_MODES})

    def __post_init__(self):
        for name in ("sigma_init", "gamma", "eps_stop"):
            if not _is_real(getattr(self, name)):
                raise ValueError(f"{name} must be a real number, got {getattr(self, name)!r}")
        if not (self.sigma_init > 0 and _is_finite(self.sigma_init)):
            raise ValueError("sigma_init must be positive and finite")
        if not 0 < self.gamma < 1:
            raise ValueError("gamma must lie in (0, 1)")
        if not (self.eps_stop > 0 and _is_finite(self.eps_stop)):
            raise ValueError("eps_stop must be positive and finite")
        for name in ("max_iter", "max_halvings"):
            value = getattr(self, name)
            if not (_is_integer(value) and value >= 0):
                raise ValueError(f"{name} must be a nonnegative integer")
            object.__setattr__(self, name, int(value))
        for f in fields(self):
            value = getattr(self, f.name)
            if "choices" in f.metadata and value not in f.metadata["choices"]:
                raise ValueError(f"unknown {f.name} {value!r}")


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a calibration run.

    ``cost_history`` holds the cost of the initial point and of every
    accepted iterate (strictly decreasing after the first entry);
    ``step_sizes``, ``gradient_sq_norms`` and ``iterates`` line up with the
    accepted steps, with ``iterates`` additionally including the initial
    point at index 0.
    """

    v_opt: ParameterPoint
    cost_history: tuple[float, ...]
    iterations: int
    converged: bool
    y_opt: Signal
    step_sizes: tuple[float, ...]
    gradient_sq_norms: tuple[float, ...] = ()
    iterates: tuple[ParameterPoint, ...] = ()
    message: str = ""

    @property
    def final_cost(self) -> float:
        return self.cost_history[-1]


class ArmijoStep(NamedTuple):
    """The accepted step: its size, the retracted point and its cost, and
    ``row``, the point's index among the candidates of the last evaluator
    call."""

    sigma: float
    point: ParameterPoint
    cost: float
    row: int


def _check_data(u: Signal, y_data: Signal, k: int, owner: str) -> None:
    """Reject input and data off one grid, with other than ``k`` ports or
    with a non-finite sample."""
    if u.grid != y_data.grid:
        raise DimensionMismatchError("input and data grids differ")
    if u.k != k or y_data.k != k:
        raise DimensionMismatchError(f"port counts of {owner}, input and data differ")
    for name, signal in (("u", u), ("y_data", y_data)):
        if not np.isfinite(signal.values).all():
            raise InvalidModelError(f"{name} contains non-finite values")


def cost(sys: ReducedPHSystem, u: Signal, y_data: Signal) -> float:
    """Output mismatch 1/2 * sum_{j<K} h * |B^T w_j - y_data_j|^2 under explicit Euler."""
    _check_data(u, y_data, sys.k, "system")
    return _euler_cost(sys.drift(), sys.B, sys.w_hat, u.values, y_data.values, u.grid.h,
                       "cost evaluation")[1]


def _trial_points(v: ParameterPoint, g: Gradient, sigmas: list[float], psd_mode: str):
    """Stacked step sizes, J, R and w0 of the trial points v - sigma * g.

    The triangular free parameters are updated for every sigma at once and
    mirrored by ``phsid.matrices``' mirror, the one ``from_strict_lower`` and
    ``from_lower`` use, so J is exactly skew and R exactly symmetric.  Rows
    whose J or R overflowed are dropped.  With ``psd_mode="project"``, the R
    blocks that a stacked ``eigvalsh`` finds not PSD are replaced by their
    projections, all in one call of the stacked projection core.
    """
    s = np.array(sigmas, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        j = _skew_from_lower(v.J.array - s[:, None, None] * g.h_J.array)
        r = _sym_from_lower(v.R.array - s[:, None, None] * g.h_R.array)
        w = v.w_hat - s[:, None] * g.h_x
    keep = np.isfinite(j).all(axis=(1, 2)) & np.isfinite(r).all(axis=(1, 2))
    s, j, r, w = s[keep], j[keep], r[keep], w[keep]
    if psd_mode == PSD_PROJECT:
        clip = np.flatnonzero(np.linalg.eigvalsh(r)[:, 0] < 0.0)
        if len(clip):
            r[clip] = _project_psd_stack(r[clip])
    return [s, j, r, w]


def armijo_search(v: ParameterPoint, g: Gradient, cost_at_v: float,
                  cost_evaluator: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
                  cfg: CalibrationConfig) -> ArmijoStep:
    """Backtracking step size search.

    Tries sigma in {sigma_init, sigma_init/2, ...} and returns the first one
    whose retracted candidate v' = retract(v - sigma*g) satisfies

        cost(v') - cost(v) <= -gamma * sigma * |g|^2,

    with cost(v') < cost(v) unless g is zero.  Candidates are built in that
    order, a batch at a time as stacked arrays (the R blocks that are not
    PSD are projected as one stack), and handed to ``cost_evaluator`` in
    batches of up to ``_BATCH_WIDTH``: stacked J (m, n, n), R (m, n, n) and
    w0 (m, n) blocks as raw arrays.  The evaluator returns the costs of the
    first m' of them, 1 <= m' <= m (all m unless it bounds its memory or
    follows the last accepted row), and may return +inf to signal an
    unusable candidate; the candidates it left out lead the next batch.
    The first candidate in order that passes the test is accepted, so the
    result is that of trying one sigma at a time.  The returned step names
    the accepted candidate's row in the last call.  Raises
    :class:`LineSearchError` once ``max_halvings`` halvings are exhausted.
    """
    g_sq = g.norm_sq
    n = v.n
    pending = [np.empty(0), np.empty((0, n, n)), np.empty((0, n, n)), np.empty((0, n))]
    sigma, untried = cfg.sigma_init, cfg.max_halvings + 1
    while True:
        while len(pending[0]) < _BATCH_WIDTH and untried:
            sigmas = []
            for _ in range(min(_BATCH_WIDTH - len(pending[0]), untried)):
                sigmas.append(sigma)
                sigma *= 0.5
            untried -= len(sigmas)
            batch = _trial_points(v, g, sigmas, cfg.psd_mode)
            pending = [np.concatenate(pair) for pair in zip(pending, batch)]
        if not len(pending[0]):
            raise LineSearchError(sigmas[-1], cfg.max_halvings)
        s, j, r, w = pending
        costs = cost_evaluator(j, r, w)
        if not 0 < len(costs) <= len(s):
            raise ValueError(f"cost evaluator returned {len(costs)} costs "
                             f"for {len(s)} candidates")
        for i, cand_cost in enumerate(costs):
            # with g != 0 the bound is negative in exact arithmetic; where it
            # underflows to -0.0 it must still not admit an unchanged cost
            if (np.isfinite(cand_cost) and cand_cost - cost_at_v <= -cfg.gamma * s[i] * g_sq
                    and (cand_cost < cost_at_v or g_sq == 0.0)):
                # PSDMatrix rejects an R that psd_mode="none" left outside the cone
                point = ParameterPoint(SkewSymmetricMatrix(j[i]),
                                       PSDMatrix(SymmetricMatrix(r[i])), w[i])
                return ArmijoStep(float(s[i]), point, float(cand_cost), i)
        pending = [a[len(costs):] for a in pending]


def _pass_width(num_nodes: int, n: int, count: int) -> int:
    """Candidates one evaluator call sweeps, of ``count`` offered: as many as
    fit in ``_PASS_BYTES``, at least one."""
    return max(1, min(count, _PASS_BYTES // (num_nodes * n * 8)))


class _BatchEvaluator:
    """The cost evaluator ``calibrate`` hands to :func:`armijo_search`.

    A call integrates the leading candidates of its batch in one Euler sweep
    and returns their costs, +inf for a candidate that diverged.  The first
    call of a search takes ``row + 2`` candidates once :meth:`states_of`
    has named an accepted row, since the next search mostly accepts near
    the row the last one did; every other call takes the whole batch.
    Either way it takes no more than fit in ``_PASS_BYTES`` of stacked
    states, and at least one.  The sweep's states are element-major, so
    each candidate's (K+1, n) states are a contiguous slice of them; its
    cost is formed from that slice, as :func:`cost` forms it, and equals a
    one-candidate evaluation bit for bit.  Only the candidates that the
    scan's mask names finite are costed.  The sweep of the last call is
    kept, so the accepted candidate's states need no second sweep.
    """

    def __init__(self, b: np.ndarray, u: Signal, y_data: Signal):
        self.b, self.u_values, self.y_values = b, u.values, y_data.values
        self.h = u.grid.h
        self._last = None
        self._width = _BATCH_WIDTH

    def __call__(self, j_stack, r_stack, w_stack) -> np.ndarray:
        num_nodes, n = self.u_values.shape[0], w_stack.shape[1]
        m = _pass_width(num_nodes, n, min(self._width, w_stack.shape[0]))
        self._width = _BATCH_WIDTH
        drifts, w0 = j_stack[:m] - r_stack[:m], w_stack[:m]
        states, finite = _euler_states(drifts, self.b, w0, self.u_values, self.h)
        costs = np.full(m, np.inf)
        for i in np.flatnonzero(finite):
            costs[i] = _output_cost(states[i], self.b, self.y_values, self.h)
        self._last = states
        return costs

    def states_of(self, row: int) -> np.ndarray:
        """Euler states of the candidate in ``row`` of the last call, the
        accepted one; the next search's first call sweeps up to one row
        past it."""
        self._width = min(_BATCH_WIDTH, row + 2)
        return self._last[row]


def calibrate(v0: ParameterPoint, u: Signal, y_data: Signal, b,
              cfg: CalibrationConfig | None = None) -> CalibrationResult:
    """Run the descent loop from ``v0`` with fixed, known port matrix ``b``."""
    if cfg is None:
        cfg = CalibrationConfig()
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != v0.n:
        raise DimensionMismatchError(
            f"port matrix must be {v0.n} x k, got shape {b.shape}"
        )
    _check_data(u, y_data, b.shape[1], "B")

    basis = tangent_basis(v0.n, cfg.structure)
    evaluate = _BatchEvaluator(b, u, y_data)

    v = v0
    start = v.to_system(b)  # validates b against v
    states, current = _euler_cost(start.drift(), start.B, start.w_hat, u.values,
                                  y_data.values, u.grid.h, "cost evaluation")
    history = [current]
    sigmas: list[float] = []
    grad_sq: list[float] = []
    iterates = [v]
    message = ""
    iterations = 0

    while current > cfg.eps_stop and iterations < cfg.max_iter:
        sys = v.to_system(b)
        traj = Trajectory(u.grid, states)
        coeffs = sensitivity_coefficients(sys, traj, y_data, basis)
        g = assemble_gradient(coeffs, basis)
        if g.norm_sq == 0.0:
            message = "stationary point: gradient is exactly zero above the stopping threshold"
            break
        try:
            step = armijo_search(v, g, current, evaluate, cfg)
        except LineSearchError as exc:
            message = str(exc)
            break
        except InvalidModelError as exc:
            message = f"iterate left the admissible set (psd_mode='{cfg.psd_mode}'): {exc}"
            break
        v = step.point
        states = evaluate.states_of(step.row)
        current = step.cost
        iterations += 1
        history.append(current)
        sigmas.append(step.sigma)
        grad_sq.append(g.norm_sq)
        iterates.append(v)

    converged = current <= cfg.eps_stop
    if not converged and not message:
        message = f"iteration limit reached ({cfg.max_iter})"
    y_opt = output(v.to_system(b), Trajectory(u.grid, states))
    return CalibrationResult(
        v_opt=v,
        cost_history=tuple(history),
        iterations=iterations,
        converged=converged,
        y_opt=y_opt,
        step_sizes=tuple(sigmas),
        gradient_sq_norms=tuple(grad_sq),
        iterates=tuple(iterates),
        message=message,
    )
