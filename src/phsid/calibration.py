"""Gradient-descent calibration of reduced port-Hamiltonian models.

The loop fits v = (J, R, w0) to reference output data by repeating

    1. simulate the state with explicit Euler (the states of an accepted
       candidate are reused, not integrated again),
    2. advance the sensitivity recurrences of all tangent-basis directions
       together, in memory-bounded passes, and assemble the cost gradient
       from the directional derivatives,
    3. find a step size with Armijo backtracking (start at sigma_init,
       halve until the decrease beats gamma * sigma * |g|^2); the candidates
       sigma_init, sigma_init/2, ... are integrated in batches of up to
       ``_BATCH_WIDTH``, one stacked Euler sweep per batch, and the first
       one in that order that passes the test is accepted, exactly as a
       one-at-a-time search would,
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

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatchError, DivergenceError, InvalidModelError, LineSearchError
from .matrices import PSDMatrix, SkewSymmetricMatrix, SymmetricMatrix, project_psd
from .sensitivity import (
    STRUCTURE_FULL,
    STRUCTURES,
    Gradient,
    ParameterPoint,
    _output_cost,
    _pass_width,
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


def _is_integer(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and int(value) == value)


@dataclass(frozen=True)
class CalibrationConfig:
    """Run parameters of the descent loop."""

    sigma_init: float = 10.0
    gamma: float = 1e-4
    eps_stop: float = 1e-4
    max_iter: int = 500
    max_halvings: int = 60
    structure: str = STRUCTURE_FULL
    psd_mode: str = PSD_PROJECT

    def __post_init__(self):
        if not (self.sigma_init > 0 and math.isfinite(self.sigma_init)):
            raise ValueError("sigma_init must be positive and finite")
        if not 0 < self.gamma < 1:
            raise ValueError("gamma must lie in (0, 1)")
        if not (self.eps_stop > 0 and math.isfinite(self.eps_stop)):
            raise ValueError("eps_stop must be positive and finite")
        for name in ("max_iter", "max_halvings"):
            value = getattr(self, name)
            if not (_is_integer(value) and value >= 0):
                raise ValueError(f"{name} must be a nonnegative integer")
            object.__setattr__(self, name, int(value))
        if self.structure not in STRUCTURES:
            raise ValueError(f"unknown structure {self.structure!r}")
        if self.psd_mode not in PSD_MODES:
            raise ValueError(f"unknown psd_mode {self.psd_mode!r}")


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
    sigma: float
    point: ParameterPoint
    cost: float


def _states_and_cost(sys: ReducedPHSystem, u: Signal,
                     y_data: Signal) -> tuple[np.ndarray, float]:
    """Explicit Euler states of ``sys`` under ``u`` and their output mismatch cost."""
    if u.grid != y_data.grid:
        raise DimensionMismatchError("input and data grids differ")
    if u.k != sys.k or y_data.k != sys.k:
        raise DimensionMismatchError("port counts of system, input and data differ")
    try:
        states = _euler_states(sys.drift(), sys.B, sys.w_hat, u.values, u.grid.h)
    except DivergenceError as exc:
        err = DivergenceError(exc.step, "cost evaluation")
        err.parameters = (sys.J.array, sys.R.array, sys.w_hat)
        raise err from None
    return states, _output_cost(states, sys.B, y_data.values, u.grid.h)


def cost(sys: ReducedPHSystem, u: Signal, y_data: Signal) -> float:
    """Output mismatch 1/2 * sum_{j<K} h * |B^T w_j - y_data_j|^2 under explicit Euler."""
    return _states_and_cost(sys, u, y_data)[1]


def _candidate_blocks(v: ParameterPoint, g: Gradient, sigma: float):
    """Raw descent update on the triangular free parameters (exact structure)."""
    j_new = SkewSymmetricMatrix.from_strict_lower(
        np.tril(v.J.array, -1) - sigma * np.tril(g.value.h_J.array, -1)
    )
    r_sym = SymmetricMatrix.from_lower(
        np.tril(v.R.array) - sigma * np.tril(g.value.h_R.array)
    )
    w_new = v.w_hat - sigma * g.value.h_x
    return j_new, r_sym, w_new


class _Candidate(NamedTuple):
    sigma: float
    j: SkewSymmetricMatrix
    r_sym: SymmetricMatrix
    r_block: SymmetricMatrix | PSDMatrix   # the R the cost is evaluated at
    w: np.ndarray


def _candidates(v: ParameterPoint, g: Gradient, cfg: CalibrationConfig):
    """Yield (sigma, candidate) for sigma = sigma_init, sigma_init/2, ... over
    ``max_halvings`` halvings; the candidate is None where the trial point
    overflowed, which rejects that step size."""
    sigma = cfg.sigma_init
    for _ in range(cfg.max_halvings + 1):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                j_new, r_sym, w_new = _candidate_blocks(v, g, sigma)
        except InvalidModelError:
            yield sigma, None
        else:
            r_block = project_psd(r_sym) if cfg.psd_mode == PSD_PROJECT else r_sym
            yield sigma, _Candidate(sigma, j_new, r_sym, r_block, w_new)
        sigma *= 0.5


def armijo_search(v: ParameterPoint, g: Gradient, cost_at_v: float,
                  cost_evaluator: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
                  cfg: CalibrationConfig) -> ArmijoStep:
    """Backtracking step size search.

    Tries sigma in {sigma_init, sigma_init/2, ...} and returns the first one
    whose retracted candidate v' = retract(v - sigma*g) satisfies

        cost(v') - cost(v) <= -gamma * sigma * |g|^2.

    Candidates are built in that order and handed to ``cost_evaluator`` in
    batches of up to ``_BATCH_WIDTH``: stacked J (m, n, n), R (m, n, n) and
    w0 (m, n) blocks as raw arrays.  The evaluator returns the costs of the
    first m' of them, 1 <= m' <= m (all m unless it bounds its memory), and
    may return +inf to signal an unusable candidate; the candidates it left
    out lead the next batch.  The first candidate in order that passes the
    test is accepted, so the result is that of trying one sigma at a time.
    Raises :class:`LineSearchError` once ``max_halvings`` halvings are
    exhausted.
    """
    g_sq = g.norm_sq
    trials = _candidates(v, g, cfg)
    pending: list[_Candidate] = []
    sigma = cfg.sigma_init
    while True:
        for sigma, candidate in trials:
            if candidate is not None:
                pending.append(candidate)
                if len(pending) == _BATCH_WIDTH:
                    break
        if not pending:
            raise LineSearchError(sigma, cfg.max_halvings)
        costs = cost_evaluator(np.stack([c.j.array for c in pending]),
                               np.stack([c.r_block.array for c in pending]),
                               np.stack([c.w for c in pending]))
        if not 0 < len(costs) <= len(pending):
            raise ValueError(f"cost evaluator returned {len(costs)} costs "
                             f"for {len(pending)} candidates")
        for c, cand_cost in zip(pending, costs):
            if np.isfinite(cand_cost) and cand_cost - cost_at_v <= -cfg.gamma * c.sigma * g_sq:
                if isinstance(c.r_block, PSDMatrix):
                    r_new = c.r_block
                else:
                    # psd_mode="none": the accepted iterate must still be admissible
                    r_new = PSDMatrix(c.r_sym)
                return ArmijoStep(c.sigma, ParameterPoint(c.j, r_new, c.w), float(cand_cost))
        del pending[:len(costs)]


class _BatchEvaluator:
    """The cost evaluator ``calibrate`` hands to :func:`armijo_search`.

    A call integrates as many of the candidates as fit in ``_PASS_BYTES`` of
    stacked states (at least one) in one Euler sweep and returns their costs,
    +inf for a candidate that diverged.  Each candidate's cost is formed from
    its own contiguous (K+1, n) states, as :func:`cost` forms it, so it
    equals a one-candidate evaluation bit for bit.  The sweep of the last
    call is kept, so the accepted candidate's states need no second sweep.
    """

    def __init__(self, b: np.ndarray, u: Signal, y_data: Signal):
        self.b, self.u_values, self.y_values = b, u.values, y_data.values
        self.h = u.grid.h
        self._last = None

    def __call__(self, j_stack, r_stack, w_stack) -> np.ndarray:
        num_nodes, n = self.u_values.shape[0], w_stack.shape[1]
        m = _pass_width(num_nodes, n, w_stack.shape[0])
        drifts, w0 = j_stack[:m] - r_stack[:m], w_stack[:m]
        states = _euler_states(drifts, self.b, w0, self.u_values, self.h)
        costs = np.full(m, np.inf)
        for i in range(m):
            own = np.ascontiguousarray(states[:, i])
            if np.isfinite(own).all():
                costs[i] = _output_cost(own, self.b, self.y_values, self.h)
        self._last = (drifts, w0, states)
        return costs

    def states_of(self, point: ParameterPoint) -> np.ndarray:
        """Euler states of ``point``, a candidate of the last call."""
        drifts, w0, states = self._last
        drift = point.J.array - point.R.array
        for i in range(len(w0)):
            # candidates with equal parameters have equal states
            if np.array_equal(drifts[i], drift) and np.array_equal(w0[i], point.w_hat):
                return np.ascontiguousarray(states[:, i])
        raise ValueError("point was not a candidate of the last evaluation")


def calibrate(v0: ParameterPoint, u: Signal, y_data: Signal, b,
              cfg: CalibrationConfig | None = None) -> CalibrationResult:
    """Run the descent loop from ``v0`` with fixed, known port matrix ``b``."""
    if cfg is None:
        cfg = CalibrationConfig()
    b = np.asarray(b, dtype=float)
    if u.grid != y_data.grid:
        raise DimensionMismatchError("input and data grids differ")
    if b.ndim != 2 or b.shape[0] != v0.n:
        raise DimensionMismatchError(
            f"port matrix must be {v0.n} x k, got shape {b.shape}"
        )
    if u.k != b.shape[1] or y_data.k != b.shape[1]:
        raise DimensionMismatchError("port counts of B, input and data differ")

    basis = tangent_basis(v0.n, cfg.structure)
    evaluate = _BatchEvaluator(b, u, y_data)

    v = v0
    states, current = _states_and_cost(v.to_system(b), u, y_data)
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
        states = evaluate.states_of(v)
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
