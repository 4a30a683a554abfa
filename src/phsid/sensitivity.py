"""Forward sensitivities of the reduced state map and the structured gradient.

The admissible parameter set is

    V = { (J, R, w0) : J skew-symmetric, R symmetric PSD },

so J may only be perturbed by skew matrices, R by symmetric matrices (or by
diagonal matrices in the restricted variant) and w0 freely.  For a pure
perturbation h with a single nonzero block, the derivative s = dw of the
state w solves a linear ODE driven by the state itself:

    J-block:   ds/dt - (J-R) s =  h_J w,   s(0) = 0
    R-block:   ds/dt - (J-R) s = -h_R w,   s(0) = 0
    w0-block:  ds/dt - (J-R) s =  0,       s(0) = h_x

These are integrated with the same explicit Euler stencil as the state, with
w read node-wise from the already-computed state trajectory.  Because the
scheme is the exact derivative of the discrete Euler map, the resulting
directional derivatives of the discrete cost agree with central finite
differences down to truncation level.

All directions share the propagator I + h (J-R), so
:func:`sensitivity_coefficients` advances them together: each pass stacks as
many directions as fit in a buffer of ``_PASS_BYTES`` (at least one) and
takes one Euler step for the whole stack per call.  :func:`solve_sensitivity`
integrates one direction on its own; it is the per-direction reference the
stacked route reproduces bit for bit.

The cost functional is the output mismatch

    cost = 1/2 * sum_{j<K} h * |B^T w_j - y_data_j|^2

(left-endpoint quadrature, matching the Euler evaluation points), and its
directional derivative in direction h is

    d cost[h] = sum_{j<K} h * <B^T w_j - y_data_j, B^T s_j>.

The gradient is assembled blockwise as the coefficient-weighted sum of the
raw basis elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DivergenceError,
    UnsupportedDirectionError,
)
from .matrices import PSDMatrix, SkewSymmetricMatrix, SymmetricMatrix, _frozen_vector
from .systems import ReducedPHSystem, Signal, TimeGrid, Trajectory, _euler_states

STRUCTURE_FULL = "full"
STRUCTURE_DIAGONAL_R = "diagonal_R"
STRUCTURES = (STRUCTURE_FULL, STRUCTURE_DIAGONAL_R)

# Bytes of one pass's stacked states, (K+1) x n floats per stacked sweep: the
# sensitivity directions here, the line search's step-size candidates in
# calibration.
_PASS_BYTES = 1 << 20


@dataclass(frozen=True)
class ParameterPoint:
    """A point (J, R, w_hat) of the admissible parameter set."""

    J: SkewSymmetricMatrix
    R: PSDMatrix
    w_hat: np.ndarray

    def __post_init__(self):
        if self.R.n != self.J.n:
            raise DimensionMismatchError("J and R must share the same dimension")
        w0 = _frozen_vector(self.w_hat, "w_hat")
        if w0.shape[0] != self.J.n:
            raise DimensionMismatchError(
                f"w_hat has length {w0.shape[0]}, expected {self.J.n}"
            )
        object.__setattr__(self, "w_hat", w0)

    @property
    def n(self) -> int:
        return self.J.n

    def to_system(self, b: np.ndarray) -> ReducedPHSystem:
        """The reduced model at this parameter point with port matrix ``b``."""
        return ReducedPHSystem(self.J, self.R, b, self.w_hat)


@dataclass(frozen=True)
class TangentDirection:
    """An admissible perturbation (h_J skew, h_R symmetric, h_x free)."""

    h_J: SkewSymmetricMatrix
    h_R: SymmetricMatrix
    h_x: np.ndarray

    def __post_init__(self):
        if self.h_R.n != self.h_J.n:
            raise DimensionMismatchError("h_J and h_R must share the same dimension")
        hx = _frozen_vector(self.h_x, "h_x")
        if hx.shape[0] != self.h_J.n:
            raise DimensionMismatchError(
                f"h_x has length {hx.shape[0]}, expected {self.h_J.n}"
            )
        object.__setattr__(self, "h_x", hx)

    @property
    def n(self) -> int:
        return self.h_J.n

    def nonzero_blocks(self) -> tuple[str, ...]:
        blocks = []
        if np.any(self.h_J.array != 0.0):
            blocks.append("J")
        if np.any(self.h_R.array != 0.0):
            blocks.append("R")
        if np.any(self.h_x != 0.0):
            blocks.append("x")
        return tuple(blocks)


@dataclass(frozen=True)
class BasisSet:
    """Canonical ordered tangent basis: skew block, symmetric block, coordinate vectors."""

    directions: tuple[TangentDirection, ...]
    labels: tuple[str, ...]
    structure: str
    n: int

    def __len__(self) -> int:
        return len(self.directions)

    def __iter__(self):
        return iter(self.directions)


@dataclass(frozen=True)
class Gradient:
    """Assembled gradient: a tangent direction plus its basis coefficients."""

    value: TangentDirection
    coefficients: np.ndarray

    def __post_init__(self):
        c = _frozen_vector(self.coefficients, "coefficients")
        object.__setattr__(self, "coefficients", c)

    @property
    def norm_sq(self) -> float:
        """Squared Euclidean norm of the coefficient vector."""
        return float(np.dot(self.coefficients, self.coefficients))


def tangent_basis(n: int, structure: str = STRUCTURE_FULL) -> BasisSet:
    """Canonical basis of the tangent space of the admissible set.

    Ordering: the n(n-1)/2 elementary skew directions (one +1/-1 pair each,
    +1 in the strict lower triangle, pairs in row-major order), then the
    symmetric directions (n unit diagonal matrices followed by the elementary
    off-diagonal pairs, omitted for ``diagonal_R``), then the n coordinate
    vectors for the initial state.
    """
    if structure not in STRUCTURES:
        raise ValueError(f"unknown structure {structure!r}, expected one of {STRUCTURES}")
    if n < 1:
        raise DimensionMismatchError("dimension must be >= 1")
    zero_j = SkewSymmetricMatrix.zeros(n)
    zero_r = SymmetricMatrix.zeros(n)
    zero_x = np.zeros(n)
    directions = []
    labels = []
    for i in range(n):
        for j in range(i):
            lower = np.zeros((n, n))
            lower[i, j] = 1.0
            directions.append(
                TangentDirection(SkewSymmetricMatrix.from_strict_lower(lower), zero_r, zero_x)
            )
            labels.append(f"J[{i},{j}]")
    for i in range(n):
        lower = np.zeros((n, n))
        lower[i, i] = 1.0
        directions.append(
            TangentDirection(zero_j, SymmetricMatrix.from_lower(lower), zero_x)
        )
        labels.append(f"R[{i},{i}]")
    if structure == STRUCTURE_FULL:
        for i in range(n):
            for j in range(i):
                lower = np.zeros((n, n))
                lower[i, j] = 1.0
                directions.append(
                    TangentDirection(zero_j, SymmetricMatrix.from_lower(lower), zero_x)
                )
                labels.append(f"R[{i},{j}]")
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        directions.append(TangentDirection(zero_j, zero_r, e))
        labels.append(f"x[{i}]")
    return BasisSet(tuple(directions), tuple(labels), structure, n)


def _direction_block(sys: ReducedPHSystem, traj: Trajectory,
                     direction: TangentDirection, grid: TimeGrid) -> str:
    """Validate a sensitivity solve and name the direction's one nonzero block."""
    if traj.grid != grid:
        raise DimensionMismatchError("trajectory grid does not match the requested grid")
    if traj.n != sys.n or direction.n != sys.n:
        raise DimensionMismatchError("system, trajectory and direction dimensions differ")
    blocks = direction.nonzero_blocks()
    if len(blocks) != 1:
        raise UnsupportedDirectionError(
            f"sensitivity directions must have exactly one nonzero block, got {blocks or ('none',)}"
        )
    return blocks[0]


def solve_sensitivity(sys: ReducedPHSystem, traj: Trajectory,
                      direction: TangentDirection, grid: TimeGrid) -> Trajectory:
    """Integrate the sensitivity ODE for one pure tangent direction.

    Uses the same Euler stencil and grid as the state; the state trajectory
    enters the source term node-wise at the left endpoint.
    """
    block = _direction_block(sys, traj, direction, grid)
    h = grid.h
    w = traj.states
    n = sys.n
    if block == "J":
        source = w[:-1] @ direction.h_J.array.T
        s0 = np.zeros(n)
    elif block == "R":
        source = -(w[:-1] @ direction.h_R.array.T)
        s0 = np.zeros(n)
    else:
        source = None
        s0 = direction.h_x
    propagator = np.eye(n) + h * sys.drift()
    states = np.empty((grid.steps + 1, n))
    states[0] = s0
    s = s0
    if source is None:
        for j in range(grid.steps):
            s = propagator @ s
            states[j + 1] = s
    else:
        h_source = h * source
        for j in range(grid.steps):
            s = propagator @ s + h_source[j]
            states[j + 1] = s
    return Trajectory(grid, states)


def directional_derivative(sys: ReducedPHSystem, traj: Trajectory,
                           sens: Trajectory, y_data: Signal) -> float:
    """Left-endpoint quadrature of <B^T w - y_data, B^T s> over the grid."""
    if not (traj.grid == sens.grid == y_data.grid):
        raise DimensionMismatchError("trajectory, sensitivity and data grids differ")
    if y_data.k != sys.k:
        raise DimensionMismatchError(
            f"data has {y_data.k} ports but the system expects {sys.k}"
        )
    h = traj.grid.h
    residual = traj.states[:-1] @ sys.B - y_data.values[:-1]
    tangent_output = sens.states[:-1] @ sys.B
    return float(h * np.sum(residual * tangent_output))


def assemble_gradient(coefficients, basis: BasisSet) -> Gradient:
    """Blockwise linear combination of the raw basis elements.

    Accumulation runs on the triangular free parameters, so the skew and
    symmetric blocks of the result keep their invariants bit-exactly.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape != (len(basis),):
        raise DimensionMismatchError(
            f"got {coefficients.shape[0] if coefficients.ndim == 1 else coefficients.shape} "
            f"coefficients for {len(basis)} basis directions"
        )
    n = basis.n
    lower_j = np.zeros((n, n))
    lower_r = np.zeros((n, n))
    h_x = np.zeros(n)
    for c, d in zip(coefficients, basis.directions):
        lower_j += c * np.tril(d.h_J.array, -1)
        lower_r += c * np.tril(d.h_R.array)
        h_x += c * d.h_x
    value = TangentDirection(
        SkewSymmetricMatrix.from_strict_lower(lower_j),
        SymmetricMatrix.from_lower(lower_r),
        h_x,
    )
    return Gradient(value, coefficients)


def _pass_width(num_nodes: int, n: int, count: int) -> int:
    """Sweeps per pass, of ``count`` wanted: as many as fit in ``_PASS_BYTES``,
    at least one."""
    return max(1, min(count, _PASS_BYTES // (num_nodes * n * 8)))


def sensitivity_coefficients(sys: ReducedPHSystem, traj: Trajectory,
                             y_data: Signal, basis: BasisSet) -> np.ndarray:
    """Directional derivative of the cost for every basis direction.

    The directions are advanced in passes of stacked (n, 1) columns, one
    matmul over the stack per Euler step.  Each column goes through the same
    BLAS matrix-vector product and the same addition as in
    :func:`solve_sensitivity`, and each direction's tangent output is formed
    from its own contiguous (K, n) block as in :func:`directional_derivative`,
    so the coefficients equal that per-direction route bit for bit.
    """
    grid = traj.grid
    directions = basis.directions
    blocks = [_direction_block(sys, traj, d, grid) for d in directions]
    if grid != y_data.grid:
        raise DimensionMismatchError("trajectory, sensitivity and data grids differ")
    if y_data.k != sys.k:
        raise DimensionMismatchError(
            f"data has {y_data.k} ports but the system expects {sys.k}"
        )
    h = grid.h
    w = traj.states
    n = sys.n
    propagator = np.eye(n) + h * sys.drift()
    width = _pass_width(grid.num_nodes, n, len(directions))
    buf = np.empty((grid.num_nodes, width, n, 1))
    tmp = np.empty((width, n, 1))
    residual = w[:-1] @ sys.B - y_data.values[:-1]
    coeffs = np.empty(len(directions))
    matmul, add = np.matmul, np.add
    for first in range(0, len(directions), width):
        count = min(width, len(directions) - first)
        sens = buf[:, :count]
        # sources first, h * source as solve_sensitivity forms them; the Euler
        # step then adds P s onto them in place
        for i in range(count):
            direction = directions[first + i]
            block = blocks[first + i]
            if block == "x":
                sens[0, i, :, 0] = direction.h_x
                sens[1:, i, :, 0] = 0.0
                continue
            sens[0, i, :, 0] = 0.0
            if block == "J":
                sens[1:, i, :, 0] = h * (w[:-1] @ direction.h_J.array.T)
            else:
                sens[1:, i, :, 0] = h * -(w[:-1] @ direction.h_R.array.T)
        if count == 1:
            # one direction steps as a plain vector: the same gemv, with less
            # per-call overhead than a stack of one column
            rows, step = sens[:, 0, :, 0], tmp[0, :, 0]
        else:
            rows, step = sens, tmp[:count]
        for cur, nxt in zip(rows[:-1], rows[1:]):
            matmul(propagator, cur, out=step)
            add(nxt, step, out=nxt)
        for i in range(count):
            tangent_output = np.ascontiguousarray(sens[:-1, i, :, 0]) @ sys.B
            coeffs[first + i] = float(h * np.sum(residual * tangent_output))
    return coeffs


def _mismatch_cost(j_arr: np.ndarray, r_arr: np.ndarray, b: np.ndarray,
                   w0: np.ndarray, u_values: np.ndarray, y_values: np.ndarray,
                   h: float) -> float:
    """Euler-simulated output mismatch cost on raw arrays.

    R only needs to be symmetric here; the Euler map and the cost are defined
    on all of matrix space, which keeps central differences two-sided even at
    the boundary of the PSD cone.
    """
    return _output_cost(_euler_states(j_arr - r_arr, b, w0, u_values, h), b, y_values, h)


def _output_cost(states: np.ndarray, b: np.ndarray, y_values: np.ndarray, h: float) -> float:
    """1/2 * sum_{j<K} h * |B^T w_j - y_data_j|^2 for given Euler states.

    Evaluated under the Euler loop's error state: finite states too large
    to square give +inf, not a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        residual = states[:-1] @ b - y_values[:-1]
        return float(0.5 * h * np.sum(residual * residual))


def finite_difference_gradient(v: ParameterPoint, b: np.ndarray, u: Signal,
                               y_data: Signal, basis: BasisSet,
                               eps: float = 1e-6) -> np.ndarray:
    """Central-difference oracle for the cost gradient coefficients.

    Evaluates [cost(v + eps*h) - cost(v - eps*h)] / (2 eps) per basis
    direction with the same simulator and quadrature as the sensitivity
    route, but no sensitivity machinery.  Perturbed points need not stay in
    the PSD cone.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if u.grid != y_data.grid:
        raise DimensionMismatchError("input and data grids differ")
    h = u.grid.h
    j0 = v.J.array
    r0 = v.R.array
    w0 = v.w_hat
    out = np.empty(len(basis))
    for idx, d in enumerate(basis.directions):
        try:
            plus = _mismatch_cost(j0 + eps * d.h_J.array, r0 + eps * d.h_R.array,
                                  b, w0 + eps * d.h_x, u.values, y_data.values, h)
            minus = _mismatch_cost(j0 - eps * d.h_J.array, r0 - eps * d.h_R.array,
                                   b, w0 - eps * d.h_x, u.values, y_data.values, h)
        except DivergenceError as exc:
            raise DivergenceError(
                exc.step, f"finite-difference probe along {basis.labels[idx]}"
            ) from None
        out[idx] = (plus - minus) / (2.0 * eps)
    return out


def coefficients_agree(computed: float, reference: float,
                       rel_tol: float = 1e-4, abs_tol: float = 1e-8,
                       small: float = 1e-4) -> bool:
    """Tolerance rule for gradient checks.

    Relative error up to ``rel_tol`` counts as agreement; when both values
    are smaller than ``small`` in magnitude, an absolute deviation up to
    ``abs_tol`` is accepted instead.
    """
    diff = abs(computed - reference)
    scale = max(abs(computed), abs(reference))
    if scale < small:
        return diff <= abs_tol
    return diff <= rel_tol * scale
