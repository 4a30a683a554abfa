"""Sensitivities of the reduced state map and the structured adjoint gradient.

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

The cost functional is the output mismatch

    cost = 1/2 * sum_{j<K} h * |B^T w_j - y_data_j|^2

(left-endpoint quadrature, matching the Euler evaluation points), and its
directional derivative in direction h is

    d cost[h] = sum_{j<K} h * <B^T w_j - y_data_j, B^T s_j>.

:func:`solve_sensitivity` integrates s for one direction and
:func:`directional_derivative` forms that sum; together they are the
per-direction reference.  :func:`sensitivity_coefficients` gets every
direction from one backward sweep of the discrete adjoint instead
(discretize-then-optimize: it differentiates the same discrete cost).  With
the residual r_j = B^T w_j - y_data_j and P = I + h (J-R),

    lambda_K = 0,   lambda_j = P^T lambda_{j+1} + h B r_j   (j = K-1, ..., 0),

run through the integrators' affine-recurrence kernel
``phsid.systems._affine_scan`` in reverse time, a blocked scan on P^T that
advances a block of steps per gemm (within rounding of the per-step loop,
which it runs itself for short K, the tail steps and an overflow), and

    G = h * sum_{j<K} lambda_{j+1} w_j^T,

so that d cost[h] = <G, h_J - h_R> + <lambda_0, h_x>.  Each direction reads
its coefficient off G and lambda_0:

    J[i,j] -> G[i,j] - G[j,i]        R[i,i] -> -G[i,i]
    R[i,j] -> -(G[i,j] + G[j,i])     x[i]   -> lambda_0[i]

The sweep costs K/m block steps and O(K m n^2) flops in gemms (m the
scan's block length), and G one gemm, whatever the number of directions.
The adjoint forms the same derivatives as the per-direction route with its
sums in another order, so the two agree up to rounding, not bit for bit.

The tangent basis is an index set: each :class:`Direction` names one entry
of one lower triangle (a skew pair of J, a symmetric entry of R, a
coordinate of w0), never a dense matrix.  A direction's source in
:func:`solve_sensitivity` is written by copying state columns, and the
gradient is assembled by adding each coefficient onto its entry of a zero
lower triangle, bit for bit what the dense ±1 basis matrices gave.  Only
:func:`finite_difference_gradient` builds a direction's dense pattern, one
probe at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DivergenceError
from .matrices import PSDMatrix, SkewSymmetricMatrix, SymmetricMatrix, _frozen_vector
from .systems import (
    ReducedPHSystem,
    Signal,
    TimeGrid,
    Trajectory,
    _affine_scan,
    _euler_states,
)

STRUCTURE_FULL = "full"
STRUCTURE_DIAGONAL_R = "diagonal_R"
STRUCTURES = (STRUCTURE_FULL, STRUCTURE_DIAGONAL_R)

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


@dataclass(frozen=True, slots=True)
class Direction:
    """One element of the tangent basis, named by a lower-triangle index.

    ``("J", i, j)`` with j < i stands for the skew pair +1 at [i, j], -1 at
    [j, i]; ``("R", i, j)`` with j <= i for the symmetric pair (or unit
    diagonal) 1 at [i, j] and [j, i]; ``("x", i, i)`` for the unit vector e_i
    of the initial state.  Any other triple is rejected, so a direction always
    has exactly one nonzero block.
    """

    block: str
    i: int
    j: int

    def __post_init__(self):
        valid = {"J": 0 <= self.j < self.i, "R": 0 <= self.j <= self.i,
                 "x": 0 <= self.j == self.i}
        if not valid.get(self.block, False):
            raise ValueError(f"not a tangent basis direction: {(self.block, self.i, self.j)}")

    @property
    def label(self) -> str:
        return f"x[{self.i}]" if self.block == "x" else f"{self.block}[{self.i},{self.j}]"


@dataclass(frozen=True)
class BasisSet:
    """Canonical ordered tangent basis: skew block, symmetric block, coordinate vectors."""

    directions: tuple[Direction, ...]
    structure: str
    n: int

    def __post_init__(self):
        if any(d.i >= self.n for d in self.directions):
            raise DimensionMismatchError(f"basis direction outside dimension {self.n}")

    def __len__(self) -> int:
        return len(self.directions)

    def __iter__(self):
        return iter(self.directions)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(d.label for d in self.directions)


@dataclass(frozen=True)
class Gradient:
    """Assembled gradient: its (h_J skew, h_R symmetric, h_x) blocks plus its
    basis coefficients."""

    h_J: SkewSymmetricMatrix
    h_R: SymmetricMatrix
    h_x: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h_x", _frozen_vector(self.h_x, "h_x"))
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
    strict = [(i, j) for i in range(n) for j in range(i)]
    directions = [Direction("J", i, j) for i, j in strict]
    directions += [Direction("R", i, i) for i in range(n)]
    if structure == STRUCTURE_FULL:
        directions += [Direction("R", i, j) for i, j in strict]
    directions += [Direction("x", i, i) for i in range(n)]
    return BasisSet(tuple(directions), structure, n)


def _check_trajectory(sys: ReducedPHSystem, traj: Trajectory, grid: TimeGrid) -> None:
    if traj.grid != grid:
        raise DimensionMismatchError("trajectory grid does not match the requested grid")
    if traj.n != sys.n:
        raise DimensionMismatchError("system and trajectory dimensions differ")


def _write_rows(rows: np.ndarray, w: np.ndarray, h: float, d: Direction) -> None:
    """Write the sensitivity recurrence's data for direction ``d`` into the
    (K+1, n) ``rows``: the initial state s_0 (e_i for x, else zero) in row 0
    and h times the source term in rows 1..K.

    The source is h_J w for a J pair and -h_R w for an R pair at the left
    endpoints w = w[:-1], zero for an x direction.  Its nonzero columns are
    copies of state columns: h * (w @ E.T) for the ±1 matrix E of ``d`` has
    h * w[:, j] in column i and h * -w[:, i] in column j (J), and the R source
    is its negation, whose zero columns are -0.0.
    """
    sign = -1.0 if d.block == "R" else 1.0
    rows[0] = 0.0
    rows[1:] = sign * 0.0
    if d.block == "x":
        rows[0, d.i] = 1.0
        return
    rows[1:, d.i] = h * (sign * w[:-1, d.j])
    if d.j != d.i:
        rows[1:, d.j] = h * -w[:-1, d.i]


def solve_sensitivity(sys: ReducedPHSystem, traj: Trajectory,
                      direction: Direction, grid: TimeGrid) -> Trajectory:
    """Integrate the sensitivity ODE for one tangent basis direction.

    Uses the same Euler stencil and grid as the state; the state trajectory
    enters the source term node-wise at the left endpoint.
    """
    _check_trajectory(sys, traj, grid)
    n = sys.n
    if direction.i >= n:
        raise DimensionMismatchError(f"direction {direction.label} outside dimension {n}")
    propagator = np.eye(n) + grid.h * sys.drift()
    states = np.empty((grid.steps + 1, n))
    _write_rows(states, traj.states, grid.h, direction)
    s = states[0]
    if direction.block == "x":
        for j in range(grid.steps):
            s = propagator @ s
            states[j + 1] = s
    else:
        for j in range(grid.steps):
            s = propagator @ s + states[j + 1]
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
    """Blockwise linear combination of the basis elements.

    Each coefficient lands on its direction's entry of a zero lower triangle
    (or of a zero vector for x), so the skew and symmetric blocks of the
    result keep their invariants bit-exactly.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape != (len(basis),):
        raise DimensionMismatchError(
            f"got {coefficients.shape[0] if coefficients.ndim == 1 else coefficients.shape} "
            f"coefficients for {len(basis)} basis directions"
        )
    n = basis.n
    lower = {"J": np.zeros((n, n)), "R": np.zeros((n, n))}
    h_x = np.zeros(n)
    for c, d in zip(coefficients, basis.directions):
        if d.block == "x":
            h_x[d.i] += c
        else:
            lower[d.block][d.i, d.j] += c
    return Gradient(SkewSymmetricMatrix.from_strict_lower(lower["J"]),
                    SymmetricMatrix.from_lower(lower["R"]), h_x, coefficients)


def sensitivity_coefficients(sys: ReducedPHSystem, traj: Trajectory,
                             y_data: Signal, basis: BasisSet) -> np.ndarray:
    """Directional derivative of the cost for every basis direction.

    One backward sweep of the discrete adjoint over a (K+1, n) buffer and one
    gemm give all of them, whatever their number; the module docstring gives
    the recurrence and how each direction reads its coefficient off G and
    lambda_0.  The coefficients equal the per-direction
    :func:`solve_sensitivity` route up to rounding: the sums run in another
    order.
    """
    grid = traj.grid
    _check_trajectory(sys, traj, grid)
    if basis.n != sys.n:
        raise DimensionMismatchError("system and basis dimensions differ")
    if grid != y_data.grid:
        raise DimensionMismatchError("trajectory, sensitivity and data grids differ")
    if y_data.k != sys.k:
        raise DimensionMismatchError(
            f"data has {y_data.k} ports but the system expects {sys.k}"
        )
    h = grid.h
    w = traj.states
    propagator = np.eye(sys.n) + h * sys.drift()
    residual = w[:-1] @ sys.B - y_data.values[:-1]
    # row t holds lambda_{K-t}: zero, then the forcing h B r_j backwards in time
    adjoint = np.empty((grid.num_nodes, sys.n))
    adjoint[0] = 0.0
    adjoint[1:] = (h * residual[::-1]) @ sys.B.T
    _affine_scan(propagator.T, adjoint)
    # pairs lambda_{j+1} = adjoint[K-1-j] with w_j
    g = h * (adjoint[:-1].T @ w[-2::-1])
    skew = g - g.T
    sym = -(g + g.T)
    np.fill_diagonal(sym, -np.diag(g))
    lam0 = adjoint[-1]
    entry = {"J": skew, "R": sym}
    return np.array([lam0[d.i] if d.block == "x" else entry[d.block][d.i, d.j]
                     for d in basis.directions])


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
    n = v.n
    j0 = v.J.array
    r0 = v.R.array
    w0 = v.w_hat
    out = np.empty(len(basis))
    for idx, d in enumerate(basis.directions):
        # the direction's dense ±1 pattern, one probe at a time
        h_j, h_r, h_x = np.zeros((n, n)), np.zeros((n, n)), np.zeros(n)
        if d.block == "J":
            h_j[d.i, d.j], h_j[d.j, d.i] = 1.0, -1.0
        elif d.block == "R":
            h_r[d.i, d.j] = h_r[d.j, d.i] = 1.0
        else:
            h_x[d.i] = 1.0
        try:
            plus = _mismatch_cost(j0 + eps * h_j, r0 + eps * h_r,
                                  b, w0 + eps * h_x, u.values, y_data.values, h)
            minus = _mismatch_cost(j0 - eps * h_j, r0 - eps * h_r,
                                   b, w0 - eps * h_x, u.values, y_data.values, h)
        except DivergenceError as exc:
            raise DivergenceError(
                exc.step, f"finite-difference probe along {d.label}"
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
