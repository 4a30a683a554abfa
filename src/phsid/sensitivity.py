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

is the integrators' recurrence run backwards: ``phsid.systems._affine_scan``
with P^T, S = B, the initial state 0 and the inputs h r_j from j = K-1 down,
a block-Toeplitz scan over chunks of steps (within rounding of the per-step
loop, which redoes exactly the chunks whose gemms left the finite range from
a finite start state), and

    G = h * sum_{j<K} lambda_{j+1} w_j^T,

so that d cost[h] = <G, h_J - h_R> + <lambda_0, h_x>.  Each direction reads
its coefficient off G and lambda_0:

    J[i,j] -> G[i,j] - G[j,i]        R[i,i] -> -G[i,i]
    R[i,j] -> -(G[i,j] + G[j,i])     x[i]   -> lambda_0[i]

The sweep costs O(K n (n + 8 min(k, n))) flops, mostly in two gemms and a
few dozen numpy calls per chunk, and G one gemm, whatever the number of
directions.
The adjoint forms the same derivatives as the per-direction route with its
sums in another order, so the two agree up to rounding, not bit for bit.

The tangent basis is an index set: :class:`BasisSet` is the pair (n,
structure), and its cached (block, i, j) index arrays into a (3, n, n)
stack of J, R and x blocks, x[i] at (i, i), name one lower-triangle entry
per direction (a skew pair of J, a symmetric entry of R, a coordinate of
w0), never a dense matrix nor an object per direction.
:func:`sensitivity_coefficients` gathers every coefficient through them
and :func:`assemble_gradient` scatters them onto zero lower triangles,
mirrored by ``phsid.matrices``, bit for bit what the dense ±1 basis
matrices gave.  :func:`solve_sensitivity` reads the (block, i, j) of its
one row k of them, and ``BasisSet.labels`` formats each row as ``J[i,j]``,
``R[i,j]`` or ``x[i]``.  :func:`finite_difference_gradient` takes
each probe's ±1 pattern from :func:`assemble_gradient` of a unit vector, one
probe at a time, and evaluates every point's cost through
:func:`_euler_cost`, as ``phsid.calibration`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, DivergenceError
from .matrices import PSDMatrix, SkewSymmetricMatrix, SymmetricMatrix, _frozen_vector, _is_integer
from .systems import (
    ReducedPHSystem,
    Signal,
    Trajectory,
    _affine_scan,
    _check_blocks,
    _check_finite,
    _check_parts,
    _euler_states,
    _step_scan,
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
        _check_blocks(J=self.J, R=self.R)
        object.__setattr__(self, "w_hat", _frozen_vector(self.w_hat, "w_hat", self.J.n))

    @property
    def n(self) -> int:
        return self.J.n

    def to_system(self, b: np.ndarray) -> ReducedPHSystem:
        """The reduced model at this parameter point with port matrix ``b``."""
        return ReducedPHSystem(self.J, self.R, b, self.w_hat)


@dataclass(frozen=True)
class BasisSet:
    """Canonical basis of the tangent space of the admissible set.

    Ordering: the n(n-1)/2 elementary skew directions (one +1/-1 pair each,
    +1 in the strict lower triangle, pairs in row-major order), then the
    symmetric directions (n unit diagonal matrices followed by the elementary
    off-diagonal pairs, omitted for ``diagonal_R``), then the n coordinate
    vectors for the initial state.
    """

    n: int
    structure: str = STRUCTURE_FULL

    def __post_init__(self):
        if self.structure not in STRUCTURES:
            raise ValueError(f"unknown structure {self.structure!r}, expected one of {STRUCTURES}")
        if not (_is_integer(self.n) and self.n >= 1):
            raise DimensionMismatchError("dimension must be >= 1")
        object.__setattr__(self, "n", int(self.n))

    def __len__(self) -> int:
        return len(self._index[0])

    @property
    def labels(self) -> tuple[str, ...]:
        """``J[i,j]``, ``R[i,j]`` or ``x[i]`` per direction, in basis order."""
        block, i, j = (a.tolist() for a in self._index)
        return tuple(f"x[{r}]" if b == 2 else f"{'JR'[b]}[{r},{c}]"
                     for b, r, c in zip(block, i, j))

    @cached_property
    def _index(self) -> tuple[np.ndarray, ...]:
        """(block, i, j) index arrays of the directions into a (3, n, n) stack
        of J, R and x blocks, x[i] at (i, i)."""
        rows, cols = np.tril_indices(self.n, -1)
        diagonal = np.arange(self.n, dtype=np.intp)
        pairs = len(rows) if self.structure == STRUCTURE_FULL else 0
        block = np.repeat(np.arange(3, dtype=np.intp), [len(rows), self.n + pairs, self.n])
        i, j = (np.concatenate([a, diagonal, a[:pairs], diagonal]) for a in (rows, cols))
        return block, i, j


tangent_basis = BasisSet  # tangent_basis(n, structure): the canonical basis


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


def _check_basis(basis: BasisSet, n: int) -> None:
    if basis.n != n:
        raise DimensionMismatchError("system and basis dimensions differ")


def solve_sensitivity(sys: ReducedPHSystem, traj: Trajectory,
                      basis: BasisSet, index: int) -> Trajectory:
    """Integrate the sensitivity ODE along direction ``index`` of ``basis``.

    Uses the same Euler stencil and grid as the state ``traj``, run by the
    per-step loop ``phsid.systems._step_scan`` from s_0 (e_i for x, else
    zero).  The source enters node-wise at the left endpoints w = w[:-1]:
    h_J w for a J pair, -h_R w for an R pair, zero for x.  Its nonzero
    columns are copies of state columns: h * (w @ E.T) for the ±1 matrix E of
    the direction has h * w[:, j] in column i and h * -w[:, i] in column j
    (J), and the R source is its negation, whose zero columns are -0.0.
    """
    _check_parts(sys, traj=traj)
    _check_basis(basis, sys.n)
    if not (_is_integer(index) and 0 <= index < len(basis)):
        raise ValueError(f"basis index {index!r} is not an integer in [0, {len(basis)})")
    block, i, j = (int(a[int(index)]) for a in basis._index)
    n, w, h = sys.n, traj.states, traj.grid.h
    sign = -1.0 if block == 1 else 1.0
    states = np.full((traj.grid.num_nodes, n), sign * 0.0)
    states[0] = 0.0
    if block == 2:
        states[0, i] = 1.0
    else:
        states[1:, i] = h * (sign * w[:-1, j])
        if j != i:
            states[1:, j] = h * -w[:-1, i]
    _step_scan(np.eye(n) + h * sys.drift(), states)
    return Trajectory(traj.grid, states)


def directional_derivative(sys: ReducedPHSystem, traj: Trajectory,
                           sens: Trajectory, y_data: Signal) -> float:
    """Left-endpoint quadrature of <B^T w - y_data, B^T s> over the grid."""
    _check_parts(sys, traj=traj, sens=sens, y_data=y_data)
    h = traj.grid.h
    residual = traj.states[:-1] @ sys.B - y_data.values[:-1]
    tangent_output = sens.states[:-1] @ sys.B
    return float(h * np.sum(residual * tangent_output))


def assemble_gradient(coefficients, basis: BasisSet) -> Gradient:
    """Blockwise linear combination of the basis elements.

    The coefficients are written into their directions' entries of zero lower
    triangles (and of a zero vector for x) in one assignment, so the skew and
    symmetric blocks of the result keep their invariants bit-exactly.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape != (len(basis),):
        raise DimensionMismatchError(
            f"got {coefficients.shape[0] if coefficients.ndim == 1 else coefficients.shape} "
            f"coefficients for {len(basis)} basis directions"
        )
    blocks = np.zeros((3, basis.n, basis.n))
    # BasisSet holds each direction once; + 0.0 turns -0.0 into 0.0, as adding onto zero does
    blocks[basis._index] = coefficients + 0.0
    return Gradient(SkewSymmetricMatrix.from_strict_lower(blocks[0]),
                    SymmetricMatrix.from_lower(blocks[1]), blocks[2].diagonal(), coefficients)


def sensitivity_coefficients(sys: ReducedPHSystem, traj: Trajectory,
                             y_data: Signal, basis: BasisSet) -> np.ndarray:
    """Directional derivative of the cost for every basis direction.

    One backward sweep of the discrete adjoint over a (K+1, n) buffer and one
    gemm give all of them, whatever their number; the module docstring gives
    the recurrence and how each direction reads its coefficient off G and
    lambda_0.  The coefficients equal the per-direction
    :func:`solve_sensitivity` route up to rounding: the sums run in another
    order.  A coefficient that overflows raises DivergenceError.
    """
    _check_parts(sys, traj=traj, y_data=y_data)
    _check_basis(basis, sys.n)
    h, w = traj.grid.h, traj.states
    with np.errstate(over="ignore", invalid="ignore"):  # the coefficients are checked
        propagator = np.eye(sys.n) + h * sys.drift()
        residual = w[:-1] @ sys.B - y_data.values[:-1]
        # row t holds lambda_{K-t}: from zero, forced by h B r_j backwards in time
        adjoint, _ = _affine_scan(propagator.T, sys.B, 0.0, h * residual[::-1])
        # pairs lambda_{j+1} = adjoint[K-1-j] with w_j
        g = h * (adjoint[:-1].T @ w[-2::-1])
        entries = np.stack([g - g.T, -(g + g.T), np.diag(adjoint[-1])])
    np.fill_diagonal(entries[1], -np.diag(g))
    coefficients = entries[basis._index]
    if not np.isfinite(coefficients).all():
        raise DivergenceError(None, "adjoint sweep", quantity="gradient")
    return coefficients


def _euler_cost(drift: np.ndarray, b: np.ndarray, w0: np.ndarray, u_values: np.ndarray,
                y_values: np.ndarray, h: float, label: str) -> tuple[np.ndarray, float]:
    """Explicit Euler states under ``drift`` from ``w0`` and their output
    mismatch cost; a DivergenceError, raised where a state or the cost of
    finite states is not finite, names ``label`` as its scheme.

    The drift J - R needs R only symmetric: the Euler map and the cost are
    defined on all of matrix space, which keeps central differences
    two-sided even at the boundary of the PSD cone.
    """
    states, finite = _euler_states(drift, b, w0, u_values, h)
    _check_finite(states, finite, label)
    value = float(_output_cost(states, b, y_values, h))
    if not math.isfinite(value):
        raise DivergenceError(None, label, quantity="cost")
    return states, value


def _output_cost(states: np.ndarray, b: np.ndarray, y_values: np.ndarray, h: float):
    """1/2 * sum_{j<K} h * |B^T w_j - y_data_j|^2 for given Euler states.

    ``states`` is one sweep (K+1, n), giving one cost, or an element-major
    stack (m, K+1, n), giving m costs in one stacked reduction; each equals
    the cost of its element's own sweep bit for bit.  Evaluated under the
    Euler loop's error state: finite states too large to square give +inf,
    not a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        residual = states[..., :-1, :] @ b - y_values[:-1]
        return 0.5 * h * np.sum(residual * residual, axis=(-2, -1))


def finite_difference_gradient(v: ParameterPoint, b: np.ndarray, u: Signal,
                               y_data: Signal, basis: BasisSet,
                               eps: float = 1e-6) -> np.ndarray:
    """Central-difference oracle for the cost gradient coefficients.

    Evaluates [cost(v + eps*h) - cost(v - eps*h)] / (2 eps) per basis
    direction with the same simulator and quadrature as the sensitivity
    route, but no sensitivity machinery.  Perturbed points need not stay in
    the PSD cone.  The problem is validated as ``phsid.calibration.calibrate``
    validates it: ``b`` against ``v``, then ``u`` and ``y_data`` against the
    model (one grid, its port count), then the basis dimension.
    """
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError("eps must be positive and finite")
    sys = v.to_system(b)
    _check_parts(sys, u=u, y_data=y_data)
    _check_basis(basis, sys.n)
    j0, r0, w0 = v.J.array, v.R.array, v.w_hat
    unit = np.zeros(len(basis))
    out = np.empty(len(basis))
    for idx, label in enumerate(basis.labels):
        unit[idx] = 1.0
        pattern = assemble_gradient(unit, basis)  # the direction's dense ±1 blocks
        unit[idx] = 0.0
        plus, minus = (
            _euler_cost((j0 + e * pattern.h_J.array) - (r0 + e * pattern.h_R.array), sys.B,
                        w0 + e * pattern.h_x, u.values, y_data.values, u.grid.h,
                        f"finite-difference probe along {label}")[1]
            for e in (eps, -eps))
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
