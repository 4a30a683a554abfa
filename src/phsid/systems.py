"""Linear port-Hamiltonian models, the Cholesky reduction and time integrators.

The full model is

    dx/dt = (J - R) Q x + B u,    x(0) = x_hat,
    y     = B^T Q x,

with J skew-symmetric, R symmetric PSD and Q symmetric PD.  Because only the
input-output behaviour matters for identification, Q is eliminated with its
lower Cholesky factor V (Q = V V^T) through the change of variables
w = V^T x, giving the reduced model

    dw/dt = (J' - R') w + B' u,   w(0) = V^T x_hat,
    y     = B'^T w,

where J' = V^T J V stays skew and R' = V^T R V stays PSD (congruence).  The
reduced Hamiltonian is H(w) = |w|^2 / 2.

Two integrators on a uniform grid are provided:

* explicit Euler, which is what the identification machinery differentiates,
* an implicit midpoint rule derived from the discrete-gradient form of the
  dynamics, which reproduces the power balance
  H(w_{j+1}) - H(w_j) = h * (-g^T R g + y^T u) exactly per step
  (g the midpoint state), i.e. it dissipates and routes energy exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DivergenceError, InvalidModelError
from .matrices import (
    PSDMatrix,
    SPDMatrix,
    SkewSymmetricMatrix,
    _frozen_vector,
)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_j = j * h, j = 0..steps, with h = t_end / steps."""

    t_end: float
    steps: int

    def __post_init__(self):
        if not (np.isfinite(self.t_end) and self.t_end > 0):
            raise DimensionMismatchError("t_end must be positive and finite")
        if int(self.steps) != self.steps or self.steps < 1:
            raise DimensionMismatchError("steps must be an integer >= 1")
        object.__setattr__(self, "t_end", float(self.t_end))
        object.__setattr__(self, "steps", int(self.steps))

    @property
    def h(self) -> float:
        return self.t_end / self.steps

    @property
    def num_nodes(self) -> int:
        return self.steps + 1

    def times(self) -> np.ndarray:
        return np.arange(self.num_nodes) * self.h


@dataclass(frozen=True)
class Signal:
    """Sampled multi-port signal: one row of ``values`` per grid node."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 2:
            raise DimensionMismatchError(f"signal values must be 2-D, got shape {v.shape}")
        if v.shape[0] != self.grid.num_nodes:
            raise DimensionMismatchError(
                f"signal has {v.shape[0]} rows but the grid has {self.grid.num_nodes} nodes"
            )
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def k(self) -> int:
        return self.values.shape[1]

    @classmethod
    def zeros(cls, grid: TimeGrid, k: int) -> "Signal":
        return cls(grid, np.zeros((grid.num_nodes, k)))


@dataclass(frozen=True)
class Trajectory:
    """Sampled state trajectory: one row of ``states`` per grid node."""

    grid: TimeGrid
    states: np.ndarray

    def __post_init__(self):
        s = np.array(self.states, dtype=float)
        if s.ndim != 2:
            raise DimensionMismatchError(f"states must be 2-D, got shape {s.shape}")
        if s.shape[0] != self.grid.num_nodes:
            raise DimensionMismatchError(
                f"trajectory has {s.shape[0]} rows but the grid has {self.grid.num_nodes} nodes"
            )
        s.flags.writeable = False
        object.__setattr__(self, "states", s)

    @property
    def n(self) -> int:
        return self.states.shape[1]


def _check_ports(b, n_expected, name="B") -> np.ndarray:
    b = np.array(b, dtype=float)
    if b.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D (n x k), got shape {b.shape}")
    if b.shape[0] != n_expected:
        raise DimensionMismatchError(
            f"{name} has {b.shape[0]} rows, expected state dimension {n_expected}"
        )
    if b.shape[1] < 1:
        raise DimensionMismatchError("number of ports k must be >= 1")
    if not np.all(np.isfinite(b)):
        raise InvalidModelError(f"{name} contains non-finite entries")
    b.flags.writeable = False
    return b


@dataclass(frozen=True)
class PHSystem:
    """Full port-Hamiltonian model (J, R, Q, B, x_hat)."""

    J: SkewSymmetricMatrix
    R: PSDMatrix
    Q: SPDMatrix
    B: np.ndarray
    x_hat: np.ndarray

    def __post_init__(self):
        n = self.J.n
        if self.R.n != n or self.Q.n != n:
            raise DimensionMismatchError("J, R, Q must share the same dimension")
        object.__setattr__(self, "B", _check_ports(self.B, n))
        x0 = _frozen_vector(self.x_hat, "x_hat")
        if x0.shape[0] != n:
            raise DimensionMismatchError(f"x_hat has length {x0.shape[0]}, expected {n}")
        object.__setattr__(self, "x_hat", x0)

    @property
    def n(self) -> int:
        return self.J.n

    @property
    def k(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class ReducedPHSystem:
    """Q-eliminated port-Hamiltonian model (J, R, B, w_hat) with H(w) = |w|^2/2."""

    J: SkewSymmetricMatrix
    R: PSDMatrix
    B: np.ndarray
    w_hat: np.ndarray

    def __post_init__(self):
        n = self.J.n
        if self.R.n != n:
            raise DimensionMismatchError("J and R must share the same dimension")
        object.__setattr__(self, "B", _check_ports(self.B, n))
        w0 = _frozen_vector(self.w_hat, "w_hat")
        if w0.shape[0] != n:
            raise DimensionMismatchError(f"w_hat has length {w0.shape[0]}, expected {n}")
        object.__setattr__(self, "w_hat", w0)

    @property
    def n(self) -> int:
        return self.J.n

    @property
    def k(self) -> int:
        return self.B.shape[1]

    def drift(self) -> np.ndarray:
        """The state matrix J - R of the reduced dynamics."""
        return self.J.array - self.R.array


def cholesky_reduce(sys: PHSystem) -> ReducedPHSystem:
    """Eliminate Q via its Cholesky factor V (Q = V V^T).

    Returns (V^T J V, V^T R V, V^T B, V^T x_hat).  The congruence transform
    preserves skewness and semidefiniteness; both blocks are re-canonicalized
    through their triangular representations so the invariants are exact.
    The input-output map of the reduced system equals that of the original.
    """
    v = sys.Q.cholesky_factor
    j_red = SkewSymmetricMatrix.from_matrix(v.T @ sys.J.array @ v)
    r_red = PSDMatrix.from_matrix(v.T @ sys.R.array @ v)
    return ReducedPHSystem(j_red, r_red, v.T @ sys.B, v.T @ sys.x_hat)


def _euler_states(a: np.ndarray, b: np.ndarray, w0: np.ndarray,
                  u_values: np.ndarray, h: float) -> np.ndarray:
    """Explicit Euler recursion w_{j+1} = w_j + h*(a w_j + b u_j), for one drift or a stack.

    One drift ``a`` (n, n) with ``w0`` (n,) gives states (K+1, n); a stack of
    m drifts (m, n, n) with initial states (m, n) gives (K+1, m, n).  Every
    stack element goes through the same matrix-vector product and addition
    as a single drift, and the forcing h B u_j is formed once per step for
    the whole stack, so each element's states equal its own sweep bit for
    bit.  A stack of one steps as a plain vector, like a single drift.

    A single drift raises DivergenceError with the first offending step
    index if the state leaves the finite range.  A stack is returned as it
    is: the elements that diverged hold non-finite states.
    """
    steps = u_values.shape[0] - 1
    stacked = a.ndim == 3
    n = a.shape[-1]
    propagator = np.eye(n) + h * a
    hb = h * b
    if not stacked or a.shape[0] == 1:
        states = np.empty((steps + 1, n))
        states[0] = w0.reshape(n)
        propagator = propagator.reshape(n, n)
        rows, step, force, inputs = states, np.empty(n), np.empty(n), u_values
    else:
        # (n, 1) columns, so that the stacked product is a gemv per element
        states = np.empty((steps + 1, a.shape[0], n, 1))
        states[0, :, :, 0] = w0
        rows, step, force = states, np.empty(states.shape[1:]), np.empty((n, 1))
        inputs = u_values[:, :, None]
    matmul, add = np.matmul, np.add
    with np.errstate(over="ignore", invalid="ignore"):
        for cur, nxt, u_j in zip(rows[:-1], rows[1:], inputs):
            matmul(propagator, cur, out=step)
            matmul(hb, u_j, out=force)
            add(step, force, out=nxt)
    if stacked:
        return states.reshape(steps + 1, a.shape[0], n)
    bad = _first_nonfinite_row(states)
    if bad is not None:
        raise DivergenceError(bad, "explicit Euler")
    return states


def _first_nonfinite_row(states: np.ndarray):
    """Index of the first row of ``states`` with a non-finite entry, or None."""
    finite = np.isfinite(states).all(axis=1)
    if finite.all():
        return None
    return int(np.argmin(finite))


def simulate_euler(sys: ReducedPHSystem, u: Signal) -> Trajectory:
    """Integrate the reduced dynamics with explicit Euler on the grid of ``u``.

    The input is sampled at the left endpoint of each step, matching the
    evaluation point of the scheme.
    """
    if u.k != sys.k:
        raise DimensionMismatchError(
            f"input has {u.k} ports but the system expects {sys.k}"
        )
    states = _euler_states(sys.drift(), sys.B, sys.w_hat, u.values, u.grid.h)
    return Trajectory(u.grid, states)


def output(sys: ReducedPHSystem, traj: Trajectory) -> Signal:
    """Node-wise output y_j = B^T w_j."""
    if traj.n != sys.n:
        raise DimensionMismatchError(
            f"trajectory dimension {traj.n} does not match system dimension {sys.n}"
        )
    return Signal(traj.grid, traj.states @ sys.B)


def simulate_discrete_gradient(sys: ReducedPHSystem, u: Signal) -> Trajectory:
    """Integrate with the discrete-gradient (implicit midpoint) scheme.

    For the quadratic reduced Hamiltonian the discrete gradient is the
    midpoint state, so each step solves the linear system

        (I - h/2 (J-R)) w_{j+1} = (I + h/2 (J-R)) w_j + h B u_{j+1}.

    The step matrix I + h/2 R - h/2 J has the positive definite symmetric part
    I + h/2 R, hence is always invertible.  The input is sampled at the right
    endpoint, as the discrete-gradient form of the dynamics prescribes.
    """
    if u.k != sys.k:
        raise DimensionMismatchError(
            f"input has {u.k} ports but the system expects {sys.k}"
        )
    h = u.grid.h
    a = sys.drift()
    n = sys.n
    m_minus = np.eye(n) - 0.5 * h * a
    m_plus = np.eye(n) + 0.5 * h * a
    propagator = np.linalg.solve(m_minus, m_plus)
    source = np.linalg.solve(m_minus, h * sys.B)
    steps = u.grid.steps
    states = np.empty((steps + 1, n))
    states[0] = sys.w_hat
    w = sys.w_hat
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(steps):
            w = propagator @ w + source @ u.values[j + 1]
            states[j + 1] = w
    bad = _first_nonfinite_row(states)
    if bad is not None:
        raise DivergenceError(bad, "discrete-gradient scheme")
    return Trajectory(u.grid, states)


def hamiltonian(traj: Trajectory) -> np.ndarray:
    """Reduced-coordinate energy H(w_j) = |w_j|^2 / 2 at every node."""
    return 0.5 * np.sum(traj.states * traj.states, axis=1)


def midpoint_output(sys: ReducedPHSystem, traj: Trajectory) -> Signal:
    """Output in the discrete-gradient convention, y_{j+1} = B^T (w_j + w_{j+1}) / 2.

    The node-0 value is the instantaneous output B^T w_0 (the degenerate-step
    limit of the discrete gradient).
    """
    if traj.n != sys.n:
        raise DimensionMismatchError(
            f"trajectory dimension {traj.n} does not match system dimension {sys.n}"
        )
    w = traj.states
    values = np.empty((w.shape[0], sys.k))
    values[0] = w[0] @ sys.B
    values[1:] = (0.5 * (w[:-1] + w[1:])) @ sys.B
    return Signal(traj.grid, values)


def energy_balance_residual(sys: ReducedPHSystem, traj: Trajectory, u: Signal) -> np.ndarray:
    """Per-step deviation from the discrete power balance.

    residual_j = [H(w_{j+1}) - H(w_j)] - h * (-g_j^T R g_j + y_{j+1}^T u_{j+1})

    with g_j = (w_j + w_{j+1})/2 and y_{j+1} = B^T g_j.  For trajectories
    produced by :func:`simulate_discrete_gradient` the residual is zero up to
    round-off; for explicit Euler it measures the O(h^2) per-step energy
    defect.
    """
    if traj.n != sys.n:
        raise DimensionMismatchError(
            f"trajectory dimension {traj.n} does not match system dimension {sys.n}"
        )
    if u.k != sys.k or u.grid != traj.grid:
        raise DimensionMismatchError("input signal does not match the trajectory grid/ports")
    h = traj.grid.h
    w = traj.states
    g = 0.5 * (w[:-1] + w[1:])
    energy = 0.5 * np.sum(w * w, axis=1)
    dissipated = np.sum((g @ sys.R.array) * g, axis=1)
    supplied = np.sum((g @ sys.B) * u.values[1:], axis=1)
    return (energy[1:] - energy[:-1]) - h * (-dissipated + supplied)
