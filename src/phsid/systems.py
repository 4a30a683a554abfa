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

A :class:`Signal` holds finite samples by type.  One check,
:func:`_check_parts`, ties the signals and trajectories every entry point
takes to its model: one grid, k ports per signal, n states per trajectory,
each error naming the argument.

Two integrators on a uniform grid are provided:

* explicit Euler, which is what the identification machinery differentiates,
* an implicit midpoint rule derived from the discrete-gradient form of the
  dynamics, which reproduces the power balance
  H(w_{j+1}) - H(w_j) = h * (-g^T R g + y^T u) exactly per step
  (g the midpoint state), i.e. it dissipates and routes energy exactly.

Both are the affine recurrence w_{j+1} = P w_j + S v_j: P = I + h(J-R),
S = h B and v_j = u_j for Euler, P = M^{-1} N, S = M^{-1} h B and
v_j = u_{j+1} for the midpoint rule (M = I - h/2 (J-R), N = I + h/2 (J-R)).
Both run through one kernel, :func:`_affine_scan`, which the backward
sweep of the adjoint gradient shares: it allocates the states,
element-major (m, K+1, n) for a stack of m models, and runs the recurrence
over them chunk by chunk.  The kernel is a block-Toeplitz scan, at every n
and K: one gemm of the inputs of each block of 8 steps by an operator built
from P and S gives the blocks' last states from a zero start, a
recursive-doubling scan with P^8 turns them into the blocks' start states,
and one more gemm writes every state.
Its states differ from the per-step loop ``P @ w + S @ v_j`` by rounding,
at most 4.1e-13 of max|w| in the measurements; the per-step loop itself
redoes exactly the chunks whose gemms left the finite range from a finite
start state, and nothing past them.  The kernel tests each chunk for
finiteness once and returns which elements stayed finite, so
:func:`_check_finite` reads the states again only where one did not; it
raises DivergenceError at the first non-finite state, for either scheme,
at the step the per-step loop reaches.
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
    _is_finite,
    _is_integer,
    _is_real,
)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_j = j * h, j = 0..steps, with h = t_end / steps."""

    t_end: float
    steps: int

    def __post_init__(self):
        if not (_is_real(self.t_end) and _is_finite(self.t_end) and self.t_end > 0):
            raise DimensionMismatchError("t_end must be positive and finite")
        if not (_is_integer(self.steps) and self.steps >= 1):
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
    """Sampled multi-port signal: one row of finite ``values`` per grid node."""

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
        if not np.isfinite(v).all():
            raise InvalidModelError("signal contains non-finite values")
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
    """Sampled state trajectory: one row of ``states`` per grid node.

    A float array passed as ``states`` is adopted, not copied, and made
    read-only in place; other input is converted to a new float array.
    """

    grid: TimeGrid
    states: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.states, dtype=float)
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


_BLOCK_TYPES = {"J": SkewSymmetricMatrix, "R": PSDMatrix, "Q": SPDMatrix}


def _check_blocks(**blocks) -> None:
    """Reject a J, R or Q block that is not a SkewSymmetricMatrix, a
    PSDMatrix or an SPDMatrix, and blocks of different dimensions."""
    for name, block in blocks.items():
        kind = _BLOCK_TYPES[name]
        if not isinstance(block, kind):
            raise InvalidModelError(f"{name} must be of type {kind.__name__}, "
                                    f"got {type(block).__name__}")
    if len({block.n for block in blocks.values()}) > 1:
        *names, last = blocks
        raise DimensionMismatchError(
            f"{', '.join(names)} and {last} must share the same dimension")


def _check_parts(sys: ReducedPHSystem, **parts) -> None:
    """Reject signals and trajectories that do not belong to ``sys``.

    Every part must lie on the first part's grid, a :class:`Signal` must
    have ``sys.k`` ports and a :class:`Trajectory` ``sys.n`` states; each
    error names the part's keyword.
    """
    first, lead = next(iter(parts.items()))
    for name, part in parts.items():
        if part.grid != lead.grid:
            raise DimensionMismatchError(f"{first} and {name} grids differ")
        if isinstance(part, Signal):
            if part.k != sys.k:
                raise DimensionMismatchError(
                    f"{name} has {part.k} ports but the system expects {sys.k}")
        elif part.n != sys.n:
            raise DimensionMismatchError(
                f"{name} dimension {part.n} does not match system dimension {sys.n}")


@dataclass(frozen=True)
class PHSystem:
    """Full port-Hamiltonian model (J, R, Q, B, x_hat)."""

    J: SkewSymmetricMatrix
    R: PSDMatrix
    Q: SPDMatrix
    B: np.ndarray
    x_hat: np.ndarray

    def __post_init__(self):
        _check_blocks(J=self.J, R=self.R, Q=self.Q)
        n = self.J.n
        object.__setattr__(self, "B", _check_ports(self.B, n))
        object.__setattr__(self, "x_hat", _frozen_vector(self.x_hat, "x_hat", n))

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
        _check_blocks(J=self.J, R=self.R)
        n = self.J.n
        object.__setattr__(self, "B", _check_ports(self.B, n))
        object.__setattr__(self, "w_hat", _frozen_vector(self.w_hat, "w_hat", n))

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


# The scan runs _CHUNK_VALUES // n steps of every stack element at a time,
# in blocks of _BLOCK steps, and holds each block's start and inputs beside
# the states.
_CHUNK_VALUES = 1 << 14
_BLOCK = 8


def _step_scan(p: np.ndarray, rows: np.ndarray) -> None:
    """The per-step loop x_{j+1} = P x_j + f_j, in place over time-major ``rows``.

    ``rows`` (K+1, n) with P (n, n), or (K+1, c, n, 1) stacks of columns
    with one P per element (c, n, n); on entry ``rows[0]`` holds x_0 and
    ``rows[j+1]`` the forcing f_j.  Each step is two C calls,
    ``matmul(P, x_j)`` into a scratch row and its addition onto f_j, so
    every element's states equal the plain ``P @ x_j + f_j`` loop bit for
    bit.  A stack of one steps as a plain vector: the same gemv, with less
    per-call overhead than a stack of one column.
    """
    if rows.ndim == 4 and rows.shape[1] == 1:
        rows, p = rows[:, 0, :, 0], p.reshape(p.shape[-2:])
    step = np.empty(rows.shape[1:])
    matmul, add = np.matmul, np.add
    for cur, nxt in zip(rows[:-1], rows[1:]):
        matmul(p, cur, out=step)
        add(nxt, step, out=nxt)


def _affine_scan(p: np.ndarray, s: np.ndarray, x0: np.ndarray,
                 inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """States of the recurrence x_{j+1} = P x_j + S v_j, v_j = ``inputs[j]``,
    and the mask of the elements whose states are all finite.

    One propagator ``p`` (n, n) with ``x0`` (n,) gives states (K+1, n) and a
    mask (1,); a stack (m, n, n) with initial states (m, n), or any that
    broadcast, gives element-major states (m, K+1, n) and a mask (m,).  One
    input drives every element.  Overflow is ignored throughout, and
    non-finite states are returned as they are.

    The scan is a block-Toeplitz scan (Blelloch 1990, Martin & Cundy 2018)
    over chunks of L = ``_CHUNK_VALUES // n`` steps in blocks of
    b = ``_BLOCK``.  In row form a block's states from a zero start are its
    b inputs, one row, times the operator T whose block (j, i) is
    (P^(i-j) S)^T for i >= j and zero below.  Where k > n the chunk's
    forcing ``inputs @ S^T`` is formed first, into its rows of the states,
    and T is built on S = I, so T has b min(k, n) rows.  Per chunk, one gemm
    by T's last block column gives each block's last state from a zero
    start; a recursive-doubling scan of those C = L/b rows, round d adding
    to each the row 2^d blocks earlier times P^(b 2^d), gives the blocks'
    start states; and one gemm of each block's row [start, inputs] by
    [(P^1)^T .. (P^b)^T] over T writes the chunk's states, whose last
    starts the next chunk: about 2n (n + b min(k, n)) flops per step, plus
    2n^2 log2(C) / b for the starts, in a few dozen calls per chunk, where
    the per-step loop makes 2n (n + k) in two calls per step.  The operator
    and the powers of P are built once per call, by doubling.  A stack
    applies one operator per element by batched matmul, in the shapes of a
    single sweep, so each element's states equal its own sweep bit for bit.
    The states differ from the per-step loop by rounding, at most 4.1e-13
    of max|x| in the measurements.  Memory beyond the states, per element:
    the chunk's [start, inputs] rows, at most 1.125 chunks; the starts and
    their products, a quarter chunk; and the operator.

    Each chunk is tested for finiteness once, after its gemms.  The
    per-step loop, :func:`_step_scan`, redoes exactly the chunks that left
    the finite range and whose start state was finite, on a time-major copy
    of those elements' rows built from the start state and the chunk's
    forcing, formed again by one gemm.  The copy, freed before the next
    chunk, is all an overflow adds to the memory, whatever K.  So a
    divergence shows at the step the per-step loop reaches, and the mask
    reads the redone states.  A chunk whose start state is already
    non-finite is left as the gemms left it: P x with a non-finite entry
    has no finite entry, so its states are non-finite under either loop.
    Every other chunk keeps the scan's bits.
    """
    stacked, p = p.ndim == 3, p.reshape(-1, *p.shape[-2:])
    count, steps, n = p.shape[0], inputs.shape[0], p.shape[-1]
    b, fold = _BLOCK, s.shape[1] > n
    k = n if fold else s.shape[1]
    x = np.empty((count, steps + 1, n))
    x[:, 0] = x0
    chunk = max(1, _CHUNK_VALUES // n)
    blocks = -(-min(chunk, steps) // b)
    finite = np.ones(count, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        op = np.zeros((count, n + b * k, b * n))  # [(P^1)^T .. (P^b)^T] over T
        powers, t = op[:, :n], op[:, n:].reshape(count, b, k, b * n)
        powers[:, :, :n] = p.swapaxes(-1, -2)
        t[:, 0, :, :n] = np.eye(n) if fold else s.T
        doublings = [1 << d for d in range(b.bit_length() - 1)]  # b a power of 2
        for j in doublings:  # blocks j..2j-1 from blocks 0..j-1
            np.matmul(powers[:, :, (j - 1) * n:j * n], powers[:, :, :j * n],
                      out=powers[:, :, j * n:2 * j * n])
        np.matmul(t[:, 0, :, :n], powers[:, :, :-n], out=t[:, 0, :, n:])
        for j in doublings:
            t[:, j:2 * j, :, j * n:] = t[:, :j, :, :-j * n]
        jumps = [powers[:, :, -n:]]  # (P^(b 2^d))^T
        while 1 << len(jumps) < blocks:
            jumps.append(jumps[-1] @ jumps[-1])
        rows = np.empty((count, blocks, n + b * k))  # per block: start, inputs
        starts, product = np.empty((2, blocks, count, n))  # time-major
        for lo in range(0, steps, chunk):
            length = min(chunk, steps - lo)
            full, tail = divmod(length, b)
            c = full + (tail > 0)
            y = x[:, lo:lo + length + 1]
            v = (np.matmul(inputs[lo:lo + length], s.T, out=y[0, 1:]) if fold
                 else inputs[lo:lo + length])
            rows[:, :full, n:] = v[:full * b].reshape(full, b * k)
            if tail:
                rows[:, full, n:] = 0.0
                rows[:, full, n:n + tail * k] = v[full * b:].reshape(-1)
            starts[0] = y[:, 0]
            np.matmul(rows[:, :c - 1, n:], op[:, n:, -n:], out=starts[1:c].swapaxes(0, 1))
            for d, jump in enumerate(jumps):
                shift = 1 << d
                if shift >= c:
                    break
                np.matmul(starts[:c - shift].swapaxes(0, 1), jump,
                          out=product[:c - shift].swapaxes(0, 1))
                starts[shift:c] += product[:c - shift]
            rows[:, :c, :n] = starts[:c].swapaxes(0, 1)
            np.matmul(rows[:, :full], op, out=y[:, 1:full * b + 1].reshape(count, full, b * n))
            if tail:
                np.matmul(rows[:, full:c], op[:, :, :tail * n],
                          out=y[:, full * b + 1:].reshape(count, 1, tail * n))
            ok = np.isfinite(y).all(axis=(1, 2))
            if ok.all():
                continue
            redo = np.flatnonzero(~ok & np.isfinite(y[:, 0]).all(axis=1))
            if redo.size:
                forcing = y[redo[0], 1:]  # rows that the redo overwrites
                np.matmul(inputs[lo:lo + length], s.T, out=forcing)
                sub = np.empty((length + 1, redo.size, n, 1))  # time-major
                sub[0, :, :, 0] = y[redo, 0]
                sub[1:, :, :, 0] = forcing[:, None]
                _step_scan(p[redo], sub)
                y[redo, 1:] = sub[1:, :, :, 0].swapaxes(0, 1)
                ok[redo] = np.isfinite(sub).all(axis=(0, 2, 3))
                del sub  # before the next chunk's gemms
            finite &= ok
    return (x if stacked else x[0]), finite


def _check_finite(states: np.ndarray, finite: np.ndarray, scheme: str) -> None:
    """Raise DivergenceError naming the first row of one sweep's ``states``
    with a non-finite entry, if the scan's mask ``finite`` says there is one."""
    if not finite[0]:
        raise DivergenceError(int(np.argmin(np.isfinite(states).all(axis=1))), scheme)


def _euler_states(a: np.ndarray, b: np.ndarray, w0: np.ndarray,
                  u_values: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Explicit Euler recursion w_{j+1} = w_j + h*(a w_j + b u_j), for one drift or a stack.

    :func:`_affine_scan` with P = I + h a and S = h b on u_0 .. u_{K-1}, for one
    drift ``a`` (n, n) or a stack of m drifts (m, n, n): the states as they
    are and the mask of the elements that stayed finite.  A caller that
    needs finite states passes both to :func:`_check_finite` with its own
    label.
    """
    return _affine_scan(np.eye(a.shape[-1]) + h * a, h * b, w0, u_values[:-1])


def simulate_euler(sys: ReducedPHSystem, u: Signal) -> Trajectory:
    """Integrate the reduced dynamics with explicit Euler on the grid of ``u``.

    The input is sampled at the left endpoint of each step, matching the
    evaluation point of the scheme.
    """
    _check_parts(sys, u=u)
    states, finite = _euler_states(sys.drift(), sys.B, sys.w_hat, u.values, u.grid.h)
    _check_finite(states, finite, "explicit Euler")
    return Trajectory(u.grid, states)


def output(sys: ReducedPHSystem, traj: Trajectory) -> Signal:
    """Node-wise output y_j = B^T w_j."""
    _check_parts(sys, traj=traj)
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
    _check_parts(sys, u=u)
    h = u.grid.h
    a = sys.drift()
    m_minus = np.eye(sys.n) - 0.5 * h * a
    m_plus = np.eye(sys.n) + 0.5 * h * a
    states, finite = _affine_scan(np.linalg.solve(m_minus, m_plus),
                                  np.linalg.solve(m_minus, h * sys.B), sys.w_hat, u.values[1:])
    _check_finite(states, finite, "discrete-gradient scheme")
    return Trajectory(u.grid, states)


def hamiltonian(traj: Trajectory) -> np.ndarray:
    """Reduced-coordinate energy H(w_j) = |w_j|^2 / 2 at every node."""
    return 0.5 * np.sum(traj.states * traj.states, axis=1)


def midpoint_output(sys: ReducedPHSystem, traj: Trajectory) -> Signal:
    """Output in the discrete-gradient convention, y_{j+1} = B^T (w_j + w_{j+1}) / 2.

    The node-0 value is the instantaneous output B^T w_0 (the degenerate-step
    limit of the discrete gradient).
    """
    _check_parts(sys, traj=traj)
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
    _check_parts(sys, traj=traj, u=u)
    h = traj.grid.h
    w = traj.states
    g = 0.5 * (w[:-1] + w[1:])
    energy = 0.5 * np.sum(w * w, axis=1)
    dissipated = np.sum((g @ sys.R.array) * g, axis=1)
    supplied = np.sum((g @ sys.B) * u.values[1:], axis=1)
    return (energy[1:] - energy[:-1]) - h * (-dissipated + supplied)
