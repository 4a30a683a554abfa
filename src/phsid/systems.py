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

Both are the affine recurrence w_{j+1} = P w_j + S v_j: P = I + h(J-R),
S = h B and v_j = u_j for Euler, P = M^{-1} N, S = M^{-1} h B and
v_j = u_{j+1} for the midpoint rule (M = I - h/2 (J-R), N = I + h/2 (J-R)).
Both run through one shell, :func:`_integrate`: it allocates the state
buffer, writes the forcing S v_j of every step into it with one batched
matmul and hands it to :func:`_affine_scan`, the one step kernel, which the
backward sweep of the adjoint gradient shares.  The kernel is a blocked
scan: it advances a block of m steps with a gemm, and it scans the block
starts, the same recurrence with propagator P^m, the same way one level
down, so that only the last level of block starts steps.  Its states
differ from the per-step loop ``P @ w + S @ v_j`` by rounding, at most
1.3e-13 of max|w| in the measurements; the per-step loop itself runs for
short K, over the K mod m tail steps and where the blocked states leave
the finite range.  One :func:`_check_finite` raises DivergenceError at the
first non-finite state, for either scheme, at the step the per-step loop
reaches.
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


# The blocked scan advances m = _BLOCK_WIDTH // n steps per block, so each
# block operator is about 64 x 64; blocks shorter than 3 steps do not pay,
# nor do fewer than _MIN_BLOCKS of them.  It holds the forcing of
# _CHUNK_VALUES // (m n) blocks of each stack element at a time; at n <= 21
# such a chunk has enough block starts (>= 256 at n = 8) for the recursive
# scan of the block starts to block again.  Its temporaries are about two
# chunks per element plus the levels' operators, whatever K.
_BLOCK_WIDTH = 64
_MIN_BLOCKS = 4
_CHUNK_VALUES = 1 << 14


def _block_length(n: int) -> int:
    """Steps per block of the blocked scan at state dimension ``n``, or 0
    where the scan runs stepwise."""
    m = _BLOCK_WIDTH // n
    return m if m >= 3 else 0


def _step_scan(p: np.ndarray, rows: np.ndarray) -> None:
    """The per-step loop of :func:`_affine_scan`, with the same contract.

    Each step is two C calls, ``matmul(P, x_j)`` into a scratch row and its
    addition onto f_j, so every element's states equal the plain
    ``P @ x_j + f_j`` loop bit for bit.  A stack of one steps as a plain
    vector: the same gemv, with less per-call overhead than a stack of one
    column.
    """
    if rows.ndim == 4 and rows.shape[1] == 1:
        rows, p = rows[:, 0, :, 0], p.reshape(p.shape[-2:])
    step = np.empty(rows.shape[1:])
    matmul, add = np.matmul, np.add
    for cur, nxt in zip(rows[:-1], rows[1:]):
        matmul(p, cur, out=step)
        add(nxt, step, out=nxt)


def _powers(p: np.ndarray, m: int) -> np.ndarray:
    """P^0 .. P^m of each propagator of ``p`` (c, n, n), as (c, m+1, n, n),
    by doubling: one stacked matmul per power of two."""
    n = p.shape[-1]
    pw = np.empty((p.shape[0], m + 1, n, n))
    pw[:, 0] = np.eye(n)
    pw[:, 1] = p
    k = 1
    while k < m:
        top = min(2 * k, m)
        np.matmul(pw[:, 1:top - k + 1], pw[:, k:k + 1], out=pw[:, k + 1:top + 1])
        k = top
    return pw


def _toeplitz(pw: np.ndarray) -> np.ndarray:
    """Block lower-triangular Toeplitz operators (c, mn, mn) with block
    (i, l) = P^(i-l) for i >= l, from the powers (c, m+1, n, n)."""
    c, m, n = pw.shape[0], pw.shape[1] - 1, pw.shape[-1]
    # row a of padded: row a of P^(m-1), ..., P^0, then m-1 zero blocks
    padded = np.zeros((c, n, 2 * m - 1, n))
    padded[:, :, :m] = pw[:, m - 1::-1].transpose(0, 2, 1, 3)
    padded = padded.reshape(c, n, (2 * m - 1) * n)
    # operator row (i, a) is padded[a, (m-1-i)n : (2m-1-i)n]
    windows = np.lib.stride_tricks.sliding_window_view(padded, m * n, axis=2)[:, :, ::-n]
    return np.ascontiguousarray(windows.transpose(0, 2, 1, 3)).reshape(c, m * n, m * n)


class _ScanLevel:
    """One level of the blocked scan: the operators for a propagator P
    (n, n), or one per stack element (c, n, n), with blocks of m steps, and
    the scan that applies them to every chunk.

    ``op_t`` is the transposed block-Toeplitz operator of P^0 .. P^(m-1),
    ``powers_t`` maps a row state x_s to P^1 x_s .. P^m x_s, ``p_m`` is P^m
    in the shape of P, and ``finite`` says per element whether the powers
    are finite.  ``inner`` is the level of the block starts, whose
    propagator is P^m; it is built on first use, so one call of
    :func:`_affine_scan` builds each level once.  ``op_t`` is dropped once
    no chunk needs it.
    """

    def __init__(self, p: np.ndarray, m: int):
        n = p.shape[-1]
        with np.errstate(over="ignore", invalid="ignore"):
            pw = _powers(p.reshape(-1, n, n), m)
            self.finite = np.isfinite(pw).all(axis=(1, 2, 3))
            self.op_t = _toeplitz(pw).swapaxes(1, 2)
        # (c, n, mn): a row state times it gives P^1 x_s .. P^m x_s
        self.powers_t = pw[:, 1:].transpose(0, 3, 1, 2).reshape(-1, n, m * n)
        self.p, self.m = p, m
        self.p_m = pw[:, m] if p.ndim == 3 else pw[0, m]
        self.inner: _ScanLevel | None = None

    def scan(self, rows: np.ndarray, final: bool = True) -> None:
        """:func:`_affine_scan` over ``rows`` of at least ``_MIN_BLOCKS`` blocks.

        ``final`` says that the level will not scan again: it then drops
        ``op_t`` once its last chunk has used it, so that the next level's
        operators can take that memory instead of fresh pages.  Without
        that, ``calibrate`` on two n = 8 models, whose candidate stacks are
        scanned in one chunk, took 5% longer (1 BLAS thread).
        """
        p, m = self.p, self.m
        n = p.shape[-1]
        end = (rows.shape[0] - 1) // m * m
        x = rows[..., 0] if rows.ndim == 4 else rows[:, None]  # (K+1, count, n)
        count = x.shape[1]
        chunk = max(1, _CHUNK_VALUES // (m * n)) * m
        shared = p.ndim == 2
        live = self.finite & np.ones(count, dtype=bool)
        restart = np.zeros(count, dtype=int)  # where a dead element's rescan starts
        # z_{s,i}: the forcing's share of x_{s+i}, one buffer for every chunk
        z_all = np.empty((count, min(chunk, end) // m, m * n))
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, end, chunk):
                if not live.any():
                    break
                blocks = (min(lo + chunk, end) - lo) // m
                group = max(1, _CHUNK_VALUES // (blocks * m * n))
                groups = ([slice(g, g + group) for g in range(0, count, group)]
                          if count > group else [slice(None)])
                dest = x[lo + 1:lo + 1 + blocks * m].reshape(blocks, m, count, n)
                z = z_all[:, :blocks]
                for els in groups:  # each group's copied forcing is freed at once
                    np.matmul(dest[:, :, els].transpose(2, 0, 1, 3).reshape(-1, blocks, m * n),
                              self.op_t if shared else self.op_t[els], out=z[els])
                last = final and lo + chunk >= end
                if last:
                    self.op_t = None
                starts = np.empty((blocks + 1, count, n, 1))
                starts[0, :, :, 0] = x[lo]
                starts[1:, :, :, 0] = z.reshape(count, blocks, m, n)[:, :, -1].swapaxes(0, 1)
                # x_{s+m} = P^m x_s + z_{s,m}, blocked again where the starts are long enough
                if blocks < _MIN_BLOCKS * m:
                    _step_scan(self.p_m, starts)
                else:
                    if self.inner is None:
                        self.inner = _ScanLevel(self.p_m, m)
                    self.inner.scan(starts, last)
                starts_t = np.ascontiguousarray(starts[:-1, :, :, 0].swapaxes(0, 1))
                for els in groups:
                    z[els] += np.matmul(starts_t[els],
                                        self.powers_t if shared else self.powers_t[els])
                states = z.reshape(count, blocks, m, n)
                # store the block ends that the next blocks were advanced from
                states[:, :, -1] = starts[1:, :, :, 0].swapaxes(0, 1)
                ok = live & np.isfinite(states).all(axis=(1, 2, 3))
                if ok.all():
                    dest[...] = states.transpose(1, 2, 0, 3)
                else:
                    dest[:, :, ok] = states[ok].transpose(1, 2, 0, 3)
                    restart[live & ~ok] = lo
                    live &= ok
        for lo in sorted(set(restart[~live].tolist())):
            # these elements still hold their forcing from row lo + 1 on
            idx = np.flatnonzero(~live & (restart == lo))
            sub = x[lo:end + 1, idx][..., None]
            _step_scan(p if shared else p[idx], sub)
            x[lo + 1:end + 1, idx] = sub[1:, :, :, 0]
        _step_scan(p, rows[end:])


def _affine_scan(p: np.ndarray, rows: np.ndarray) -> None:
    """Run the affine recurrence x_{j+1} = P x_j + f_j in place over ``rows``.

    On entry ``rows[0]`` holds x_0 and ``rows[j+1]`` the forcing f_j; on
    return ``rows[j]`` holds x_j.  Rows are (n,) vectors with P (n, n), or
    (c, n, 1) stacks of columns with one shared P (n, n) or one per element
    (c, n, n).

    The scan is blocked, the chunked form of a linear-recurrence prefix
    scan, and recursive.  Within a block of m = :func:`_block_length` steps
    from x_s,

        x_{s+i} = P^i x_s + sum_{l<i} P^(i-1-l) f_{s+l},   i = 1 .. m.

    For a chunk of blocks, one gemm applies the block-Toeplitz operator of
    P^0 .. P^(m-1) to their forcing, giving the sums z.  The block starts
    follow the affine recurrence x_{s+m} = P^m x_s + z_{s,m}, which the
    next level (a :class:`_ScanLevel` with P^m) scans the same way: a level
    blocks again while it has at least ``_MIN_BLOCKS`` blocks, and the last
    level steps.  One more gemm fills in the states inside the blocks from
    the block starts and P^1 .. P^m.  Each level's operators are built once
    per call and reused by every chunk.  A stack applies one operator per
    element by batched matmul, in the shapes of a single sweep, so each
    element's states equal its own sweep bit for bit.  The blocked states
    differ from the per-step loop by rounding, at most 1.3e-13 of max|x| in
    the measurements.

    Memory beyond ``rows``: z, one buffer of a chunk of every stack
    element, at most ``_CHUNK_VALUES`` values each and never more than the
    rows themselves (as large as ``rows`` where K n is below
    ``_CHUNK_VALUES``); the copied forcing and the fill-in products, formed
    a group of elements at a time within ``_CHUNK_VALUES`` values; and each
    level's operators, about (m n)^2 values per element.  The state buffer
    dominates only where K n is well above ``_CHUNK_VALUES``.

    :func:`_step_scan`, the per-step loop, runs instead where K is shorter
    than ``_MIN_BLOCKS`` blocks and over the last K mod m steps.  It also
    runs, element by element, from the first chunk whose blocked states
    are not finite, or from x_0 where a power of P is not finite: a
    chunk's forcing stays in ``rows`` until its states are written back,
    so the rescan reaches the same first non-finite step as the per-step
    loop.  Where a level of block starts overflows, its rescan leaves the
    starts non-finite, so the level above rescans those elements with P.
    Overflow in the blocked stages is ignored; overflow in the per-step
    loop is left to the caller's error state.
    """
    m = _block_length(p.shape[-1])
    if not m or rows.shape[0] - 1 < _MIN_BLOCKS * m:
        _step_scan(p, rows)
    else:
        _ScanLevel(p, m).scan(rows)


def _integrate(p: np.ndarray, s: np.ndarray, w0: np.ndarray,
               inputs: np.ndarray) -> np.ndarray:
    """States of the recurrence w_{j+1} = P w_j + S v_j, v_j = ``inputs[j]``.

    One propagator ``p`` (n, n) with ``w0`` (n,) gives states (K+1, n); a
    stack of m propagators (m, n, n) with initial states (m, n) gives
    (K+1, m, n).  The forcing S v_j of every step is written into rows 1..
    of the state buffer by one batched matmul (the same gemv per step as a
    single product) and copied across the stack, and :func:`_affine_scan`
    then runs the recurrence over it in place: a blocked scan, within
    rounding of the per-step loop, where each stack element's states equal
    its own sweep bit for bit.  Non-finite states are returned as they are.
    """
    steps, n = inputs.shape[0], p.shape[-1]
    stacked = p.ndim == 3
    count = p.shape[0] if stacked else 1
    # (n, 1) columns, so that the stacked product is a gemv per element
    states = np.empty((steps + 1, count, n, 1))
    states[0, :, :, 0] = w0
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(s, inputs[:, :, None], out=states[1:, 0])
        states[1:, 1:] = states[1:, :1]  # one input drives every element
        _affine_scan(p, states)
    return states.reshape((steps + 1, count, n) if stacked else (steps + 1, n))


def _check_finite(states: np.ndarray, scheme: str) -> None:
    """Raise DivergenceError naming the first row of ``states`` with a non-finite entry."""
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        raise DivergenceError(int(np.argmin(finite)), scheme)


def _euler_states(a: np.ndarray, b: np.ndarray, w0: np.ndarray,
                  u_values: np.ndarray, h: float) -> np.ndarray:
    """Explicit Euler recursion w_{j+1} = w_j + h*(a w_j + b u_j), for one drift or a stack.

    :func:`_integrate` with P = I + h a and S = h b on u_0 .. u_{K-1}, for one
    drift ``a`` (n, n) or a stack of m drifts (m, n, n).  A single drift
    raises DivergenceError through :func:`_check_finite` at the first
    non-finite step; a stack is returned as it is, the elements that
    diverged holding non-finite states.
    """
    states = _integrate(np.eye(a.shape[-1]) + h * a, h * b, w0, u_values[:-1])
    if a.ndim == 2:
        _check_finite(states, "explicit Euler")
    return states


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
    m_minus = np.eye(sys.n) - 0.5 * h * a
    m_plus = np.eye(sys.n) + 0.5 * h * a
    states = _integrate(np.linalg.solve(m_minus, m_plus), np.linalg.solve(m_minus, h * sys.B),
                        sys.w_hat, u.values[1:])
    _check_finite(states, "discrete-gradient scheme")
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
