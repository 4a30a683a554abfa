"""Reference computations made apart from phsid, and the checks built on them.

Trajectories are replayed with ``scipy.signal.dlsim``, CSV files are parsed
with numpy's ``loadtxt``, the input noise is redrawn from its documented
recipe (Philox-4x64 keyed with the seed, Box-Muller), and gradients are
compared with central differences of the replayed cost.  Nothing here calls
phsid, so a fault in phsid cannot hide in a check.  scipy is imported only
when the first check runs, after the benchmark has read its peak memory.
"""

from __future__ import annotations

import numpy as np

REPLAY_RTOL = 1e-12   # dlsim replays; measured bit-identical for n in {2, 8}
COST_RTOL = 1e-9      # cost recomputed from a replay, in another summation order
BALANCE_RTOL = 1e-13  # discrete power balance, relative to max H
LAMBDA_MIN = -1e-12   # smallest admissible eigenvalue of an identified R


class CheckFailed(Exception):
    pass


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def rel_err(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    require(a.shape == b.shape, f"shape {a.shape} != {b.shape}")
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


def read_csv(path) -> np.ndarray:
    """Values of a grid CSV below its header.  numpy's parser reads the
    17-significant-digit floats phsid writes back to the same bits."""
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise CheckFailed(f"{path}: {exc}") from None


def read_history(path) -> np.ndarray:
    """The cost column of a history CSV (its first row has no step size)."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        try:
            return np.array([float(line.split(",")[1]) for line in fh if line.strip()])
        except (ValueError, IndexError) as exc:
            raise CheckFailed(f"{path}: {exc}") from None


def grid_times(steps: int, t_end: float) -> np.ndarray:
    return np.arange(steps + 1) * (t_end / steps)


def noisy_input(seed: int, nodes: int, k: int, mean=1.0, std=0.1) -> np.ndarray:
    """u = mean + std * z, z from Philox-4x64 keyed with ``seed`` and Box-Muller."""
    count = nodes * k
    pairs = (count + 1) // 2
    draws = np.random.Generator(np.random.Philox(key=seed)).random((pairs, 2))
    radius = np.sqrt(-2.0 * np.log(1.0 - draws[:, 0]))
    angle = 2.0 * np.pi * draws[:, 1]
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return mean + std * z[:count].reshape(nodes, k)


def _dlsim(a, b, c, u, x0, h):
    from scipy.signal import dlsim

    d = np.zeros((c.shape[0], b.shape[1]))
    _, y, x = dlsim((a, b, c, d, h), u, x0=x0)
    return x, y


def euler_replay(drift, b, w0, u, h):
    """States and outputs of w_{j+1} = (I + hA) w_j + hB u_j, y_j = B^T w_j."""
    n = drift.shape[0]
    return _dlsim(np.eye(n) + h * drift, h * b, b.T, u, w0, h)


def midpoint_replay(drift, b, w0, u, h):
    """States of M- w_{j+1} = M+ w_j + hB u_{j+1}, M+- = I +- h/2 A."""
    n = drift.shape[0]
    m_minus = np.eye(n) - 0.5 * h * drift
    m_plus = np.eye(n) + 0.5 * h * drift
    shifted = np.vstack([u[1:], np.zeros((1, u.shape[1]))])
    x, _ = _dlsim(np.linalg.solve(m_minus, m_plus), np.linalg.solve(m_minus, h * b),
                  b.T, shifted, w0, h)
    return x


def midpoint_y(w, b):
    y = np.empty((w.shape[0], b.shape[1]))
    y[0] = w[0] @ b
    y[1:] = (0.5 * (w[:-1] + w[1:])) @ b
    return y


def mismatch_cost(y, y_data, h) -> float:
    r = y[:-1] - y_data[:-1]
    return 0.5 * h * float(np.sum(r * r))


def power_balance(w, u, y_mid, r, h) -> tuple[np.ndarray, np.ndarray]:
    """Energy H_j = |w_j|^2/2 and the per-step residual of
    H_{j+1} - H_j = h (-g^T R g + y_{j+1}^T u_{j+1}), g the midpoint state."""
    energy = 0.5 * np.sum(w * w, axis=1)
    g = 0.5 * (w[:-1] + w[1:])
    dissipated = np.sum((g @ r) * g, axis=1)
    supplied = np.sum(y_mid[1:] * u[1:], axis=1)
    return energy, (energy[1:] - energy[:-1]) - h * (supplied - dissipated)


def check_structure(j, r, history, eps_stop, diagonal_r=False) -> None:
    """Properties every identified model must have."""
    require(np.array_equal(j.T, -j) and not np.any(np.diag(j)), "J is not exactly skew")
    require(np.linalg.eigvalsh(r)[0] >= LAMBDA_MIN, "R has a negative eigenvalue")
    history = np.asarray(history)
    require(np.all(np.diff(history) < 0), "cost history is not strictly decreasing")
    require(history[-1] <= eps_stop, f"final cost {history[-1]:.3e} > eps_stop {eps_stop:g}")
    if diagonal_r:
        require(np.array_equal(r, np.diag(np.diag(r))), "diagonal_R result has off-diagonals")


def check_oscillator_bands(j, w_hat) -> None:
    """Acceptance criterion 1's recovery bands for the full-R oscillator."""
    require(0.9 <= abs(j[0, 1]) <= 1.2, f"|J12| = {abs(j[0, 1]):.3f} outside [0.9, 1.2]")
    require(np.linalg.norm(np.asarray(w_hat) - [1.0, 2.0]) <= 0.15, "w_hat outside 0.15 of (1, 2)")


def check_fit(j, r, b, w_hat, u, y_data, h, y_opt, final_cost) -> None:
    """Replay the identified model; its output and cost must match phsid's."""
    _, y = euler_replay(j - r, b, w_hat, u, h)
    err = rel_err(y_opt, y)
    require(err <= REPLAY_RTOL, f"y_opt differs from the replay by {err:.2e}")
    cost = mismatch_cost(y, y_data, h)
    require(abs(final_cost - cost) <= COST_RTOL * cost,
            f"final cost {final_cost!r} != replayed {cost!r}")


def check_long_horizon(scheme, j, r, b, w_hat, u, h, states) -> None:
    """A long simulation against its replay; a midpoint one also against
    its power balance."""
    if scheme == "euler":
        ref, _ = euler_replay(j - r, b, w_hat, u, h)
    else:
        ref = midpoint_replay(j - r, b, w_hat, u, h)
    err = rel_err(states, ref)
    require(err <= REPLAY_RTOL, f"{scheme} states differ from the replay by {err:.2e}")
    if scheme == "midpoint":
        energy, residual = power_balance(states, u, midpoint_y(states, b), r, h)
        require(np.abs(residual).max() <= BALANCE_RTOL * energy.max(), "power balance violated")


def _direction(label: str, n: int):
    """(dJ, dR, dx) of a basis label such as ``J[2,0]``, ``R[1,1]``, ``x[3]``."""
    block, index = label[0], [int(i) for i in label[2:-1].split(",")]
    dj, dr, dx = np.zeros((n, n)), np.zeros((n, n)), np.zeros(n)
    if block == "J":
        dj[index[0], index[1]], dj[index[1], index[0]] = 1.0, -1.0
    elif block == "R":
        dr[index[0], index[1]] = dr[index[1], index[0]] = 1.0
    else:
        dx[index[0]] = 1.0
    return dj, dr, dx


def check_gradient(j, r, b, w_hat, u, y_data, h, labels, coefficients, eps=1e-6) -> float:
    """Central differences of the replayed cost along every labelled
    direction; returns the largest deviation relative to max |gradient|."""
    def cost(jj, rr, ww):
        _, y = euler_replay(jj - rr, b, ww, u, h)
        return mismatch_cost(y, y_data, h)

    fd = np.empty(len(labels))
    for i, label in enumerate(labels):
        dj, dr, dx = _direction(label, len(w_hat))
        fd[i] = (cost(j + eps * dj, r + eps * dr, w_hat + eps * dx)
                 - cost(j - eps * dj, r - eps * dr, w_hat - eps * dx)) / (2 * eps)
    dev = float(np.abs(fd - coefficients).max() / np.abs(fd).max())
    require(dev <= 1e-6, f"gradient differs from central differences by {dev:.2e}")
    return dev
