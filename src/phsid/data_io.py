"""Synthetic data generation and file formats.

Random numbers
--------------
All randomized artifacts are pure functions of (seed, shape parameters).
The stream is produced by the counter-based Philox-4x64 bit generator keyed
directly with the 64-bit seed, and normal deviates come from the Box-Muller
transform:

    draw a (m, 2) block of doubles U in [0, 1),
    r_i     = sqrt(-2 * ln(1 - U[i, 0]))         # 1 - U in (0, 1]
    z_{2i}   = r_i * cos(2 * pi * U[i, 1])
    z_{2i+1} = r_i * sin(2 * pi * U[i, 1])

The deviates fill signal arrays row-major (node index slowest, port index
fastest); ports draw independently.  Both the generator and the transform
are fixed so golden files reproduce across platforms.

File formats
------------
Model (JSON): object with keys ``n``, ``k``, ``J`` (validated skew), ``R``
(validated symmetric PSD), optional ``Q`` (validated SPD, identity when
absent), ``B`` (n x k) and ``x_hat`` (length n).  Signals and trajectories
(CSV): header ``t,<name>_1,...,<name>_m``, one row per grid node, floats
written with 17 significant digits so a save/load round trip is bit-exact.
Loaders validate every structural invariant and reject violations with a
diagnostic naming the failed invariant and, for a bad row, its line in the
file (blank lines counted).

Signals, trajectories and the energy file go through one writer and one
reader that work a chunk of ``_CHUNK_ROWS`` rows at a time.  The writer
formats a chunk with a single ``%`` of a ``%.17g,...,%.17g\\n`` row format,
which gives the same bytes as formatting each value with ``.17g``.  The
reader checks each line's field count, joins and splits the chunk's lines
once and parses every field with ``float()``, so it accepts exactly the
strings a one-value-at-a-time parser accepts; on any failure it re-scans
the chunk line by line to name the first bad line.  Besides the values and
the file's lines (for reading), each holds one chunk's text and floats at a
time: writing a 100,001 x 3 table peaks under 2 MB of allocations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from itertools import repeat
from pathlib import Path

import numpy as np

from .calibration import CalibrationConfig, CalibrationResult
from .errors import DimensionMismatchError, MalformedFileError
from .matrices import PSDMatrix, SPDMatrix, SkewSymmetricMatrix, _is_finite, _is_integer, _is_real
from .systems import (
    PHSystem,
    ReducedPHSystem,
    Signal,
    TimeGrid,
    Trajectory,
    output,
    simulate_euler,
)

_MAX_SEED = 2**64


@dataclass(frozen=True)
class NoiseSpec:
    """Parameters of the noisy input samples u_j = mean + std * N(0, 1)."""

    mean: float = 1.0
    std: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name, value in (("mean", self.mean), ("std", self.std)):
            if not (_is_real(value) and _is_finite(value)):
                raise ValueError(f"{name} must be a finite real number")
        if not self.std >= 0:
            raise ValueError("std must be nonnegative")
        if not (_is_integer(self.seed) and 0 <= self.seed < _MAX_SEED):
            raise ValueError("seed must be an unsigned 64-bit integer")
        object.__setattr__(self, "seed", int(self.seed))


def standard_normals(seed: int, count: int) -> np.ndarray:
    """Deterministic standard-normal deviates (Philox-4x64 + Box-Muller)."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    gen = np.random.Generator(np.random.Philox(key=seed))
    pairs = (count + 1) // 2
    u = gen.random((pairs, 2))
    radius = np.sqrt(-2.0 * np.log(1.0 - u[:, 0]))
    angle = 2.0 * np.pi * u[:, 1]
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:count]


def generate_input(grid: TimeGrid, k: int, spec: NoiseSpec) -> Signal:
    """Noisy constant input, one independent draw per node and port."""
    if not (_is_integer(k) and k >= 1):
        raise DimensionMismatchError("number of ports k must be >= 1")
    k = int(k)
    z = standard_normals(spec.seed, grid.num_nodes * k).reshape(grid.num_nodes, k)
    return Signal(grid, spec.mean + spec.std * z)


def generate_reference(sys: ReducedPHSystem, grid: TimeGrid,
                       spec: NoiseSpec) -> tuple[Signal, Signal]:
    """Sample an input and the reference output it produces under explicit Euler."""
    u = generate_input(grid, sys.k, spec)
    y_data = output(sys, simulate_euler(sys, u))
    return u, y_data


# --------------------------------------------------------------------------
# model files

_MODEL_KEYS = ("n", "k", "J", "R", "Q", "B", "x_hat")


def _as_array(raw, name) -> np.ndarray:
    try:
        arr = np.array(raw, dtype=float)
    except (TypeError, ValueError):
        raise MalformedFileError(f"field {name!r} is not a numeric array") from None
    except OverflowError:
        raise MalformedFileError(f"field {name!r} has an entry too large for a float") from None
    if not np.all(np.isfinite(arr)):
        raise MalformedFileError(f"field {name!r} contains non-finite values")
    return arr


def _read_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MalformedFileError(f"cannot read {path}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedFileError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise MalformedFileError(f"{path}: expected a JSON object")
    return obj


def load_model(path) -> PHSystem:
    """Read and validate a model file; raises on any invariant violation."""
    obj = _read_json(path)
    unknown = set(obj) - set(_MODEL_KEYS)
    if unknown:
        raise MalformedFileError(f"unknown model fields: {sorted(unknown)}")
    missing = {"n", "k", "J", "R", "B", "x_hat"} - set(obj)
    if missing:
        raise MalformedFileError(f"missing model fields: {sorted(missing)}")
    if not (_is_integer(obj["n"]) and _is_integer(obj["k"])):
        raise MalformedFileError("fields 'n' and 'k' must be integers")
    n, k = int(obj["n"]), int(obj["k"])
    if n < 1 or k < 1:
        raise DimensionMismatchError("n and k must be >= 1")

    j_arr = _as_array(obj["J"], "J")
    r_arr = _as_array(obj["R"], "R")
    b_arr = _as_array(obj["B"], "B")
    x_arr = _as_array(obj["x_hat"], "x_hat")
    if j_arr.shape != (n, n):
        raise DimensionMismatchError(f"J must be {n} x {n}, got {j_arr.shape}")
    if r_arr.shape != (n, n):
        raise DimensionMismatchError(f"R must be {n} x {n}, got {r_arr.shape}")
    if b_arr.shape != (n, k):
        raise DimensionMismatchError(f"B must be {n} x {k}, got {b_arr.shape}")
    if x_arr.shape != (n,):
        raise DimensionMismatchError(f"x_hat must have length {n}, got {x_arr.shape}")

    j = SkewSymmetricMatrix.from_matrix(j_arr)
    r = PSDMatrix.from_matrix(r_arr)
    if "Q" in obj:
        q_arr = _as_array(obj["Q"], "Q")
        if q_arr.shape != (n, n):
            raise DimensionMismatchError(f"Q must be {n} x {n}, got {q_arr.shape}")
        q = SPDMatrix.from_matrix(q_arr)
    else:
        q = SPDMatrix.identity(n)
    return PHSystem(j, r, q, b_arr, x_arr)


def save_model(sys: PHSystem, path) -> None:
    obj = {
        "n": sys.n,
        "k": sys.k,
        "J": sys.J.array.tolist(),
        "R": sys.R.array.tolist(),
        "Q": sys.Q.array.tolist(),
        "B": sys.B.tolist(),
        "x_hat": sys.x_hat.tolist(),
    }
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


# --------------------------------------------------------------------------
# signal / trajectory files

# rows formatted or parsed per call: bounds the text held at once
_CHUNK_ROWS = 4096


def _write_grid_table(grid: TimeGrid, columns: np.ndarray, names, path) -> None:
    """Write the header ``t,<names>`` and one row per grid node, a chunk per format call."""
    times = grid.times()
    row_fmt = ",".join(["%.17g"] * (1 + columns.shape[1])) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["t", *names]) + "\n")
        for start in range(0, len(times), _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            block = np.column_stack([times[start:stop], columns[start:stop]])
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def _nonblank_line_numbers(physical: list[str]) -> list[int]:
    return [number for number, line in enumerate(physical, start=1) if line.strip()]


def _raise_row_error(path, block: list[str], numbers: list[int], width: int) -> None:
    """Raise the first line's error in ``block``, line by line, as a one-value parser would."""
    for lineno, line in zip(numbers, block):
        parts = line.split(",")
        if len(parts) != width:
            raise MalformedFileError(
                f"{path}:{lineno}: expected {width} fields, got {len(parts)}"
            )
        try:
            for part in parts:
                float(part)
        except ValueError:
            raise MalformedFileError(f"{path}:{lineno}: non-numeric field") from None


def _read_grid_table(path) -> tuple[TimeGrid, np.ndarray]:
    try:
        physical = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise MalformedFileError(f"cannot read {path}: {exc}") from None
    lines = [line for line in physical if line.strip()]
    if len(lines) < 3:
        raise MalformedFileError(f"{path}: need a header and at least two grid rows")
    header = lines[0].split(",")
    if header[0].strip() != "t" or len(header) < 2:
        raise MalformedFileError(f"{path}: header must be 't,<name>_1,...'")
    width = len(header)
    data = np.empty((len(lines) - 1, width))
    for start in range(1, len(lines), _CHUNK_ROWS):
        block = lines[start:start + _CHUNK_ROWS]
        try:
            # per line, not per chunk: a short row and a long row would cancel
            if set(map(str.count, block, repeat(","))) != {width - 1}:
                raise ValueError
            values = np.fromiter(map(float, ",".join(block).split(",")), float,
                                 len(block) * width)
        except ValueError:
            numbers = _nonblank_line_numbers(physical)[start:start + len(block)]
            _raise_row_error(path, block, numbers, width)
            raise
        data[start - 1:start - 1 + len(block)] = values.reshape(len(block), width)
    if not np.all(np.isfinite(data)):
        raise MalformedFileError(f"{path}: non-finite values")
    times = data[:, 0]
    steps = len(times) - 1
    t_end = times[-1]
    if not t_end > 0:
        raise MalformedFileError(f"{path}: final time must be positive")
    grid = TimeGrid(float(t_end), steps)
    if np.abs(times - grid.times()).max() > 1e-9 * grid.h:
        raise MalformedFileError(
            f"{path}: time column is not the uniform grid 0..t_end "
            f"(missing or corrupted rows?)"
        )
    return grid, data[:, 1:]


def _column_names(name: str, count: int) -> list[str]:
    return [f"{name}_{i + 1}" for i in range(count)]


def save_signal_csv(signal: Signal, path, name: str = "u") -> None:
    _write_grid_table(signal.grid, signal.values, _column_names(name, signal.k), path)


def load_signal_csv(path) -> Signal:
    grid, values = _read_grid_table(path)
    return Signal(grid, values)


def save_trajectory_csv(traj: Trajectory, path, name: str = "w") -> None:
    _write_grid_table(traj.grid, traj.states, _column_names(name, traj.n), path)


def load_trajectory_csv(path) -> Trajectory:
    grid, states = _read_grid_table(path)
    return Trajectory(grid, states)


def save_energy_csv(grid: TimeGrid, energy: np.ndarray, residual: np.ndarray, path) -> None:
    """Per-node energy and per-step balance residual as ``t,H,residual``.

    Row j+1 carries the residual of step j; row 0 has residual 0.
    """
    residual = np.concatenate(([0.0], residual))
    _write_grid_table(grid, np.column_stack([energy, residual]), ("H", "residual"), path)


# --------------------------------------------------------------------------
# calibration config / result files

def load_config(path) -> CalibrationConfig:
    obj = _read_json(path)
    unknown = set(obj) - {f.name for f in fields(CalibrationConfig)}
    if unknown:
        raise MalformedFileError(f"unknown config fields: {sorted(unknown)}")
    try:
        return CalibrationConfig(**obj)
    except (TypeError, ValueError) as exc:
        raise MalformedFileError(f"invalid config: {exc}") from None


def save_result(result: CalibrationResult, path) -> None:
    obj = {
        "J": result.v_opt.J.array.tolist(),
        "R": result.v_opt.R.array.tolist(),
        "x_hat": result.v_opt.w_hat.tolist(),
        "iterations": result.iterations,
        "converged": result.converged,
        "final_cost": result.final_cost,
    }
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def save_history_csv(result: CalibrationResult, path) -> None:
    """Cost evolution as ``iter,cost,sigma``; the initial row has no sigma."""
    lines = ["iter,cost,sigma", f"0,{result.cost_history[0]:.17g},"]
    for i, (c, s) in enumerate(zip(result.cost_history[1:], result.step_sizes), start=1):
        lines.append(f"{i},{c:.17g},{s:.17g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_history_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a history CSV back as (costs, sigmas); sigmas has one entry per step.

    Rows must count ``iter`` 0, 1, ... in order, every cost must be finite,
    row 0 must have an empty sigma and every later row a finite positive one,
    so that sigma i is the step that led from cost i-1 to cost i.
    """
    try:
        physical = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise MalformedFileError(f"cannot read {path}: {exc}") from None
    numbers = _nonblank_line_numbers(physical)
    if not numbers or physical[numbers[0] - 1].split(",") != ["iter", "cost", "sigma"]:
        raise MalformedFileError(f"{path}: expected header 'iter,cost,sigma'")
    if len(numbers) < 2:
        raise MalformedFileError(f"{path}: history is empty")
    costs = []
    sigmas = []
    for step, lineno in enumerate(numbers[1:]):
        parts = physical[lineno - 1].split(",")
        if len(parts) != 3:
            raise MalformedFileError(f"{path}:{lineno}: expected 3 fields")
        if parts[0] != str(step):
            raise MalformedFileError(
                f"{path}:{lineno}: expected iter {step}, got {parts[0]!r}"
            )
        if step == 0 and parts[2]:
            raise MalformedFileError(f"{path}:{lineno}: the initial row must have no sigma")
        try:
            costs.append(float(parts[1]))
            if step:
                sigmas.append(float(parts[2]))
        except ValueError:
            raise MalformedFileError(f"{path}:{lineno}: non-numeric field") from None
        if not np.isfinite(costs[-1]):
            raise MalformedFileError(f"{path}:{lineno}: cost must be finite")
        if step and not 0 < sigmas[-1] < np.inf:
            raise MalformedFileError(f"{path}:{lineno}: sigma must be finite and positive")
    return np.array(costs), np.array(sigmas)
