from pathlib import Path

import numpy as np
import pytest

import phsid as p
from phsid.systems import _CHUNK_VALUES, _MIN_BLOCKS, _block_length

FIXTURES = Path(__file__).parent / "fixtures"


def blocked_end(n, steps):
    """Rows 1 .. blocked_end of a K = ``steps`` scan at dimension ``n`` come
    from the blocked scan, the rest from the per-step loop; 0 where the whole
    scan steps."""
    m = _block_length(n)
    if not m or steps < _MIN_BLOCKS * m:
        return 0
    return steps // m * m


def scan_levels(n, steps):
    """How many levels of a K = ``steps`` scan at dimension ``n`` block, in
    its first chunk: the steps, then the block starts of each level that
    blocked, each level holding at most a chunk of blocks."""
    m = _block_length(n)
    if not m:
        return 0
    chunk_blocks = max(1, _CHUNK_VALUES // (m * n))
    levels, rows = 0, steps
    while rows >= _MIN_BLOCKS * m:
        levels += 1
        rows = min(rows // m, chunk_blocks)
    return levels


def philox(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def oscillator_system() -> p.ReducedPHSystem:
    """Damped two-dimensional oscillator used throughout the test suite."""
    return p.ReducedPHSystem(
        p.SkewSymmetricMatrix.from_matrix([[0.0, 1.0], [-1.0, 0.0]]),
        p.PSDMatrix.from_matrix([[0.5, 0.0], [0.0, 0.3]]),
        np.array([[1.0], [1.0]]),
        np.array([1.0, 2.0]),
    )


def oscillator_guess() -> p.ParameterPoint:
    """Slightly detuned starting point for calibrating the oscillator."""
    return p.ParameterPoint(
        p.SkewSymmetricMatrix.from_matrix([[0.0, 1.2], [-1.2, 0.0]]),
        p.PSDMatrix.from_matrix([[0.4, 0.0], [0.0, 0.4]]),
        np.array([1.1, 1.95]),
    )


def diverging_system() -> p.ReducedPHSystem:
    """Lossless model with J = [[0, 1e200], [-1e200, 0]]: its explicit Euler
    state is finite at step 1 (about 1e199) and overflows at step 2."""
    return p.ReducedPHSystem(
        p.SkewSymmetricMatrix.from_matrix([[0.0, 1e200], [-1e200, 0.0]]),
        p.PSDMatrix.zeros(2),
        np.array([[1.0], [1.0]]),
        np.array([1.0, 2.0]),
    )


def random_skew(rng, n) -> p.SkewSymmetricMatrix:
    return p.SkewSymmetricMatrix.from_strict_lower(rng.normal(size=(n, n)))


def random_psd(rng, n, scale=1.0) -> p.PSDMatrix:
    g = rng.normal(size=(n, n))
    return p.PSDMatrix.from_matrix(scale * (g @ g.T) / n)


def random_spd(rng, n) -> p.SPDMatrix:
    g = rng.normal(size=(n, n))
    return p.SPDMatrix.from_matrix((g @ g.T) / n + 0.5 * np.eye(n))


def random_reduced_system(rng, n, k) -> p.ReducedPHSystem:
    return p.ReducedPHSystem(
        random_skew(rng, n),
        random_psd(rng, n),
        rng.normal(size=(n, k)),
        rng.normal(size=n),
    )


def random_signal(rng, grid, k) -> p.Signal:
    return p.Signal(grid, rng.normal(size=(grid.num_nodes, k)))


@pytest.fixture
def oscillator():
    return oscillator_system()


@pytest.fixture
def guess_point():
    return oscillator_guess()
