from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import phsid as p

FIXTURES = Path(__file__).parent / "fixtures"


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


def result_bits(res):
    """Every field of a CalibrationResult, floats as their bytes."""
    def bits(value):
        if isinstance(value, p.ParameterPoint):
            return tuple(a.tobytes() for a in (value.J.array, value.R.array, value.w_hat))
        if isinstance(value, p.Signal):
            return value.grid, value.values.tobytes()
        if isinstance(value, tuple):
            return tuple(bits(x) for x in value)
        if isinstance(value, float):
            return np.float64(value).tobytes()
        return value
    return {f.name: bits(getattr(res, f.name)) for f in fields(p.CalibrationResult)}


@pytest.fixture
def oscillator():
    return oscillator_system()


@pytest.fixture
def guess_point():
    return oscillator_guess()
