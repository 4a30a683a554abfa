import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import phsid as p
from conftest import (
    oscillator_system,
    philox,
    random_psd,
    random_reduced_system,
    random_signal,
    random_skew,
)
from phsid.systems import _euler_states


def euler_oracle(a, b, w0, u_values, h):
    """Plain textbook Euler loop, written independently of the library kernel."""
    w = np.array(w0, dtype=float)
    out = [w.copy()]
    for j in range(len(u_values) - 1):
        w = w + h * (a @ w + b @ u_values[j])
        out.append(w.copy())
    return np.array(out)


class TestSimulateEuler:
    def test_zero_dynamics_keeps_state(self):
        grid = p.TimeGrid(1.0, 25)
        sys = p.ReducedPHSystem(
            p.SkewSymmetricMatrix.zeros(2), p.PSDMatrix.zeros(2),
            np.zeros((2, 1)), np.array([3.0, -1.0]))
        traj = p.simulate_euler(sys, p.Signal.zeros(grid, 1))
        assert np.all(traj.states == [3.0, -1.0])

    def test_scalar_decay_recursion(self):
        grid = p.TimeGrid(1.0, 10)  # h = 0.1
        sys = p.ReducedPHSystem(
            p.SkewSymmetricMatrix.zeros(1), p.PSDMatrix.from_matrix([[1.0]]),
            np.zeros((1, 1)), np.array([1.0]))
        traj = p.simulate_euler(sys, p.Signal.zeros(grid, 1))
        np.testing.assert_allclose(traj.states[1], [0.9], rtol=0, atol=1e-15)
        np.testing.assert_allclose(traj.states[2], [0.81], rtol=0, atol=1e-15)

    def test_matches_independent_loop(self, oscillator):
        grid = p.TimeGrid(1.0, 1000)
        u = p.generate_input(grid, 1, p.NoiseSpec(seed=5))
        traj = p.simulate_euler(oscillator, u)
        expected = euler_oracle(oscillator.drift(), oscillator.B,
                                oscillator.w_hat, u.values, grid.h)
        np.testing.assert_allclose(traj.states, expected, rtol=0, atol=1e-12)

    def test_output_shape_and_range(self, oscillator):
        grid = p.TimeGrid(1.0, 1000)
        u = p.generate_input(grid, 1, p.NoiseSpec(seed=5))
        y = p.output(oscillator, p.simulate_euler(oscillator, u))
        assert y.values.shape == (1001, 1)
        assert y.values[0, 0] == 3.0  # B^T w_hat with B = (1,1), w_hat = (1,2)
        # bounded oscillation, no blow-up on the unit horizon
        assert np.all(np.abs(y.values) < 4.0)

    def test_first_order_convergence(self):
        # smooth dissipative problem with no input; reference via matrix exponential
        sys = oscillator_system()
        a = sys.drift()
        exact = expm(a) @ sys.w_hat
        errors = []
        for steps in (200, 400, 800):
            grid = p.TimeGrid(1.0, steps)
            traj = p.simulate_euler(sys, p.Signal.zeros(grid, 1))
            errors.append(np.linalg.norm(traj.states[-1] - exact))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders >= 0.9)

    def test_divergence_reports_step(self):
        # dissipative ODE but unstable discretization: w' = -5w with h = 1
        # gives the propagator -4, so |w| grows fourfold per step
        grid = p.TimeGrid(400.0, 400)
        sys = p.ReducedPHSystem(
            p.SkewSymmetricMatrix.zeros(1), p.PSDMatrix.from_matrix([[5.0]]),
            np.zeros((1, 1)), np.array([1e300]))
        with pytest.raises(p.DivergenceError) as err:
            p.simulate_euler(sys, p.Signal.zeros(grid, 1))
        assert 0 < err.value.step < 20

    def test_port_count_mismatch(self, oscillator):
        grid = p.TimeGrid(1.0, 5)
        with pytest.raises(p.DimensionMismatchError):
            p.simulate_euler(oscillator, p.Signal.zeros(grid, 2))


def midpoint_oracle(a, b, w0, u_values, h):
    """Per-step linear solve, written independently of the library kernel."""
    n = len(w0)
    m_minus = np.eye(n) - 0.5 * h * a
    m_plus = np.eye(n) + 0.5 * h * a
    w = np.array(w0, dtype=float)
    out = [w.copy()]
    for j in range(len(u_values) - 1):
        w = np.linalg.solve(m_minus, m_plus @ w + h * b @ u_values[j + 1])
        out.append(w.copy())
    return np.array(out)


class TestStackedEuler:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 6), k=st.integers(1, 3), m=st.integers(1, 8),
           steps=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
    def test_each_element_equals_its_own_sweep(self, n, k, m, steps, seed):
        rng = philox(seed)
        drifts = np.stack([random_skew(rng, n).array - random_psd(rng, n).array
                           for _ in range(m)])
        b = rng.normal(size=(n, k))
        w0 = rng.normal(size=(m, n))
        u_values = rng.normal(size=(steps + 1, k))
        h = 1.0 / steps
        states = _euler_states(drifts, b, w0, u_values, h)
        assert states.shape == (steps + 1, m, n)
        for i in range(m):
            assert np.array_equal(states[:, i], _euler_states(drifts[i], b, w0[i], u_values, h))

    def test_diverged_element_is_returned_not_raised(self):
        grid = p.TimeGrid(1.0, 100)
        b = np.ones((2, 1))
        u_values = np.ones((grid.num_nodes, 1))
        drifts = np.stack([np.diag([-0.5, -0.3]), np.diag([1e6, 1e6]), np.diag([-0.1, -0.2])])
        w0 = np.array([[1.0, 2.0], [1.0, 1.0], [0.5, 0.5]])
        states = _euler_states(drifts, b, w0, u_values, grid.h)
        assert not np.isfinite(states[:, 1]).all()
        with pytest.raises(p.DivergenceError):
            _euler_states(drifts[1], b, w0[1], u_values, grid.h)
        for i in (0, 2):
            single = _euler_states(drifts[i], b, w0[i], u_values, grid.h)
            assert np.array_equal(states[:, i], single)


class TestDiscreteGradient:
    def test_zero_dynamics_keeps_state_exactly(self):
        grid = p.TimeGrid(1.0, 30)
        sys = p.ReducedPHSystem(
            p.SkewSymmetricMatrix.zeros(2), p.PSDMatrix.zeros(2),
            np.zeros((2, 1)), np.array([1.5, -2.5]))
        traj = p.simulate_discrete_gradient(sys, p.Signal.zeros(grid, 1))
        assert np.all(traj.states == [1.5, -2.5])

    def test_matches_independent_solve_loop(self, oscillator):
        grid = p.TimeGrid(1.0, 500)
        u = p.generate_input(grid, 1, p.NoiseSpec(seed=9))
        traj = p.simulate_discrete_gradient(oscillator, u)
        expected = midpoint_oracle(oscillator.drift(), oscillator.B,
                                   oscillator.w_hat, u.values, grid.h)
        np.testing.assert_allclose(traj.states, expected, rtol=0, atol=1e-12)

    def test_skew_only_conserves_energy(self):
        rng = philox(21)
        grid = p.TimeGrid(1.0, 1000)
        sys = p.ReducedPHSystem(
            random_skew(rng, 3), p.PSDMatrix.zeros(3),
            np.zeros((3, 1)), rng.normal(size=3))
        traj = p.simulate_discrete_gradient(sys, p.Signal.zeros(grid, 1))
        energy = p.hamiltonian(traj)
        assert np.abs(energy - energy[0]).max() <= 1e-12 * max(1.0, energy[0])

    def test_differs_from_euler_by_order_h(self, oscillator):
        grid = p.TimeGrid(1.0, 1000)
        u = p.generate_input(grid, 1, p.NoiseSpec(seed=3))
        euler = p.simulate_euler(oscillator, u).states
        midpoint = p.simulate_discrete_gradient(oscillator, u).states
        gap = np.abs(euler - midpoint).max()
        assert 0.0 < gap < 50.0 * grid.h

    def test_dissipativity_without_input(self):
        rng = philox(22)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            sys = random_reduced_system(rng, n, 1)
            grid = p.TimeGrid(2.0, 400)
            traj = p.simulate_discrete_gradient(sys, p.Signal.zeros(grid, 1))
            energy = p.hamiltonian(traj)
            assert np.all(energy[1:] <= energy[:-1] + 1e-12)


class TestEnergyBalance:
    def test_midpoint_residual_is_roundoff(self):
        rng = philox(23)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(1, 3))
            sys = random_reduced_system(rng, n, k)
            grid = p.TimeGrid(1.0, 300)
            u = random_signal(rng, grid, k)
            traj = p.simulate_discrete_gradient(sys, u)
            res = p.energy_balance_residual(sys, traj, u)
            assert np.abs(res).max() <= 1e-10

    def test_euler_residual_is_second_order_per_step(self, oscillator):
        residual_max = {}
        for steps in (500, 1000):
            grid = p.TimeGrid(1.0, steps)
            u = p.generate_input(grid, 1, p.NoiseSpec(std=0.0, seed=0))
            traj = p.simulate_euler(oscillator, u)
            residual_max[steps] = np.abs(
                p.energy_balance_residual(oscillator, traj, u)).max()
        assert residual_max[1000] > 1e-10  # genuinely nonzero
        assert residual_max[1000] < 0.5 * residual_max[500]  # ~O(h^2): expect ~1/4

    def test_conservative_case_exact(self):
        rng = philox(24)
        grid = p.TimeGrid(1.0, 800)
        sys = p.ReducedPHSystem(
            random_skew(rng, 4), p.PSDMatrix.zeros(4),
            np.zeros((4, 1)), rng.normal(size=4))
        u = p.Signal.zeros(grid, 1)
        traj = p.simulate_discrete_gradient(sys, u)
        energy = p.hamiltonian(traj)
        assert abs(energy[-1] - energy[0]) <= 1e-10

    def test_grid_mismatch_rejected(self, oscillator):
        grid = p.TimeGrid(1.0, 10)
        other = p.TimeGrid(1.0, 11)
        u = p.Signal.zeros(grid, 1)
        traj = p.simulate_discrete_gradient(oscillator, u)
        with pytest.raises(p.DimensionMismatchError):
            p.energy_balance_residual(oscillator, traj, p.Signal.zeros(other, 1))
