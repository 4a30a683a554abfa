import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phsid as p
import phsid.sensitivity as sensitivity
from conftest import (
    oscillator_guess,
    oscillator_system,
    philox,
    random_psd,
    random_reduced_system,
    random_signal,
)


class TestTangentBasis:
    def test_two_dimensional_full_listing(self):
        basis = p.tangent_basis(2, "full")
        assert len(basis) == 6
        d = basis.directions
        # one skew pair, +1 below the diagonal
        np.testing.assert_array_equal(d[0].h_J.array, [[0.0, -1.0], [1.0, 0.0]])
        # unit diagonal symmetric directions, then the off-diagonal pair
        np.testing.assert_array_equal(d[1].h_R.array, [[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(d[2].h_R.array, [[0.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(d[3].h_R.array, [[0.0, 1.0], [1.0, 0.0]])
        # coordinate vectors for the initial state
        np.testing.assert_array_equal(d[4].h_x, [1.0, 0.0])
        np.testing.assert_array_equal(d[5].h_x, [0.0, 1.0])
        assert basis.labels == ("J[1,0]", "R[0,0]", "R[1,1]", "R[1,0]", "x[0]", "x[1]")

    def test_diagonal_restriction_drops_offdiagonal(self):
        basis = p.tangent_basis(2, "diagonal_R")
        assert len(basis) == 5
        assert all("R[1,0]" != lab for lab in basis.labels)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_cardinality(self, n):
        assert len(p.tangent_basis(n, "full")) == n * n + n
        assert len(p.tangent_basis(n, "diagonal_R")) == n * (n - 1) // 2 + 2 * n

    def test_directions_are_pure(self):
        for basis in (p.tangent_basis(4, "full"), p.tangent_basis(3, "diagonal_R")):
            for d in basis:
                assert len(d.nonzero_blocks()) == 1

    def test_unknown_structure_rejected(self):
        with pytest.raises(ValueError):
            p.tangent_basis(2, "sparse")


class TestSolveSensitivity:
    def test_initial_state_direction_with_zero_dynamics(self):
        grid = p.TimeGrid(1.0, 15)
        sys = p.ReducedPHSystem(
            p.SkewSymmetricMatrix.zeros(2), p.PSDMatrix.zeros(2),
            np.zeros((2, 1)), np.array([0.5, -0.5]))
        traj = p.simulate_euler(sys, p.Signal.zeros(grid, 1))
        direction = p.tangent_basis(2, "full").directions[4]  # x[0]
        sens = p.solve_sensitivity(sys, traj, direction, grid)
        assert np.all(sens.states == [1.0, 0.0])

    def test_interconnection_direction_with_zero_state(self):
        grid = p.TimeGrid(1.0, 15)
        sys = p.ReducedPHSystem(
            p.SkewSymmetricMatrix.from_matrix([[0.0, 1.0], [-1.0, 0.0]]),
            p.PSDMatrix.zeros(2), np.zeros((2, 1)), np.zeros(2))
        traj = p.simulate_euler(sys, p.Signal.zeros(grid, 1))
        direction = p.tangent_basis(2, "full").directions[0]  # the skew pair
        sens = p.solve_sensitivity(sys, traj, direction, grid)
        assert np.all(sens.states == 0.0)

    def test_matches_state_map_finite_differences(self):
        # central differences of an independently coded Euler state map
        def euler_map(j_arr, r_arr, b, w0, u_values, h):
            w = np.array(w0, dtype=float)
            out = [w.copy()]
            for i in range(len(u_values) - 1):
                w = w + h * ((j_arr - r_arr) @ w + b @ u_values[i])
                out.append(w.copy())
            return np.array(out)

        sys = oscillator_system()
        grid = p.TimeGrid(1.0, 400)
        u = p.generate_input(grid, 1, p.NoiseSpec(seed=2))
        traj = p.simulate_euler(sys, u)
        eps = 1e-6
        for direction in p.tangent_basis(2, "full"):
            sens = p.solve_sensitivity(sys, traj, direction, grid)
            s_plus = euler_map(
                sys.J.array + eps * direction.h_J.array,
                sys.R.array + eps * direction.h_R.array,
                sys.B, sys.w_hat + eps * direction.h_x, u.values, grid.h)
            s_minus = euler_map(
                sys.J.array - eps * direction.h_J.array,
                sys.R.array - eps * direction.h_R.array,
                sys.B, sys.w_hat - eps * direction.h_x, u.values, grid.h)
            fd = (s_plus - s_minus) / (2 * eps)
            scale = max(1.0, np.abs(fd).max())
            assert np.abs(sens.states - fd).max() <= 1e-5 * scale

    def test_linearity_in_the_direction(self):
        rng = philox(31)
        sys = random_reduced_system(rng, 3, 2)
        grid = p.TimeGrid(1.0, 200)
        u = random_signal(rng, grid, 2)
        traj = p.simulate_euler(sys, u)
        basis = p.tangent_basis(3, "full")
        for direction in basis.directions[:5]:
            scaled = p.TangentDirection(
                p.SkewSymmetricMatrix.from_matrix(3.0 * direction.h_J.array),
                p.SymmetricMatrix.from_matrix(3.0 * direction.h_R.array),
                3.0 * direction.h_x)
            s1 = p.solve_sensitivity(sys, traj, direction, grid).states
            s3 = p.solve_sensitivity(sys, traj, scaled, grid).states
            np.testing.assert_allclose(s3, 3.0 * s1, rtol=0,
                                       atol=1e-12 * max(1.0, np.abs(s1).max()))

    def test_mixed_direction_rejected(self, oscillator):
        grid = p.TimeGrid(1.0, 10)
        traj = p.simulate_euler(oscillator, p.Signal.zeros(grid, 1))
        mixed = p.TangentDirection(
            p.SkewSymmetricMatrix.from_matrix([[0.0, -1.0], [1.0, 0.0]]),
            p.SymmetricMatrix.diagonal([1.0, 0.0]),
            np.zeros(2))
        with pytest.raises(p.UnsupportedDirectionError):
            p.solve_sensitivity(oscillator, traj, mixed, grid)

    def test_zero_direction_rejected(self, oscillator):
        grid = p.TimeGrid(1.0, 10)
        traj = p.simulate_euler(oscillator, p.Signal.zeros(grid, 1))
        zero = p.TangentDirection(
            p.SkewSymmetricMatrix.zeros(2), p.SymmetricMatrix.zeros(2), np.zeros(2))
        with pytest.raises(p.UnsupportedDirectionError):
            p.solve_sensitivity(oscillator, traj, zero, grid)


class TestDirectionalDerivative:
    def test_zero_residual_gives_exact_zero(self, oscillator):
        grid = p.TimeGrid(1.0, 100)
        u = p.generate_input(grid, 1, p.NoiseSpec(seed=4))
        traj = p.simulate_euler(oscillator, u)
        y_data = p.output(oscillator, traj)
        for direction in p.tangent_basis(2, "full"):
            sens = p.solve_sensitivity(oscillator, traj, direction, grid)
            assert p.directional_derivative(oscillator, traj, sens, y_data) == 0.0

    def test_zero_sensitivity_gives_zero(self, oscillator):
        grid = p.TimeGrid(1.0, 50)
        u = p.generate_input(grid, 1, p.NoiseSpec(seed=4))
        traj = p.simulate_euler(oscillator, u)
        y_data = p.Signal(grid, traj.states @ oscillator.B + 1.0)
        zero_sens = p.Trajectory(grid, np.zeros_like(traj.states))
        assert p.directional_derivative(oscillator, traj, zero_sens, y_data) == 0.0

    def test_matches_cost_finite_differences(self):
        sys = oscillator_system()
        guess = oscillator_guess()
        grid = p.TimeGrid(1.0, 1000)
        u, y_data = p.generate_reference(sys, grid, p.NoiseSpec(seed=1))
        sys_guess = guess.to_system(sys.B)
        traj = p.simulate_euler(sys_guess, u)
        basis = p.tangent_basis(2, "full")
        fd = p.finite_difference_gradient(guess, sys.B, u, y_data, basis, eps=1e-6)
        for direction, reference in zip(basis, fd):
            sens = p.solve_sensitivity(sys_guess, traj, direction, grid)
            value = p.directional_derivative(sys_guess, traj, sens, y_data)
            assert abs(value - reference) <= 1e-4 * max(abs(value), abs(reference))

    def test_grid_mismatch_rejected(self, oscillator):
        grid = p.TimeGrid(1.0, 10)
        other = p.TimeGrid(1.0, 20)
        traj = p.simulate_euler(oscillator, p.Signal.zeros(grid, 1))
        sens = p.Trajectory(grid, np.zeros((11, 2)))
        with pytest.raises(p.DimensionMismatchError):
            p.directional_derivative(oscillator, traj, sens, p.Signal.zeros(other, 1))


class TestAssembleGradient:
    def test_zero_coefficients(self):
        basis = p.tangent_basis(2, "full")
        g = p.assemble_gradient(np.zeros(6), basis)
        assert np.all(g.value.h_J.array == 0.0)
        assert np.all(g.value.h_R.array == 0.0)
        assert np.all(g.value.h_x == 0.0)
        assert g.norm_sq == 0.0

    def test_single_basis_element(self):
        basis = p.tangent_basis(2, "full")
        g = p.assemble_gradient([1.0, 0.0, 0.0, 0.0, 0.0, 0.0], basis)
        np.testing.assert_array_equal(g.value.h_J.array, [[0.0, -1.0], [1.0, 0.0]])
        assert np.all(g.value.h_R.array == 0.0)

    def test_general_assembly_formula(self):
        basis = p.tangent_basis(2, "full")
        a, b1, b2, b3, c1, c2 = 0.7, -0.2, 0.4, 1.5, -3.0, 2.0
        g = p.assemble_gradient([a, b1, b2, b3, c1, c2], basis)
        np.testing.assert_array_equal(g.value.h_J.array, [[0.0, -a], [a, 0.0]])
        np.testing.assert_array_equal(g.value.h_R.array, [[b1, b3], [b3, b2]])
        np.testing.assert_array_equal(g.value.h_x, [c1, c2])

    def test_blocks_keep_exact_structure(self):
        rng = philox(32)
        for n in (2, 3, 4):
            basis = p.tangent_basis(n, "full")
            g = p.assemble_gradient(rng.normal(size=len(basis)), basis)
            assert np.array_equal(g.value.h_J.array.T, -g.value.h_J.array)
            assert np.array_equal(g.value.h_R.array.T, g.value.h_R.array)

    def test_count_mismatch_rejected(self):
        with pytest.raises(p.DimensionMismatchError):
            p.assemble_gradient([1.0, 2.0], p.tangent_basis(2, "full"))


class TestFiniteDifferenceGradient:
    def test_zero_at_perfect_fit(self):
        sys = oscillator_system()
        grid = p.TimeGrid(1.0, 300)
        u, y_data = p.generate_reference(sys, grid, p.NoiseSpec(seed=6))
        v = p.ParameterPoint(sys.J, sys.R, sys.w_hat)
        fd = p.finite_difference_gradient(v, sys.B, u, y_data, p.tangent_basis(2, "full"))
        assert np.abs(fd).max() <= 1e-8

    def test_scalar_recursion_analytic_derivative(self):
        # n = 1, R = [r], B = [1], u = 0: w_j = (1 - h r)^j w0 and
        # cost = h/2 * sum_{j<K} w_j^2, so the derivatives are
        #   d/dr  = h * sum w_j * (-j h (1-hr)^(j-1) w0)
        #   d/dw0 = h * sum w_j * (1-hr)^j
        r, w0, steps = 0.8, 1.3, 200
        grid = p.TimeGrid(1.0, steps)
        h = grid.h
        j = np.arange(steps)  # left-endpoint quadrature nodes
        w = (1 - h * r) ** j * w0
        d_r = h * np.sum(w * (-j * h * (1 - h * r) ** (j - 1) * w0))
        d_w0 = h * np.sum(w * (1 - h * r) ** j)

        v = p.ParameterPoint(
            p.SkewSymmetricMatrix.zeros(1),
            p.PSDMatrix.from_matrix([[r]]), np.array([w0]))
        b = np.array([[1.0]])
        u = p.Signal.zeros(grid, 1)
        y_data = p.Signal.zeros(grid, 1)
        basis = p.tangent_basis(1, "full")
        fd = p.finite_difference_gradient(v, b, u, y_data, basis, eps=1e-6)
        assert fd[0] == pytest.approx(d_r, rel=1e-7)
        assert fd[1] == pytest.approx(d_w0, rel=1e-7)

        # the sensitivity route agrees with the same hand derivative
        sys_v = v.to_system(b)
        traj = p.simulate_euler(sys_v, u)
        coeffs = p.sensitivity_coefficients(sys_v, traj, y_data, basis)
        assert coeffs[0] == pytest.approx(d_r, rel=1e-12)
        assert coeffs[1] == pytest.approx(d_w0, rel=1e-12)

    def test_probes_outside_psd_cone(self):
        # R = 0: the minus probe leaves the cone, central differences must still work
        grid = p.TimeGrid(1.0, 100)
        v = p.ParameterPoint(
            p.SkewSymmetricMatrix.zeros(1), p.PSDMatrix.zeros(1), np.array([1.0]))
        b = np.array([[1.0]])
        u = p.Signal.zeros(grid, 1)
        y_data = p.Signal(grid, np.full((101, 1), 2.0))
        fd = p.finite_difference_gradient(v, b, u, y_data, p.tangent_basis(1, "full"))
        assert np.all(np.isfinite(fd))

    def test_invalid_eps(self, oscillator):
        grid = p.TimeGrid(1.0, 10)
        v = p.ParameterPoint(oscillator.J, oscillator.R, oscillator.w_hat)
        with pytest.raises(ValueError):
            p.finite_difference_gradient(v, oscillator.B, p.Signal.zeros(grid, 1),
                                         p.Signal.zeros(grid, 1),
                                         p.tangent_basis(2, "full"), eps=0.0)


def _random_problem(seed, n, k, steps):
    """A random system, input and unrelated output data on a unit-time grid."""
    rng = philox(seed)
    sys = random_reduced_system(rng, n, k)
    grid = p.TimeGrid(1.0, steps)
    u = random_signal(rng, grid, k)
    y_data = random_signal(rng, grid, k)
    return sys, p.simulate_euler(sys, u), y_data


def _per_direction(sys, traj, y_data, basis):
    """The reference route: one sensitivity solve per basis direction."""
    return np.array([
        p.directional_derivative(sys, traj, p.solve_sensitivity(sys, traj, d, traj.grid), y_data)
        for d in basis
    ])


class TestStackedCoefficients:
    # derandomized so that every run of the suite draws the same examples
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 6), k=st.integers(1, 3), structure=st.sampled_from(p.STRUCTURES),
           steps=st.integers(1, 300), pass_bytes=st.integers(1, 1 << 16),
           seed=st.integers(0, 2**32 - 1))
    def test_bit_identical_to_per_direction_solves(self, n, k, structure, steps,
                                                   pass_bytes, seed):
        # a small pass bound splits the basis into several passes and leaves
        # a narrower last one
        sys, traj, y_data = _random_problem(seed, n, k, steps)
        basis = p.tangent_basis(n, structure)
        with mock.patch.object(sensitivity, "_PASS_BYTES", pass_bytes):
            stacked = p.sensitivity_coefficients(sys, traj, y_data, basis)
        assert np.array_equal(stacked, _per_direction(sys, traj, y_data, basis))

    def test_bit_identical_over_several_default_passes(self):
        sys, traj, y_data = _random_problem(41, 8, 2, 1000)
        basis = p.tangent_basis(8, "full")
        assert sensitivity._pass_width(1001, 8, len(basis)) == 16  # 72 directions, 5 passes
        assert sensitivity._pass_width(1001, 2, 6) == 6
        stacked = p.sensitivity_coefficients(sys, traj, y_data, basis)
        assert np.array_equal(stacked, _per_direction(sys, traj, y_data, basis))

    @settings(derandomize=True)
    @given(num_nodes=st.integers(2, 10**6), n=st.integers(1, 64), count=st.integers(1, 5000))
    def test_pass_buffer_within_bound(self, num_nodes, n, count):
        width = sensitivity._pass_width(num_nodes, n, count)
        assert 1 <= width <= count
        assert width == 1 or width * num_nodes * n * 8 <= sensitivity._PASS_BYTES

    def test_peak_memory_stays_near_the_pass_bound(self):
        # all 20 directions stacked at once would take 3.2 MB
        sys, traj, y_data = _random_problem(42, 4, 1, 5000)
        basis = p.tangent_basis(4, "full")
        tracemalloc.start()
        try:
            p.sensitivity_coefficients(sys, traj, y_data, basis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * sensitivity._PASS_BYTES

    def test_grid_mismatch_rejected(self, oscillator):
        traj = p.simulate_euler(oscillator, p.Signal.zeros(p.TimeGrid(1.0, 10), 1))
        with pytest.raises(p.DimensionMismatchError):
            p.sensitivity_coefficients(oscillator, traj, p.Signal.zeros(p.TimeGrid(1.0, 20), 1),
                                       p.tangent_basis(2, "full"))


class TestGradientAgreement:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(n=st.integers(1, 4), k=st.integers(1, 2), structure=st.sampled_from(p.STRUCTURES),
           steps=st.integers(180, 220), seed=st.integers(0, 2**32 - 1))
    def test_random_instances(self, n, k, structure, steps, seed):
        rng = philox(seed)
        sys_true = random_reduced_system(rng, n, k)
        grid = p.TimeGrid(1.0, steps)
        u = random_signal(rng, grid, k)
        y_data = p.output(sys_true, p.simulate_euler(sys_true, u))
        v = p.ParameterPoint(
            p.SkewSymmetricMatrix.from_strict_lower(
                sys_true.J.array + 0.2 * np.tril(rng.normal(size=(n, n)), -1)),
            random_psd(rng, n),
            sys_true.w_hat + 0.1 * rng.normal(size=n))
        sys_v = v.to_system(sys_true.B)
        traj = p.simulate_euler(sys_v, u)
        basis = p.tangent_basis(n, structure)
        sens = p.sensitivity_coefficients(sys_v, traj, y_data, basis)
        fd = p.finite_difference_gradient(v, sys_true.B, u, y_data, basis)
        for s, f in zip(sens, fd):
            assert p.coefficients_agree(s, f)
