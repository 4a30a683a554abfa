import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phsid as p
import phsid.sensitivity as sensitivity
import phsid.systems as systems
from conftest import (
    diverging_system,
    oscillator_guess,
    oscillator_system,
    philox,
    random_psd,
    random_reduced_system,
    random_signal,
)


def dense(label, n):
    """The dense (h_J, h_R, h_x) a basis label stands for, built from the label
    alone: a +1/-1 skew pair, a symmetric pair or unit diagonal, a unit vector."""
    block, i, j = re.fullmatch(r"([JRx])\[(\d+)(?:,(\d+))?\]", label).groups()
    i, j = int(i), int(i if j is None else j)
    h_j, h_r, h_x = np.zeros((n, n)), np.zeros((n, n)), np.zeros(n)
    if block == "J":
        h_j[i, j], h_j[j, i] = 1.0, -1.0
    elif block == "R":
        h_r[i, j] = h_r[j, i] = 1.0
    else:
        h_x[i] = 1.0
    return h_j, h_r, h_x


class TestTangentBasis:
    def test_two_dimensional_full_listing(self):
        basis = p.tangent_basis(2, "full")
        assert len(basis) == 6
        # one skew pair (+1 below the diagonal), the unit diagonal symmetric
        # directions, then the off-diagonal pair, then the initial-state
        # coordinates
        assert basis.directions == (
            p.Direction("J", 1, 0), p.Direction("R", 0, 0), p.Direction("R", 1, 1),
            p.Direction("R", 1, 0), p.Direction("x", 0, 0), p.Direction("x", 1, 1))
        assert basis.labels == ("J[1,0]", "R[0,0]", "R[1,1]", "R[1,0]", "x[0]", "x[1]")
        # each basis element, assembled alone, is the dense pattern it names
        for k, d in enumerate(basis):
            g = p.assemble_gradient(np.eye(6)[k], basis)
            h_j, h_r, h_x = dense(d.label, 2)
            np.testing.assert_array_equal(g.h_J.array, h_j)
            np.testing.assert_array_equal(g.h_R.array, h_r)
            np.testing.assert_array_equal(g.h_x, h_x)

    def test_diagonal_restriction_drops_offdiagonal(self):
        basis = p.tangent_basis(2, "diagonal_R")
        assert len(basis) == 5
        assert all("R[1,0]" != lab for lab in basis.labels)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_cardinality(self, n):
        assert len(p.tangent_basis(n, "full")) == n * n + n
        assert len(p.tangent_basis(n, "diagonal_R")) == n * (n - 1) // 2 + 2 * n

    def test_directions_are_pure(self):
        # each basis element, assembled alone, has exactly one nonzero block
        for basis in (p.tangent_basis(4, "full"), p.tangent_basis(3, "diagonal_R")):
            for k in range(len(basis)):
                g = p.assemble_gradient(np.eye(len(basis))[k], basis)
                nonzero = [np.any(a != 0.0) for a in (g.h_J.array, g.h_R.array, g.h_x)]
                assert sum(nonzero) == 1

    def test_listing_order_for_larger_n(self):
        basis = p.tangent_basis(3, "full")
        assert basis.labels == (
            "J[1,0]", "J[2,0]", "J[2,1]", "R[0,0]", "R[1,1]", "R[2,2]",
            "R[1,0]", "R[2,0]", "R[2,1]", "x[0]", "x[1]", "x[2]")
        assert p.tangent_basis(3, "diagonal_R").labels == (
            "J[1,0]", "J[2,0]", "J[2,1]", "R[0,0]", "R[1,1]", "R[2,2]",
            "x[0]", "x[1]", "x[2]")

    @pytest.mark.parametrize("triple", [("J", 1, 1), ("J", 0, 1), ("R", 0, 1), ("x", 1, 0),
                                        ("R", 1, -1), ("Q", 0, 0)])
    def test_direction_outside_the_lower_triangle_rejected(self, triple):
        # a direction names one entry of one block, so a zero direction
        # (the skew diagonal) or a mixed one cannot be formed
        with pytest.raises(ValueError):
            p.Direction(*triple)

    @pytest.mark.parametrize("n", [0, -1, True, 1.5, np.nan, "2"])
    def test_dimension_must_be_an_integer_of_at_least_one(self, n):
        with pytest.raises(p.DimensionMismatchError, match="dimension must be >= 1"):
            p.tangent_basis(n)

    def test_integral_dimension_becomes_int(self):
        basis = p.tangent_basis(2.0)
        assert basis.n == 2 and type(basis.n) is int
        assert basis.directions == p.tangent_basis(np.int64(2)).directions

    def test_basis_direction_outside_dimension_rejected(self):
        with pytest.raises(p.DimensionMismatchError):
            p.BasisSet((p.Direction("x", 2, 2),), "full", 2)

    def test_repeated_basis_direction_rejected(self):
        # assemble_gradient writes each coefficient into its direction's entry,
        # so a repeated direction would keep only its last coefficient
        with pytest.raises(ValueError, match="^basis directions must be distinct$"):
            p.BasisSet((p.Direction("R", 0, 0), p.Direction("J", 1, 0),
                        p.Direction("R", 0, 0)), "full", 2)

    def test_basis_memory_is_linear_in_its_length(self):
        # the dense basis peaked at 9.2 MB here: 1056 pairs of 32 x 32 matrices
        tracemalloc.start()
        try:
            basis = p.tangent_basis(32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(basis) == 32 * 32 + 32
        assert peak <= 0.5e6

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
            h_j, h_r, h_x = dense(direction.label, 2)
            s_plus = euler_map(
                sys.J.array + eps * h_j, sys.R.array + eps * h_r,
                sys.B, sys.w_hat + eps * h_x, u.values, grid.h)
            s_minus = euler_map(
                sys.J.array - eps * h_j, sys.R.array - eps * h_r,
                sys.B, sys.w_hat - eps * h_x, u.values, grid.h)
            fd = (s_plus - s_minus) / (2 * eps)
            scale = max(1.0, np.abs(fd).max())
            assert np.abs(sens.states - fd).max() <= 1e-5 * scale

    def test_linearity_in_the_direction(self):
        # the sensitivity ODE along a dense combination sum_k a_k E_k of basis
        # elements, integrated directly, is the same combination of the
        # basis directions' solutions
        rng = philox(31)
        sys = random_reduced_system(rng, 3, 2)
        grid = p.TimeGrid(1.0, 200)
        u = random_signal(rng, grid, 2)
        traj = p.simulate_euler(sys, u)
        basis = p.tangent_basis(3, "full")
        propagator = np.eye(3) + grid.h * sys.drift()
        w = traj.states
        for a in ([3.0, 0, 0, 0, 0], [0, 0, 0, -2.5, 0], rng.normal(size=5)):
            parts = [dense(d.label, 3) for d in basis.directions[:5]]
            h_j, h_r, _ = (sum(c * x for c, x in zip(a, blk)) for blk in zip(*parts))
            s = np.zeros(3)
            combined = [s]
            for j in range(grid.steps):
                s = propagator @ s + grid.h * ((h_j - h_r) @ w[j])
                combined.append(s)
            solved = sum(c * p.solve_sensitivity(sys, traj, d, grid).states
                         for c, d in zip(a, basis.directions[:5]))
            np.testing.assert_allclose(np.array(combined), solved, rtol=0,
                                       atol=1e-12 * max(1.0, np.abs(solved).max()))

    def test_direction_outside_dimension_rejected(self, oscillator):
        grid = p.TimeGrid(1.0, 10)
        traj = p.simulate_euler(oscillator, p.Signal.zeros(grid, 1))
        for direction in (p.Direction("x", 2, 2), p.Direction("J", 2, 0)):
            with pytest.raises(p.DimensionMismatchError):
                p.solve_sensitivity(oscillator, traj, direction, grid)

    @pytest.mark.parametrize("steps, n, match", [
        (20, 2, "trajectory grid does not match"),
        (10, 3, "does not match system dimension"),
    ], ids=["grid", "dimension"])
    def test_mismatched_trajectory_rejected(self, oscillator, steps, n, match):
        traj = p.Trajectory(p.TimeGrid(1.0, steps), np.zeros((steps + 1, n)))
        with pytest.raises(p.DimensionMismatchError, match=match):
            p.solve_sensitivity(oscillator, traj, p.Direction("x", 0, 0), p.TimeGrid(1.0, 10))

    def test_unknown_block_rejected(self, oscillator):
        grid = p.TimeGrid(1.0, 10)
        traj = p.simulate_euler(oscillator, p.Signal.zeros(grid, 1))
        with pytest.raises(ValueError):
            p.solve_sensitivity(oscillator, traj, p.Direction("Q", 1, 0), grid)

    def test_zero_direction_rejected(self, oscillator):
        # ("J", i, i) would be the skew diagonal, which is zero
        grid = p.TimeGrid(1.0, 10)
        traj = p.simulate_euler(oscillator, p.Signal.zeros(grid, 1))
        with pytest.raises(ValueError):
            p.solve_sensitivity(oscillator, traj, p.Direction("J", 1, 1), grid)


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

    def test_port_mismatch_rejected(self, oscillator):
        grid = p.TimeGrid(1.0, 10)
        traj = p.simulate_euler(oscillator, p.Signal.zeros(grid, 1))
        with pytest.raises(p.DimensionMismatchError, match="data has 2 ports"):
            p.directional_derivative(oscillator, traj, traj, p.Signal.zeros(grid, 2))


class TestAssembleGradient:
    def test_zero_coefficients(self):
        basis = p.tangent_basis(2, "full")
        g = p.assemble_gradient(np.zeros(6), basis)
        assert np.all(g.h_J.array == 0.0)
        assert np.all(g.h_R.array == 0.0)
        assert np.all(g.h_x == 0.0)
        assert g.norm_sq == 0.0

    def test_single_basis_element(self):
        basis = p.tangent_basis(2, "full")
        g = p.assemble_gradient([1.0, 0.0, 0.0, 0.0, 0.0, 0.0], basis)
        np.testing.assert_array_equal(g.h_J.array, [[0.0, -1.0], [1.0, 0.0]])
        assert np.all(g.h_R.array == 0.0)

    def test_general_assembly_formula(self):
        basis = p.tangent_basis(2, "full")
        a, b1, b2, b3, c1, c2 = 0.7, -0.2, 0.4, 1.5, -3.0, 2.0
        g = p.assemble_gradient([a, b1, b2, b3, c1, c2], basis)
        np.testing.assert_array_equal(g.h_J.array, [[0.0, -a], [a, 0.0]])
        np.testing.assert_array_equal(g.h_R.array, [[b1, b3], [b3, b2]])
        np.testing.assert_array_equal(g.h_x, [c1, c2])

    def test_blocks_keep_exact_structure(self):
        rng = philox(32)
        for n in (2, 3, 4):
            basis = p.tangent_basis(n, "full")
            g = p.assemble_gradient(rng.normal(size=len(basis)), basis)
            assert np.array_equal(g.h_J.array.T, -g.h_J.array)
            assert np.array_equal(g.h_R.array.T, g.h_R.array)

    def test_count_mismatch_rejected(self):
        with pytest.raises(p.DimensionMismatchError):
            p.assemble_gradient([1.0, 2.0], p.tangent_basis(2, "full"))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 5), structure=st.sampled_from(p.STRUCTURES))
    def test_bytes_equal_the_dense_accumulation(self, data, n, structure):
        # the dense basis summed c * (its triangle) over every element: each
        # entry came to 0.0 + c, with -0.0 coefficients giving +0.0
        basis = p.tangent_basis(n, structure)
        coefficient = st.one_of(st.sampled_from([0.0, -0.0]),
                                st.floats(-1e300, 1e300, allow_nan=False))
        coeffs = np.array(data.draw(st.lists(coefficient, min_size=len(basis),
                                             max_size=len(basis))))
        lower_j, lower_r, h_x = np.zeros((n, n)), np.zeros((n, n)), np.zeros(n)
        for c, label in zip(coeffs, basis.labels):
            d_j, d_r, d_x = dense(label, n)
            lower_j += c * np.tril(d_j, -1)
            lower_r += c * np.tril(d_r)
            h_x += c * d_x
        g = p.assemble_gradient(coeffs, basis)
        assert g.h_J.array.tobytes() == p.SkewSymmetricMatrix.from_strict_lower(
            lower_j).array.tobytes()
        assert g.h_R.array.tobytes() == p.SymmetricMatrix.from_lower(lower_r).array.tobytes()
        assert g.h_x.tobytes() == h_x.tobytes()
        assert g.coefficients.tobytes() == coeffs.tobytes()


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
        for eps in (0.0, -1e-6, np.nan, np.inf):
            with pytest.raises(ValueError, match="eps must be positive and finite"):
                p.finite_difference_gradient(v, oscillator.B, p.Signal.zeros(grid, 1),
                                             p.Signal.zeros(grid, 1),
                                             p.tangent_basis(2, "full"), eps=eps)

    def test_probe_memory_is_independent_of_the_basis_length(self):
        # each probe's pattern comes from one reused unit vector; probes
        # built from np.eye(p) peak at about 9 MB at this size (p = 1056)
        sys, traj, y_data = _random_problem(3, 32, 1, 20)
        u = p.Signal(traj.grid, np.ones((21, 1)))
        v = p.ParameterPoint(sys.J, sys.R, sys.w_hat)
        basis = p.tangent_basis(32, "full")
        tracemalloc.start()
        try:
            p.finite_difference_gradient(v, sys.B, u, y_data, basis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_grid_mismatch_rejected(self, oscillator):
        v = p.ParameterPoint(oscillator.J, oscillator.R, oscillator.w_hat)
        with pytest.raises(p.DimensionMismatchError, match="^u and y_data grids differ$"):
            p.finite_difference_gradient(v, oscillator.B, p.Signal.zeros(p.TimeGrid(1.0, 10), 1),
                                         p.Signal.zeros(p.TimeGrid(1.0, 20), 1),
                                         p.tangent_basis(2, "full"))

    def test_basis_dimension_rejected(self, oscillator):
        # unchecked, the 1 x 1 pattern of tangent_basis(1) spreads over all
        # of J and R at this n = 2 point and two coefficients come back
        v = p.ParameterPoint(oscillator.J, oscillator.R, oscillator.w_hat)
        zeros = p.Signal.zeros(p.TimeGrid(1.0, 10), 1)
        with pytest.raises(p.DimensionMismatchError,
                           match="^system and basis dimensions differ$"):
            p.finite_difference_gradient(v, oscillator.B, zeros, zeros, p.tangent_basis(1))

    def test_divergence_names_the_probe(self):
        sys = diverging_system()
        v = p.ParameterPoint(sys.J, sys.R, sys.w_hat)
        zeros = p.Signal.zeros(p.TimeGrid(1.0, 10), 1)
        with pytest.raises(p.DivergenceError,
                           match=r"\(finite-difference probe along J\[1,0\]\)") as err:
            p.finite_difference_gradient(v, sys.B, zeros, zeros, p.tangent_basis(2, "full"))
        assert err.value.step == 2

    def test_cost_overflow_names_the_probe(self):
        # B = (1, 1e300): the states stay finite, but their outputs square
        # past the float range at every probe
        truth = oscillator_system()
        u, y_data = p.generate_reference(truth, p.TimeGrid(1.0, 1000), p.NoiseSpec(seed=7))
        with pytest.raises(p.DivergenceError, match=r"^cost became non-finite "
                           r"\(finite-difference probe along J\[1,0\]\)$"):
            p.finite_difference_gradient(oscillator_guess(), np.array([[1.0], [1e300]]), u,
                                         y_data, p.tangent_basis(2, "full"))


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


def assert_matches_per_direction(sys, traj, y_data, basis):
    """The adjoint coefficients equal the per-direction reference up to
    rounding: the adjoint forms the same derivatives with its sums in another
    order."""
    coeffs = p.sensitivity_coefficients(sys, traj, y_data, basis)
    reference = _per_direction(sys, traj, y_data, basis)
    assert np.max(np.abs(coeffs - reference)) <= 1e-11 * np.max(np.abs(reference))


class TestStackedCoefficients:
    """sensitivity_coefficients: the coefficients of the whole basis at once."""

    # derandomized so that every run of the suite draws the same examples
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 6), k=st.integers(1, 3), structure=st.sampled_from(p.STRUCTURES),
           steps=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_adjoint_matches_per_direction_solves(self, n, k, structure, steps, seed):
        sys, traj, y_data = _random_problem(seed, n, k, steps)
        assert_matches_per_direction(sys, traj, y_data, p.tangent_basis(n, structure))

    def test_adjoint_matches_per_direction_solves_at_n8(self):
        sys, traj, y_data = _random_problem(41, 8, 2, 1000)
        assert_matches_per_direction(sys, traj, y_data, p.tangent_basis(8, "full"))

    @pytest.mark.parametrize("n", [2, 8])
    def test_one_backward_sweep(self, n):
        # every direction's coefficient comes from one (K+1, n) adjoint sweep
        sys, traj, y_data = _random_problem(43, n, 2, 50)
        sweeps = []

        def recording_scan(propagator, source, x0, inputs):
            states, finite = real_scan(propagator, source, x0, inputs)
            sweeps.append(states.shape)
            return states, finite

        real_scan = sensitivity._affine_scan
        with mock.patch.object(sensitivity, "_affine_scan", recording_scan):
            p.sensitivity_coefficients(sys, traj, y_data, p.tangent_basis(n, "full"))
        assert sweeps == [(51, n)]

    def test_overflow_redo_equals_the_per_step_adjoint_loop(self):
        # J = 0, R = diag(3/h, 0.5): P = diag(-2, 1 - h/2), whose powers
        # overflow within the one chunk, so the scan leaves NaN and the
        # per-step loop redoes the Euler sweep and the adjoint.  B = (0, 1)
        # and w0 = (0, 1) keep the first component zero, so both sweeps stay
        # finite, and the coefficients equal those of the per-step adjoint
        # loop bit for bit
        grid = p.TimeGrid(1.0, 2000)
        h, n = grid.h, 2
        sys = p.ReducedPHSystem(p.SkewSymmetricMatrix.zeros(n),
                                p.PSDMatrix.from_matrix(np.diag([3.0 / h, 0.5])),
                                np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        u = p.generate_input(grid, 1, p.NoiseSpec(seed=3))
        y_data = random_signal(philox(44), grid, 1)
        basis = p.tangent_basis(n, "full")
        with mock.patch.object(systems, "_step_scan", wraps=systems._step_scan) as step_scan:
            traj = p.simulate_euler(sys, u)
            assert step_scan.call_count == 1
            coeffs = p.sensitivity_coefficients(sys, traj, y_data, basis)
            assert step_scan.call_count == 2
        # row t holds lambda_{K-t}, as the kernel's states do
        w, propagator = traj.states, np.eye(n) + h * sys.drift()
        forcing = (h * (w[:-1] @ sys.B - y_data.values[:-1])[::-1]) @ sys.B.T
        adjoint = np.zeros((grid.num_nodes, n))
        for t, f in enumerate(forcing):
            adjoint[t + 1] = propagator.T @ adjoint[t] + f
        g = h * (adjoint[:-1].T @ w[-2::-1])
        expected = [g[d.i, d.j] - g[d.j, d.i] if d.block == "J"
                    else -g[d.i, d.i] if d.block == "R" and d.i == d.j
                    else -(g[d.i, d.j] + g[d.j, d.i]) if d.block == "R"
                    else adjoint[-1, d.i] for d in basis]
        assert coeffs.tobytes() == np.array(expected).tobytes()
        assert np.isfinite(coeffs).all()

    def test_peak_memory_is_a_few_state_buffers(self):
        # the 272 directions at n = 16 cost no more memory than a few
        # (K+1, n) buffers; a forward pass of all of them would take 348 MB
        n, steps = 16, 10_000
        sys, traj, y_data = _random_problem(42, n, 2, steps)
        basis = p.tangent_basis(n, "full")
        tracemalloc.start()
        try:
            p.sensitivity_coefficients(sys, traj, y_data, basis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * (steps + 1) * n * 8

    # derandomized so that every run of the suite draws the same examples
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 6), structure=st.sampled_from(p.STRUCTURES),
           steps=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
    def test_sources_equal_the_dense_products(self, n, structure, steps, seed):
        # pin the sources the per-direction reference writes: h * (w @ E.T)
        # for the dense +-1 matrix E of a J pair, its negation for an R pair,
        # e_i then zeros for x
        sys, traj, y_data = _random_problem(seed, n, 1, steps)
        h, w = traj.grid.h, traj.states
        written = []

        def recording_scan(prop, rows):
            written.append(rows.copy())
            real_scan(prop, rows)

        real_scan = sensitivity._step_scan
        for d in p.tangent_basis(n, structure):
            with mock.patch.object(sensitivity, "_step_scan", recording_scan):
                p.solve_sensitivity(sys, traj, d, traj.grid)
            rows = written.pop()
            h_j, h_r, h_x = dense(d.label, n)
            if d.block == "J":
                expected = h * (w[:-1] @ h_j.T)
            elif d.block == "R":
                expected = h * -(w[:-1] @ h_r.T)
            else:
                expected = np.zeros((steps, n))
            assert rows[0].tobytes() == h_x.tobytes()
            assert rows[1:].tobytes() == expected.tobytes()

    def test_grid_mismatch_rejected(self, oscillator):
        traj = p.simulate_euler(oscillator, p.Signal.zeros(p.TimeGrid(1.0, 10), 1))
        with pytest.raises(p.DimensionMismatchError):
            p.sensitivity_coefficients(oscillator, traj, p.Signal.zeros(p.TimeGrid(1.0, 20), 1),
                                       p.tangent_basis(2, "full"))

    @pytest.mark.parametrize("ports, basis_n, match", [
        (2, 2, "data has 2 ports"),
        (1, 3, "system and basis dimensions differ"),
    ], ids=["data-ports", "basis-dimension"])
    def test_mismatched_problem_rejected(self, oscillator, ports, basis_n, match):
        grid = p.TimeGrid(1.0, 10)
        traj = p.simulate_euler(oscillator, p.Signal.zeros(grid, 1))
        with pytest.raises(p.DimensionMismatchError, match=match):
            p.sensitivity_coefficients(oscillator, traj, p.Signal.zeros(grid, ports),
                                       p.tangent_basis(basis_n, "full"))


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
