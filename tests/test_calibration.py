import json
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phsid as p
import phsid.calibration as calibration
import phsid.sensitivity as sensitivity
from conftest import (
    FIXTURES,
    diverging_system,
    philox,
    random_psd,
    random_reduced_system,
    random_signal,
    random_skew,
    result_bits,
)


def first_zero_halving(sigma):
    """How many halvings take ``sigma`` to 0.0: 1078 for sigma = 10."""
    halvings = 0
    while sigma:
        sigma, halvings = 0.5 * sigma, halvings + 1
    return halvings


def scripted_cost(sys, u_values, y_values, h):
    """Independent cost script: plain Euler loop plus left-endpoint sum."""
    w = sys.w_hat.copy()
    a = sys.J.array - sys.R.array
    total = 0.0
    for j in range(len(u_values) - 1):
        r = sys.B.T @ w - y_values[j]
        total += h * float(r @ r)
        w = w + h * (a @ w + sys.B @ u_values[j])
    return 0.5 * total


class TestCost:
    def test_zero_at_generating_parameters(self, oscillator):
        grid = p.TimeGrid(1.0, 1000)
        u, y_data = p.generate_reference(oscillator, grid, p.NoiseSpec(seed=11))
        assert p.cost(oscillator, u, y_data) < 1e-28

    def test_constant_unit_residual_is_half(self, oscillator):
        grid = p.TimeGrid(1.0, 1000)
        u = p.Signal.zeros(grid, 1)
        traj = p.simulate_euler(oscillator, u)
        y_data = p.Signal(grid, traj.states @ oscillator.B - 1.0)
        assert p.cost(oscillator, u, y_data) == 0.5

    def test_matches_independent_script(self, oscillator, guess_point):
        grid = p.TimeGrid(1.0, 1000)
        u, y_data = p.generate_reference(oscillator, grid, p.NoiseSpec(seed=12))
        sys_guess = guess_point.to_system(oscillator.B)
        value = p.cost(sys_guess, u, y_data)
        expected = scripted_cost(sys_guess, u.values, y_data.values, grid.h)
        assert value > p.CalibrationConfig().eps_stop
        assert value == pytest.approx(expected, abs=1e-12)

    def test_grid_mismatch(self, oscillator):
        u = p.Signal.zeros(p.TimeGrid(1.0, 10), 1)
        y = p.Signal.zeros(p.TimeGrid(1.0, 20), 1)
        with pytest.raises(p.DimensionMismatchError):
            p.cost(oscillator, u, y)

    def test_port_mismatch(self, oscillator):
        grid = p.TimeGrid(1.0, 10)
        with pytest.raises(p.DimensionMismatchError,
                           match="^y_data has 2 ports but the system expects 1$"):
            p.cost(oscillator, p.Signal.zeros(grid, 1), p.Signal.zeros(grid, 2))

    @pytest.mark.parametrize("field", ["u", "y_data"])
    def test_non_finite_sample_rejected(self, field):
        # unchecked, a NaN in the data ends calibrate after 0 iterations
        # with "iteration limit reached" and cost nan; no Signal can hold one
        grid = p.TimeGrid(1.0, 10)
        signals = {"u": np.ones((11, 1)), "y_data": np.ones((11, 1))}
        signals[field][3, 0] = np.nan
        with pytest.raises(p.InvalidModelError, match="^signal contains non-finite values$"):
            p.Signal(grid, signals[field])

    def test_divergence_names_the_step(self):
        zeros = p.Signal.zeros(p.TimeGrid(1.0, 10), 1)
        with pytest.raises(p.DivergenceError, match=r"\(cost evaluation\)") as err:
            p.cost(diverging_system(), zeros, zeros)
        assert err.value.step == 2

    def test_overflow_from_finite_states_is_a_divergence(self, oscillator, guess_point):
        # the states stay near 1e300, finite; their squared residuals do not
        u, y_data = p.generate_reference(oscillator, p.TimeGrid(1.0, 1000), p.NoiseSpec(seed=7))
        v = p.ParameterPoint(guess_point.J, guess_point.R, np.array([1e-300, 1e300]))
        with pytest.raises(p.DivergenceError,
                           match=r"^cost became non-finite \(cost evaluation\)$") as err:
            p.cost(v.to_system(oscillator.B), u, y_data)
        assert (err.value.quantity, err.value.step) == ("cost", None)


class TestConfig:
    def test_defaults(self):
        cfg = p.CalibrationConfig()
        assert cfg.sigma_init == 10.0
        assert cfg.gamma == 1e-4
        assert cfg.eps_stop == 1e-4
        assert cfg.max_iter == 500
        assert cfg.max_halvings == 60
        assert cfg.structure == "full"

    @pytest.mark.parametrize("kwargs", [
        {"sigma_init": 0.0}, {"gamma": 0.0}, {"gamma": 1.0}, {"eps_stop": -1.0},
        {"max_iter": -1}, {"structure": "banded"},
        {"sigma_init": np.inf}, {"sigma_init": np.nan}, {"eps_stop": np.inf},
        {"max_iter": 2.5}, {"max_iter": np.inf}, {"max_iter": "3"}, {"max_halvings": 1.5},
        {"max_halvings": -1}, {"max_halvings": True},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            p.CalibrationConfig(**kwargs)

    @pytest.mark.parametrize("name", ["sigma_init", "gamma", "eps_stop"])
    def test_float_setting_must_be_a_real_number(self, name):
        # a bool would run as 1.0; a string used to fail with a raw TypeError
        for bad in (True, "10"):
            with pytest.raises(ValueError, match=f"^{name} must be a real number, got"):
                p.CalibrationConfig(**{name: bad})

    @pytest.mark.parametrize("name, message", [
        ("sigma_init", "be positive and finite"), ("gamma", "lie in"),
        ("eps_stop", "be positive and finite")])
    def test_integer_too_large_for_a_float_rejected(self, name, message):
        with pytest.raises(ValueError, match=f"^{name} must {message}"):
            p.CalibrationConfig(**{name: 10**400})

    def test_integral_counts_become_int(self):
        cfg = p.CalibrationConfig(max_iter=3.0, max_halvings=np.int64(7))
        assert type(cfg.max_iter) is int and cfg.max_iter == 3
        assert type(cfg.max_halvings) is int and cfg.max_halvings == 7


class TestArmijo:
    # armijo_search hands its evaluator batches of stacked candidates, J and R
    # of shape (m, n, n) and w0 of shape (m, n), and reads one cost per candidate

    def test_zero_gradient_accepts_initial_step(self, guess_point):
        basis = p.tangent_basis(2, "full")
        g = p.assemble_gradient(np.zeros(6), basis)
        step = p.armijo_search(guess_point, g, 1.0,
                               lambda j, r, w: np.ones(len(w)), p.CalibrationConfig())
        assert step.sigma == 10.0
        np.testing.assert_array_equal(step.point.J.array, guess_point.J.array)
        np.testing.assert_array_equal(step.point.R.array, guess_point.R.array)
        np.testing.assert_array_equal(step.point.w_hat, guess_point.w_hat)

    def test_scalar_quadratic_needs_three_halvings(self):
        # cost(w) = w^2/2 at w = 1 with unit gradient coefficient:
        # sigma 10, 5, 2.5 fail the decrease test, sigma 1.25 is accepted
        v = p.ParameterPoint(p.SkewSymmetricMatrix.zeros(1),
                             p.PSDMatrix.zeros(1), np.array([1.0]))
        g = p.assemble_gradient([0.0, 1.0], p.tangent_basis(1, "full"))
        batches = []

        def evaluate(j, r, w):
            batches.append(w[:, 0].tolist())
            return 0.5 * w[:, 0] ** 2

        step = p.armijo_search(v, g, 0.5, evaluate, p.CalibrationConfig())
        assert step.sigma == 1.25 and type(step.sigma) is float
        # one batch of eight candidates, w = 1 - 10 / 2^i in search order
        assert batches == [[-9.0, -4.0, -1.5, -0.25, 0.375, 0.6875, 0.84375, 0.921875]]
        assert step.point.w_hat[0] == -0.25
        assert step.cost == 0.03125

    def test_evaluator_may_cost_a_leading_part_of_the_batch(self):
        # an evaluator that costs one candidate per call sees the sequential
        # search's candidates; the ones it leaves out lead the next batch
        v = p.ParameterPoint(p.SkewSymmetricMatrix.zeros(1),
                             p.PSDMatrix.zeros(1), np.array([1.0]))
        g = p.assemble_gradient([0.0, 1.0], p.tangent_basis(1, "full"))
        evaluations = []
        widths = []

        def evaluate(j, r, w):
            widths.append(len(w))
            evaluations.append(w[0, 0])
            return 0.5 * w[:1, 0] ** 2

        step = p.armijo_search(v, g, 0.5, evaluate, p.CalibrationConfig())
        assert step.sigma == 1.25
        assert evaluations == [-9.0, -4.0, -1.5, -0.25]
        assert widths == [8, 8, 8, 8]
        assert step.cost == 0.03125

    @pytest.mark.parametrize("returned", [0, 9])
    def test_evaluator_cost_count_checked(self, guess_point, returned):
        g = p.assemble_gradient(np.ones(6), p.tangent_basis(2, "full"))
        with pytest.raises(ValueError, match="costs"):
            p.armijo_search(guess_point, g, 1.0, lambda j, r, w: np.ones(returned),
                            p.CalibrationConfig())

    def test_line_search_failure_carries_last_sigma(self, guess_point):
        basis = p.tangent_basis(2, "full")
        g = p.assemble_gradient(np.ones(6), basis)
        cfg = p.CalibrationConfig(max_halvings=10)
        widths = []

        def evaluate(j, r, w):
            widths.append(len(w))
            # a constant cost never satisfies the strict-decrease condition
            return np.ones(len(w))

        with pytest.raises(p.LineSearchError) as err:
            p.armijo_search(guess_point, g, 1.0, evaluate, cfg)
        assert err.value.last_sigma == pytest.approx(10.0 / 2**10)
        assert type(err.value.last_sigma) is float
        assert err.value.halvings == 10
        # 11 candidates: a full batch, then the three left before max_halvings
        assert widths == [8, 3]

    def test_unchanged_cost_is_never_accepted(self, guess_point):
        # past about 1070 halvings -gamma * sigma * |g|^2 underflows to -0.0,
        # and the trial point rounds back to v; its unchanged cost is no decrease
        g = p.assemble_gradient(np.ones(6), p.tangent_basis(2, "full"))
        cfg = p.CalibrationConfig(max_halvings=1200)
        with pytest.raises(p.LineSearchError):
            p.armijo_search(guess_point, g, 1.0, lambda j, r, w: np.ones(len(w)), cfg)

    def test_search_ends_at_the_first_zero_step(self, guess_point):
        # sigma = 10 halves to 0.0 after 1078 halvings; every later candidate
        # would repeat that one, so it is the last tried of the 5001 allowed
        g = p.assemble_gradient(np.ones(6), p.tangent_basis(2, "full"))
        widths = []

        def evaluate(j, r, w):
            widths.append(len(w))
            return np.ones(len(w))

        with pytest.raises(p.LineSearchError) as err:
            p.armijo_search(guess_point, g, 1.0, evaluate, p.CalibrationConfig(max_halvings=5000))
        assert (err.value.last_sigma, err.value.halvings) == (0.0, first_zero_halving(10.0))
        assert sum(widths) == first_zero_halving(10.0) + 1

    def test_trial_points_are_built_a_batch_at_a_time(self, guess_point):
        # a search that accepts its first batch allocates about the same
        # whatever the halving budget; an array over all 10**6 + 1 step
        # sizes alone would take 8 MB
        g = p.assemble_gradient(np.ones(6), p.tangent_basis(2, "full"))

        def peak_bytes(max_halvings):
            tracemalloc.start()
            try:
                p.armijo_search(guess_point, g, 1.0, lambda j, r, w: np.zeros(len(w)),
                                p.CalibrationConfig(max_halvings=max_halvings))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(10**6) < 2 * peak_bytes(60)

    def test_non_finite_candidate_cost_is_rejected_not_accepted(self, guess_point):
        basis = p.tangent_basis(2, "full")
        g = p.assemble_gradient(np.ones(6), basis)
        calls = []

        def evaluate(j, r, w):
            calls.append(len(w))
            costs = np.full(len(w), -1.0)
            costs[:2] = [np.nan, np.inf]
            return costs

        step = p.armijo_search(guess_point, g, 1.0, evaluate, p.CalibrationConfig())
        assert calls == [8]
        assert step.sigma == 2.5  # the two non-finite candidates were skipped
        assert step.cost == -1.0

    def test_update_uses_descent_direction(self, guess_point):
        # coefficient 1 on J[1,0] with sigma accepted at once must move J
        # by -sigma * basis element
        basis = p.tangent_basis(2, "full")
        g = p.assemble_gradient([1.0, 0, 0, 0, 0, 0], basis)
        cfg = p.CalibrationConfig(sigma_init=0.5)
        step = p.armijo_search(guess_point, g, 10.0, lambda j, r, w: np.zeros(len(w)), cfg)
        expected = guess_point.J.array - 0.5 * np.array([[0.0, -1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(step.point.J.array, expected)

    def test_projection_keeps_candidates_admissible(self):
        # gradient pushes R strongly indefinite; with projection the evaluator
        # must only ever see PSD blocks
        v = p.ParameterPoint(p.SkewSymmetricMatrix.zeros(2),
                             p.PSDMatrix.from_matrix([[0.1, 0.0], [0.0, 0.1]]),
                             np.zeros(2))
        g = p.assemble_gradient([0.0, 1.0, 1.0, 0.5, 0.0, 0.0],
                                p.tangent_basis(2, "full"))
        seen = []

        def evaluate(j, r, w):
            seen.extend(np.linalg.eigvalsh(r)[:, 0])
            return np.full(len(w), -1.0)  # accept immediately

        p.armijo_search(v, g, 1.0, evaluate, p.CalibrationConfig())
        assert len(seen) == 8
        assert all(lam >= -1e-12 for lam in seen)

    def test_overflowing_trial_point_is_skipped(self, guess_point):
        # sigma = 1e308, 5e307 and 2.5e307 take J[1,0] = -1.2 - 10 sigma past
        # the largest double: those trial points are never costed
        g = p.assemble_gradient([10.0, 0, 0, 0, 0, 0], p.tangent_basis(2, "full"))
        seen = []

        def evaluate(j, r, w):
            seen.extend(j[:, 1, 0])
            return np.full(len(w), -np.inf)

        cfg = p.CalibrationConfig(sigma_init=1e308, max_halvings=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(p.LineSearchError):
                p.armijo_search(guess_point, g, 1.0, evaluate, cfg)
        assert seen == [-1.25e308]


class TestCalibrate:
    @pytest.mark.parametrize("b, u_ports, y_ports, y_steps, match", [
        (np.ones((2, 1)), 1, 1, 500, "^u and y_data grids differ$"),
        (np.ones((3, 1)), 1, 1, 1000, "B has 3 rows, expected state dimension 2"),
        (np.ones(2), 1, 1, 1000, r"B must be 2-D \(n x k\), got shape \(2,\)"),
        (np.ones((2, 2)), 2, 1, 1000, "^y_data has 1 ports but the system expects 2$"),
    ], ids=["grids", "B-rows", "B-vector", "data-ports"])
    def test_mismatched_problem_rejected(self, guess_point, b, u_ports, y_ports, y_steps,
                                         match):
        u = p.Signal.zeros(p.TimeGrid(1.0, 1000), u_ports)
        y_data = p.Signal.zeros(p.TimeGrid(1.0, y_steps), y_ports)
        with pytest.raises(p.DimensionMismatchError, match=match):
            p.calibrate(guess_point, u, y_data, b)

    def test_truth_start_exits_immediately(self, oscillator):
        grid = p.TimeGrid(1.0, 1000)
        u, y_data = p.generate_reference(oscillator, grid, p.NoiseSpec(seed=21))
        v0 = p.ParameterPoint(oscillator.J, oscillator.R, oscillator.w_hat)
        res = p.calibrate(v0, u, y_data, oscillator.B)
        assert res.converged
        assert res.iterations == 0
        assert res.cost_history == (res.final_cost,)
        assert res.final_cost < 1e-20

    def test_converges_on_oscillator_data(self, oscillator, guess_point):
        grid = p.TimeGrid(1.0, 1000)
        u, y_data = p.generate_reference(oscillator, grid, p.NoiseSpec(seed=22))
        res = p.calibrate(guess_point, u, y_data, oscillator.B)
        assert res.converged
        assert res.final_cost <= 1e-4
        assert 5 < res.iterations < 60
        costs = np.array(res.cost_history)
        assert np.all(np.diff(costs) < 0.0)
        assert len(res.step_sizes) == res.iterations
        assert len(res.gradient_sq_norms) == res.iterations
        assert len(res.iterates) == res.iterations + 1
        # recorded Armijo inequality holds exactly as evaluated
        cfg = p.CalibrationConfig()
        for i in range(res.iterations):
            lhs = res.cost_history[i + 1] - res.cost_history[i]
            assert lhs <= -cfg.gamma * res.step_sizes[i] * res.gradient_sq_norms[i]

    def test_structure_preserved_at_every_iterate(self, oscillator, guess_point):
        grid = p.TimeGrid(1.0, 1000)
        u, y_data = p.generate_reference(oscillator, grid, p.NoiseSpec(seed=23))
        res = p.calibrate(guess_point, u, y_data, oscillator.B)
        for it in res.iterates:
            assert np.array_equal(it.J.array.T, -it.J.array)
            assert np.array_equal(it.R.array.T, it.R.array)
            assert np.linalg.eigvalsh(it.R.array)[0] >= -1e-12

    def test_diagonal_structure_keeps_offdiagonal_zero(self, oscillator, guess_point):
        grid = p.TimeGrid(1.0, 1000)
        u, y_data = p.generate_reference(oscillator, grid, p.NoiseSpec(seed=24))
        cfg = p.CalibrationConfig(structure="diagonal_R")
        res = p.calibrate(guess_point, u, y_data, oscillator.B, cfg)
        assert res.converged
        for it in res.iterates:
            off = it.R.array - np.diag(it.R.array.diagonal())
            assert np.all(off == 0.0)

    def test_line_search_failure_yields_diagnosed_result(self, oscillator, guess_point):
        # a colossal first step always overshoots; with no halvings allowed the
        # search fails and calibrate reports it instead of raising
        grid = p.TimeGrid(1.0, 500)
        u, y_data = p.generate_reference(oscillator, grid, p.NoiseSpec(seed=28))
        cfg = p.CalibrationConfig(sigma_init=1e18, max_halvings=0, max_iter=5)
        res = p.calibrate(guess_point, u, y_data, oscillator.B, cfg)
        assert not res.converged
        assert res.iterations == 0
        assert "halvings" in res.message

    def test_search_at_the_rounding_floor_ends_at_sigma_zero(self, oscillator, monkeypatch):
        # from the truth with w0 off by 1e-15 the fit reaches the rounding
        # floor, cost 4.2e-32, in 4 steps; there every search fails, and the
        # fifth ends at its first sigma = 0 instead of sweeping all 5001 rows
        u, y_data = p.generate_reference(oscillator, p.TimeGrid(1.0, 100), p.NoiseSpec(seed=7))
        start = p.ParameterPoint(oscillator.J, oscillator.R,
                                 oscillator.w_hat + np.array([1e-15, 0.0]))
        rows = []
        evaluate = calibration._BatchEvaluator.__call__

        def counted(self, *stacks):
            costs = evaluate(self, *stacks)
            rows.append(len(costs))
            return costs

        monkeypatch.setattr(calibration._BatchEvaluator, "__call__", counted)
        cfg = p.CalibrationConfig(eps_stop=1e-300, max_halvings=5000)
        res = p.calibrate(start, u, y_data, oscillator.B, cfg)
        assert res.iterations == 4 and res.final_cost < 1e-31
        assert res.message.startswith(f"no admissible step size after {first_zero_halving(10.0)} "
                                      "halvings (last tried sigma=0);")
        assert sum(rows) <= 1200

    def test_first_search_expects_no_row_past_sigma_zero(self, oscillator):
        # 4 (1 - gamma) C / |g|^2 underflows to 0.0, which every sigma meets,
        # so the first search is expected at the row of the first sigma = 0
        u, y_data = p.generate_reference(oscillator, p.TimeGrid(1.0, 10), p.NoiseSpec(seed=7))
        evaluator = calibration._BatchEvaluator(oscillator.B, u, y_data)
        evaluator.first_search(5e-324, 1e300, p.CalibrationConfig(max_halvings=100_000))
        assert evaluator._row == first_zero_halving(10.0)

    def test_cone_exit_is_diagnosed(self, oscillator, guess_point, monkeypatch):
        grid = p.TimeGrid(1.0, 500)
        u, y_data = p.generate_reference(oscillator, grid, p.NoiseSpec(seed=29))

        def escaping_search(v, g, cost_at_v, evaluator, cfg):
            raise p.InvalidModelError("positive semidefiniteness violated")
        import phsid.calibration as calibration
        monkeypatch.setattr(calibration, "armijo_search", escaping_search)
        res = p.calibrate(guess_point, u, y_data, oscillator.B)
        assert not res.converged
        assert res.message == ("iterate left the admissible set: "
                               "positive semidefiniteness violated")

    def test_gradient_overflow_is_a_divergence(self):
        # J = 0, B = (1, 0): the start cost is finite, but G[0, 1] = h sum
        # lambda_0 w_1 with w_1 near 1e307 is not; no warning escapes, and
        # no skew matrix of non-finite entries is formed
        grid = p.TimeGrid(10.0, 100)
        v0 = p.ParameterPoint(p.SkewSymmetricMatrix.zeros(2),
                              p.PSDMatrix.from_matrix(np.diag([0.1, 0.1])),
                              np.array([1.0, 1e307]))
        b = np.array([[1.0], [0.0]])
        u, y_data = p.Signal.zeros(grid, 1), p.Signal(grid, np.full((101, 1), -100.0))
        assert np.isfinite(p.cost(v0.to_system(b), u, y_data))
        with pytest.raises(p.DivergenceError,
                           match=r"^gradient became non-finite \(adjoint sweep\)$"):
            p.calibrate(v0, u, y_data, b)

    def test_start_cost_overflow_is_a_divergence(self, oscillator, guess_point):
        # the start states stay finite near 1e300; their cost does not
        u, y_data = p.generate_reference(oscillator, p.TimeGrid(1.0, 1000), p.NoiseSpec(seed=7))
        v0 = p.ParameterPoint(guess_point.J, guess_point.R, np.array([1e-300, 1e300]))
        with pytest.raises(p.DivergenceError,
                           match=r"^cost became non-finite \(cost evaluation\)$"):
            p.calibrate(v0, u, y_data, oscillator.B)

    def test_iteration_limit_reported(self, oscillator, guess_point):
        grid = p.TimeGrid(1.0, 1000)
        u, y_data = p.generate_reference(oscillator, grid, p.NoiseSpec(seed=26))
        cfg = p.CalibrationConfig(max_iter=2)
        res = p.calibrate(guess_point, u, y_data, oscillator.B, cfg)
        assert not res.converged
        assert res.iterations == 2
        assert "iteration limit" in res.message

    def test_stationary_zero_gradient_diagnosed(self, oscillator):
        # zero port matrix: the output is identically zero, every direction
        # has zero derivative, but the data cannot be matched
        grid = p.TimeGrid(1.0, 100)
        b = np.zeros((2, 1))
        u = p.Signal.zeros(grid, 1)
        y_data = p.Signal(grid, np.ones((101, 1)))
        v0 = p.ParameterPoint(oscillator.J, oscillator.R, oscillator.w_hat)
        res = p.calibrate(v0, u, y_data, b)
        assert not res.converged
        assert "stationary" in res.message
        assert res.iterations == 0

    def test_determinism(self, oscillator, guess_point):
        grid = p.TimeGrid(1.0, 1000)
        u, y_data = p.generate_reference(oscillator, grid, p.NoiseSpec(seed=27))
        r1 = p.calibrate(guess_point, u, y_data, oscillator.B)
        r2 = p.calibrate(guess_point, u, y_data, oscillator.B)
        assert r1.cost_history == r2.cost_history
        assert r1.step_sizes == r2.step_sizes
        np.testing.assert_array_equal(r1.v_opt.J.array, r2.v_opt.J.array)
        np.testing.assert_array_equal(r1.v_opt.R.array, r2.v_opt.R.array)
        np.testing.assert_array_equal(r1.v_opt.w_hat, r2.v_opt.w_hat)
        np.testing.assert_array_equal(r1.y_opt.values, r2.y_opt.values)

    def test_one_euler_sweep_per_batch(self, oscillator, guess_point, monkeypatch):
        # the start point is integrated once (through sensitivity._euler_cost)
        # and every evaluator call's candidates in one stacked sweep; the
        # gradients and y_opt reuse those states.  Each sweep holds the
        # leading rows of its batch, up to the row its search is expected to
        # accept
        import phsid.calibration as calibration
        import phsid.sensitivity as sensitivity
        grid = p.TimeGrid(1.0, 1000)
        u, y_data = p.generate_reference(oscillator, grid, p.NoiseSpec(seed=30))
        swept = []
        batches = []
        accepted = []  # (evaluator calls so far, accepted row) per search
        euler_states = calibration._euler_states
        armijo_search = calibration.armijo_search

        def counting_states(a, b, w0, u_values, h):
            swept.append(w0.copy())
            return euler_states(a, b, w0, u_values, h)

        def counting_search(v, g, cost_at_v, evaluator, cfg):
            def counted(j, r, w):
                batches.append(w.copy())
                return evaluator(j, r, w)
            step = armijo_search(v, g, cost_at_v, counted, cfg)
            accepted.append((len(batches), step.row))
            return step

        monkeypatch.setattr(calibration, "_euler_states", counting_states)
        monkeypatch.setattr(sensitivity, "_euler_states", counting_states)
        monkeypatch.setattr(calibration, "armijo_search", counting_search)
        res = p.calibrate(guess_point, u, y_data, oscillator.B, p.CalibrationConfig(max_iter=3))
        assert res.iterations == 3
        assert len(swept) == 1 + len(batches)
        np.testing.assert_array_equal(swept[0], guess_point.w_hat)
        # sigma_init / 2^5 = 0.3125 is the first step below the first search's
        # bound 4 (1 - gamma) C / |g|^2 = 0.468, so its call sweeps rows 0-5;
        # every step is accepted at row 5, within one call, so each later
        # search sweeps rows 0-5 as well
        assert accepted == [(1, 5), (2, 5), (3, 5)]
        for w0, batch in zip(swept[1:], batches, strict=True):
            assert batch.shape == (8, 2)
            np.testing.assert_array_equal(w0, batch[:6])
        final = res.v_opt.to_system(oscillator.B)
        np.testing.assert_array_equal(res.y_opt.values,
                                      p.output(final, p.simulate_euler(final, u)).values)

    def test_overflowing_candidate_cost_is_rejected_without_warning(self, oscillator,
                                                                    guess_point):
        # at sigma_init=1e6 early candidates have finite states too large to
        # square; their cost is +inf, so the search halves instead of raising
        grid = p.TimeGrid(1.0, 500)
        u, y_data = p.generate_reference(oscillator, grid, p.NoiseSpec(seed=28))
        cfg = p.CalibrationConfig(sigma_init=1e6, max_iter=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = p.calibrate(guess_point, u, y_data, oscillator.B, cfg)
        assert res.iterations == 5
        assert np.all(np.diff(res.cost_history) < 0.0)
        assert max(res.step_sizes) < 1.0

    def test_first_step_regression_fixture(self, oscillator, guess_point):
        # frozen record of the first accepted step on the seed-7 data
        with open(FIXTURES / "first_step_seed7.json", encoding="utf-8") as fh:
            expected = json.load(fh)
        grid = p.TimeGrid(1.0, 1000)
        u, y_data = p.generate_reference(oscillator, grid, p.NoiseSpec(seed=7))
        res = p.calibrate(guess_point, u, y_data, oscillator.B,
                          p.CalibrationConfig(max_iter=1))
        assert res.cost_history[0] == expected["initial_cost"]
        assert res.cost_history[1] == expected["cost_after_first_step"]
        assert res.step_sizes[0] == expected["sigma"]
        assert res.cost_history[1] < res.cost_history[0]


def sequential_search(v, g, cost_at_v, b, u, y_data, cfg):
    """Backtracking one step size at a time (Nocedal & Wright, Alg. 3.1),
    every candidate integrated on its own; returns (sigma, J, R, w0, cost)."""
    sigma = cfg.sigma_init
    for halvings in range(cfg.max_halvings + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            j_lower = np.tril(v.J.array, -1) - sigma * np.tril(g.h_J.array, -1)
            r_lower = np.tril(v.R.array) - sigma * np.tril(g.h_R.array)
            w0 = v.w_hat - sigma * g.h_x
        if all(np.isfinite(x).all() for x in (j_lower, r_lower, w0)):
            j = p.SkewSymmetricMatrix.from_strict_lower(j_lower).array
            r = p.project_psd(p.SymmetricMatrix.from_lower(r_lower)).array
            try:
                c = sensitivity._euler_cost(j - r, b, w0, u.values, y_data.values, u.grid.h,
                                            "reference search")[1]
            except p.DivergenceError:
                c = np.inf
            if (np.isfinite(c) and c - cost_at_v <= -cfg.gamma * sigma * g.norm_sq
                    and (c < cost_at_v or g.norm_sq == 0.0)):
                return sigma, j, r, w0, c
        if halvings == cfg.max_halvings or sigma == 0.0:
            raise p.LineSearchError(sigma, halvings)
        sigma *= 0.5


def batched_search(v, g, cost_at_v, b, u, y_data, cfg):
    """armijo_search with the evaluator calibrate hands it; also checks that
    the evaluator kept the accepted candidate's states bit for bit."""
    evaluator = calibration._BatchEvaluator(b, u, y_data)
    step = p.armijo_search(v, g, cost_at_v, evaluator, cfg)
    j, r, w0 = step.point.J.array, step.point.R.array, step.point.w_hat
    states, finite = calibration._euler_states(j - r, b, w0, u.values, u.grid.h)
    assert finite[0]
    np.testing.assert_array_equal(evaluator.states_of(step.row), states)
    return step.sigma, j, r, w0, step.cost


def outcome(search, *args):
    try:
        result = search(*args)
    except p.LineSearchError as exc:
        return "LineSearchError", exc.last_sigma, exc.halvings
    except p.InvalidModelError as exc:
        return "InvalidModelError", str(exc)
    return ("accepted",) + result


def assert_same_outcome(batched, reference):
    assert batched[0] == reference[0]
    assert len(batched) == len(reference)
    for x, y in zip(batched[1:], reference[1:]):
        assert np.array_equal(x, y), (x, y)


def assert_same_result(pair):
    adaptive, reference = map(result_bits, pair)
    assert adaptive == reference


class TestBatchedSearch:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(n=st.integers(1, 6), k=st.integers(1, 3), structure=st.sampled_from(p.STRUCTURES),
           steps=st.integers(5, 150),
           max_halvings=st.integers(0, 22).filter(lambda m: (m + 1) % 8),
           log_sigma=st.floats(-2.0, 6.0), r_scale=st.sampled_from([1.0, 1e-3]),
           width_one=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_equals_sequential_search(self, n, k, structure, steps, max_halvings, log_sigma,
                                      r_scale, width_one, seed):
        # max_halvings + 1 candidates never fill the last batch; a start near
        # the cone's boundary makes the projection act; a pass bound of 1 B
        # makes the evaluator cost one candidate per call
        rng = philox(seed)
        truth = random_reduced_system(rng, n, k)
        u = random_signal(rng, p.TimeGrid(1.0, steps), k)
        y_data = p.output(truth, p.simulate_euler(truth, u))
        v = p.ParameterPoint(random_skew(rng, n), random_psd(rng, n, r_scale), rng.normal(size=n))
        sys_v = v.to_system(truth.B)
        basis = p.tangent_basis(n, structure)
        g = p.assemble_gradient(
            p.sensitivity_coefficients(sys_v, p.simulate_euler(sys_v, u), y_data, basis), basis)
        cfg = p.CalibrationConfig(sigma_init=10.0**log_sigma, max_halvings=max_halvings,
                                  structure=structure)
        args = (v, g, p.cost(sys_v, u, y_data), truth.B, u, y_data, cfg)
        pass_bytes = 1 if width_one else calibration._PASS_BYTES
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with mock.patch.object(calibration, "_PASS_BYTES", pass_bytes):
                batched = outcome(batched_search, *args)
        assert_same_outcome(batched, outcome(sequential_search, *args))

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(n=st.integers(1, 4), k=st.integers(1, 2), structure=st.sampled_from(p.STRUCTURES),
           gamma=st.sampled_from([1e-4, 0.1, 0.5, 0.9]), log_sigma=st.floats(-2.0, 4.0),
           seed=st.integers(0, 2**32 - 1))
    def test_adaptive_width_equals_one_candidate_per_call(self, n, k, structure, gamma,
                                                          log_sigma, seed):
        # the evaluator sweeps up to the row it expects a search to accept,
        # the first search's from gamma and sigma_init; a pass bound of 1 B
        # costs one candidate per call, the sequential reference.  Every
        # field of the result agrees bit for bit
        rng = philox(seed)
        truth = random_reduced_system(rng, n, k)
        u = random_signal(rng, p.TimeGrid(1.0, 200), k)
        y_data = p.output(truth, p.simulate_euler(truth, u))
        cfg = p.CalibrationConfig(sigma_init=10.0**log_sigma, gamma=gamma, max_iter=30,
                                  structure=structure)
        assert_same_result(self.both_widths(perturbed(truth, rng, 0.3), u, y_data, truth.B, cfg))

    @pytest.mark.parametrize("structure", p.STRUCTURES)
    def test_adaptive_width_on_the_oscillator(self, oscillator, guess_point, structure):
        u, y_data = p.generate_reference(oscillator, p.TimeGrid(1.0, 1000), p.NoiseSpec(seed=7))
        cfg = p.CalibrationConfig(structure=structure)
        assert_same_result(self.both_widths(guess_point, u, y_data, oscillator.B, cfg))

    @staticmethod
    def both_widths(v0, u, y_data, b, cfg):
        adaptive = p.calibrate(v0, u, y_data, b, cfg)
        with mock.patch.object(calibration, "_PASS_BYTES", 1):
            return adaptive, p.calibrate(v0, u, y_data, b, cfg)

    @pytest.mark.parametrize("fit, width", [(0, 1), (3, 3), (100, 8)])
    def test_evaluator_sweeps_what_fits_in_the_pass_bound(self, oscillator, guess_point,
                                                         fit, width):
        grid = p.TimeGrid(1.0, 100)
        u, y_data = p.generate_reference(oscillator, grid, p.NoiseSpec(seed=31))
        j = np.stack([guess_point.J.array * (1 + 0.1 * i) for i in range(8)])
        r = np.stack([guess_point.R.array] * 8)
        w = np.stack([guess_point.w_hat + 0.1 * i for i in range(8)])
        evaluator = calibration._BatchEvaluator(oscillator.B, u, y_data)
        with mock.patch.object(calibration, "_PASS_BYTES", fit * grid.num_nodes * 2 * 8):
            costs = evaluator(j, r, w)
        assert len(costs) == width
        for i in range(width):
            assert costs[i] == sensitivity._euler_cost(j[i] - r[i], oscillator.B, w[i], u.values,
                                                        y_data.values, grid.h, "single")[1]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(m=st.integers(1, 8), n=st.integers(1, 48), k=st.integers(1, 3),
           steps=st.integers(1, 10**4), scale=st.sampled_from([1.0, 1e160]),
           seed=st.integers(0, 2**32 - 1))
    def test_stacked_costs_equal_one_sweep_costs(self, m, n, k, steps, scale, seed):
        # the evaluator costs a batch in one stacked reduction; at scale
        # 1e160 the squares overflow and both sides give +inf
        rng = philox(seed)
        states = scale * rng.normal(size=(m, steps + 1, n))
        b, y_values = rng.normal(size=(n, k)), rng.normal(size=(steps + 1, k))
        costs = sensitivity._output_cost(states, b, y_values, 1.0 / steps)
        assert costs.shape == (m,)
        for i in range(m):
            single = sensitivity._output_cost(states[i], b, y_values, 1.0 / steps)
            assert costs[i].tobytes() == single.tobytes()

    def test_evaluator_sweeps_to_the_expected_row_then_doubles(self, oscillator, guess_point):
        # a search's calls sweep its rows up to the row the search before it
        # accepted, counted across that search's calls, then 2, 4 and 8 rows
        u, y_data = p.generate_reference(oscillator, p.TimeGrid(1.0, 100), p.NoiseSpec(seed=31))
        j = np.stack([guess_point.J.array * (1 + 0.1 * i) for i in range(8)])
        r = np.stack([guess_point.R.array] * 8)
        w = np.stack([guess_point.w_hat + 0.1 * i for i in range(8)])
        evaluator = calibration._BatchEvaluator(oscillator.B, u, y_data)
        assert len(evaluator(j, r, w)) == 8
        evaluator.states_of(1)
        assert [len(evaluator(j, r, w)) for _ in range(5)] == [2, 2, 4, 8, 8]
        evaluator.states_of(3)  # row 3 of the fifth call, row 19 of its search
        assert [len(evaluator(j, r, w)) for _ in range(5)] == [8, 8, 4, 2, 4]
        assert len(evaluator(j[:3], r[:3], w[:3])) == 3  # no more than the batch holds
        # sigma_init / 4 = 2.5 is the first step below 4 (1 - gamma) 1 / 1
        evaluator = calibration._BatchEvaluator(oscillator.B, u, y_data)
        evaluator.first_search(1.0, 1.0, p.CalibrationConfig())
        assert [len(evaluator(j, r, w)) for _ in range(2)] == [3, 2]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n=st.integers(1, 4), k=st.integers(1, 2), gamma=st.sampled_from([1e-4, 0.1, 0.5, 0.9]),
           log_sigma=st.floats(-2.0, 6.0), seed=st.integers(0, 2**32 - 1))
    def test_no_step_at_or_above_the_quadratic_bound_passes(self, n, k, gamma, log_sigma, seed):
        # with only w0 coefficients the cost along v - sigma g is exactly
        # quadratic in sigma, never negative and falls at rate |g|^2 at 0, so
        # sigma (1 - gamma) |g|^2 >= sigma^2 a >= sigma^2 |g|^4 / (4 C) for a
        # step that passes: none at or above 4 (1 - gamma) C / |g|^2 does.
        # The first search is expected to accept the first row below it
        rng = philox(seed)
        truth = random_reduced_system(rng, n, k)
        u = random_signal(rng, p.TimeGrid(1.0, 200), k)
        y_data = p.output(truth, p.simulate_euler(truth, u))
        v = p.ParameterPoint(random_skew(rng, n), random_psd(rng, n), rng.normal(size=n))
        sys_v = v.to_system(truth.B)
        basis = p.tangent_basis(n)
        coeffs = p.sensitivity_coefficients(sys_v, p.simulate_euler(sys_v, u), y_data, basis)
        coeffs[:-n] = 0.0
        g = p.assemble_gradient(coeffs, basis)
        current = p.cost(sys_v, u, y_data)
        cfg = p.CalibrationConfig(sigma_init=10.0**log_sigma, gamma=gamma)
        bound = 4 * (1 - gamma) * current / g.norm_sq
        sigmas = cfg.sigma_init * 0.5 ** np.arange(cfg.max_halvings + 1)
        for sigma in sigmas[sigmas >= bound]:
            trial = p.ParameterPoint(v.J, v.R, v.w_hat - sigma * g.h_x)
            change = p.cost(trial.to_system(truth.B), u, y_data) - current
            assert change > -gamma * sigma * g.norm_sq
        evaluator = calibration._BatchEvaluator(truth.B, u, y_data)
        evaluator.first_search(current, g.norm_sq, cfg)
        assert evaluator._row == int(np.argmax(sigmas < bound))
        step = p.armijo_search(v, g, current, evaluator, cfg)
        assert step.sigma < bound

    def test_a_two_call_search_sets_the_next_first_call(self, oscillator, guess_point,
                                                       monkeypatch):
        # on this data the 16th search is expected at row 4, the row the 15th
        # accepted, finds no pass in rows 0-4 and accepts row 0 of its second
        # call, row 5 of the search; the next search sweeps rows 0-5
        u, y_data = p.generate_reference(oscillator, p.TimeGrid(1.0, 1000), p.NoiseSpec(seed=0))
        searches = []  # (rows per evaluator call, accepted row of the last call)
        armijo_search = calibration.armijo_search

        def recording_search(v, g, cost_at_v, evaluator, cfg):
            widths = []

            def counted(j, r, w):
                costs = evaluator(j, r, w)
                widths.append(len(costs))
                return costs

            step = armijo_search(v, g, cost_at_v, counted, cfg)
            searches.append((widths, step.row))
            return step

        monkeypatch.setattr(calibration, "armijo_search", recording_search)
        assert p.calibrate(guess_point, u, y_data, oscillator.B).converged
        assert searches[13:17] == [([6], 5), ([6], 4), ([5, 2], 0), ([6], 5)]
        for (widths, row), (next_widths, _) in zip(searches, searches[1:]):
            assert next_widths[0] == min(8, sum(widths[:-1]) + row + 1)

    @settings(derandomize=True)
    @given(num_nodes=st.integers(2, 10**6), n=st.integers(1, 64), count=st.integers(1, 5000))
    def test_pass_buffer_within_bound(self, num_nodes, n, count):
        width = calibration._pass_width(num_nodes, n, count)
        assert 1 <= width <= count
        assert width == 1 or width * num_nodes * n * 8 <= calibration._PASS_BYTES

    def test_diverging_candidates_inside_a_batch(self):
        # J = R = 0, w0 = (1, 0), zero input and data.  The step along J[1,0]
        # is a rotation of rate sigma, which explicit Euler amplifies by
        # (1 + (sigma h)^2)^(K/2); the w0 coefficient 1/32 reaches the exact
        # fit w0 = 0 at sigma = 32, the seventh candidate from sigma_init = 2048.
        grid = p.TimeGrid(1.0, 1000)
        b = np.array([[1.0], [0.0]])
        u, y_data = p.Signal.zeros(grid, 1), p.Signal.zeros(grid, 1)
        v = p.ParameterPoint(p.SkewSymmetricMatrix.zeros(2), p.PSDMatrix.zeros(2),
                             np.array([1.0, 0.0]))
        g = p.assemble_gradient([1.0, 0.0, 0.0, 0.0, 1.0 / 32, 0.0], p.tangent_basis(2))
        cost_at_v = p.cost(v.to_system(b), u, y_data)
        assert cost_at_v == 0.5
        cfg = p.CalibrationConfig(sigma_init=2048.0)
        evaluator = calibration._BatchEvaluator(b, u, y_data)
        batches = []

        def evaluate(j, r, w):
            batches.append((j, r, w, evaluator(j, r, w)))
            return batches[-1][-1]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            step = p.armijo_search(v, g, cost_at_v, evaluate, cfg)
        assert step.sigma == 32.0
        assert step.cost == 0.0
        assert len(batches) == 1
        j, r, w, costs = batches[0]
        assert len(costs) == 8
        # sigma = 2048 leaves the finite range in the Euler states, sigma = 1024
        # only in their squares; both cost +inf and the search goes on.  The
        # batch's last candidate, after the accepted one, is costed as well.
        states, finite = calibration._euler_states(j[0] - r[0], b, w[0], u.values, grid.h)
        assert not finite[0] and not np.isfinite(states).all()
        with pytest.raises(p.DivergenceError, match=r"\(single\)"):
            sensitivity._euler_cost(j[0] - r[0], b, w[0], u.values, y_data.values, grid.h,
                                    "single")
        assert np.isinf(costs[:2]).all()
        assert np.isfinite(costs[2:]).all()
        assert_same_outcome(outcome(batched_search, v, g, cost_at_v, b, u, y_data, cfg),
                            outcome(sequential_search, v, g, cost_at_v, b, u, y_data, cfg))

    def test_overflowing_candidates_within_one_chunk(self, oscillator, guess_point):
        # K = 1000 steps is one chunk of the block scan at n = 2.  A J of
        # 1e200 overflows the powers of its propagator and a rate of 1e5 only
        # its states; both cost +inf, and every other candidate costs what a
        # sweep of its own gives
        grid = p.TimeGrid(1.0, 1000)
        u, y_data = p.generate_reference(oscillator, grid, p.NoiseSpec(seed=31))
        j = np.stack([guess_point.J.array * (1 + 0.1 * i) for i in range(6)])
        j[1] = diverging_system().J.array
        j[4] = guess_point.J.array * 1e5
        r = np.stack([guess_point.R.array] * 6)
        w = np.stack([guess_point.w_hat + 0.1 * i for i in range(6)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            costs = calibration._BatchEvaluator(oscillator.B, u, y_data)(j, r, w)
        assert np.isinf(costs[[1, 4]]).all()
        for i in (0, 2, 3, 5):
            assert costs[i] == sensitivity._euler_cost(j[i] - r[i], oscillator.B, w[i], u.values,
                                                        y_data.values, grid.h, "single")[1]


def replay_calibrate(v0, u, y_data, b, cfg):
    """``calibrate`` rebuilt from public functions only: per iteration the
    Euler states of the current point, its sensitivity coefficients, the
    assembled gradient and the one-at-a-time ``sequential_search``."""
    basis = p.tangent_basis(v0.n, cfg.structure)
    v, sys = v0, v0.to_system(b)
    traj, current = p.simulate_euler(sys, u), p.cost(sys, u, y_data)
    history, sigmas, grad_sq, iterates, message = [current], [], [], [v], ""
    while current > cfg.eps_stop and len(sigmas) < cfg.max_iter:
        g = p.assemble_gradient(p.sensitivity_coefficients(sys, traj, y_data, basis), basis)
        if g.norm_sq == 0.0:
            message = "stationary point: gradient is exactly zero above the stopping threshold"
            break
        try:
            sigma, j, r, w0, current = sequential_search(v, g, current, b, u, y_data, cfg)
        except p.LineSearchError as exc:
            message = str(exc)
            break
        except p.InvalidModelError as exc:
            message = f"iterate left the admissible set: {exc}"
            break
        v = p.ParameterPoint(p.SkewSymmetricMatrix(j), p.PSDMatrix(r), w0)
        sys = v.to_system(b)
        traj = p.simulate_euler(sys, u)
        history.append(current)
        sigmas.append(sigma)
        grad_sq.append(g.norm_sq)
        iterates.append(v)
    converged = current <= cfg.eps_stop
    if not converged and not message:
        message = f"iteration limit reached ({cfg.max_iter})"
    return p.CalibrationResult(v_opt=v, cost_history=tuple(history), iterations=len(sigmas),
                               converged=converged, y_opt=p.output(sys, traj),
                               step_sizes=tuple(sigmas), gradient_sq_norms=tuple(grad_sq),
                               iterates=tuple(iterates), message=message)


class TestReplay:
    # calibrate equals its replay from public functions in every field, bit
    # for bit, so a moved bit in the loop shows here
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 4), k=st.integers(1, 2), structure=st.sampled_from(p.STRUCTURES),
           steps=st.integers(5, 200), max_iter=st.integers(1, 5),
           r_scale=st.sampled_from([1.0, 1e-3]), max_halvings=st.sampled_from([2, 60]),
           seed=st.integers(0, 2**32 - 1))
    def test_calibrate_equals_its_public_replay(self, n, k, structure, steps, max_iter,
                                                r_scale, max_halvings, seed):
        # an R near the cone's boundary makes the projection act, and two
        # halvings let the search fail
        rng = philox(seed)
        truth = random_reduced_system(rng, n, k)
        u = random_signal(rng, p.TimeGrid(1.0, steps), k)
        y_data = p.output(truth, p.simulate_euler(truth, u))
        v0 = p.ParameterPoint(random_skew(rng, n), random_psd(rng, n, r_scale),
                              rng.normal(size=n))
        cfg = p.CalibrationConfig(max_iter=max_iter, max_halvings=max_halvings,
                                  structure=structure)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = p.calibrate(v0, u, y_data, truth.B, cfg)
        assert result_bits(res) == result_bits(replay_calibrate(v0, u, y_data, truth.B, cfg))

    @pytest.mark.parametrize("structure", p.STRUCTURES)
    def test_oscillator_equals_its_public_replay(self, oscillator, guess_point, structure):
        u, y_data = p.generate_reference(oscillator, p.TimeGrid(1.0, 1000), p.NoiseSpec(seed=7))
        cfg = p.CalibrationConfig(structure=structure)
        res = p.calibrate(guess_point, u, y_data, oscillator.B, cfg)
        assert res.converged
        replay = replay_calibrate(guess_point, u, y_data, oscillator.B, cfg)
        assert result_bits(res) == result_bits(replay)


def perturbed(truth, rng, rel=0.1):
    """``truth`` with J, R and w0 scaled entrywise by 1 + rel * N(0, 1), R
    projected back onto the PSD cone."""
    n = truth.n
    j = truth.J.array * (1 + rel * rng.normal(size=(n, n)))
    r = truth.R.array * (1 + rel * rng.normal(size=(n, n)))
    return p.ParameterPoint(p.SkewSymmetricMatrix.from_strict_lower(j),
                            p.project_psd(p.SymmetricMatrix.from_lower(r)),
                            truth.w_hat * (1 + rel * rng.normal(size=n)))


class TestRecovery:
    # derandomized so that every run of the suite draws the same examples
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(n=st.integers(1, 4), k=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
    def test_perturbed_start_reaches_eps_stop(self, n, k, seed):
        # noise-free data of a random truth, K = 300 steps.  The final cost
        # below eps_stop bounds the RMS output mismatch over j < K by
        # sqrt(2 eps_stop / t_end) = 4.5e-3; the largest mismatch stays
        # within 5% of max |y_data|
        rng = philox(seed)
        truth = random_reduced_system(rng, n, k)
        grid = p.TimeGrid(1.0, 300)
        u = random_signal(rng, grid, k)
        y_data = p.output(truth, p.simulate_euler(truth, u))
        cfg = p.CalibrationConfig(eps_stop=1e-5, max_iter=3000)
        res = p.calibrate(perturbed(truth, rng), u, y_data, truth.B, cfg)
        assert res.converged and res.final_cost < cfg.eps_stop
        mismatch = res.y_opt.values - y_data.values
        assert np.sqrt(np.mean(mismatch[:-1] ** 2) * k) <= np.sqrt(2 * cfg.eps_stop / grid.t_end)
        assert np.abs(mismatch).max() <= 0.05 * np.abs(y_data.values).max()
