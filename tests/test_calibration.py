import json

import numpy as np
import pytest

import phsid as p
from conftest import FIXTURES


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


class TestConfig:
    def test_defaults(self):
        cfg = p.CalibrationConfig()
        assert cfg.sigma_init == 10.0
        assert cfg.gamma == 1e-4
        assert cfg.eps_stop == 1e-4
        assert cfg.max_iter == 500
        assert cfg.max_halvings == 60
        assert cfg.structure == "full"
        assert cfg.psd_mode == "project"

    @pytest.mark.parametrize("kwargs", [
        {"sigma_init": 0.0}, {"gamma": 0.0}, {"gamma": 1.0}, {"eps_stop": -1.0},
        {"max_iter": -1}, {"structure": "banded"}, {"psd_mode": "clip"},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            p.CalibrationConfig(**kwargs)


class TestArmijo:
    def test_zero_gradient_accepts_initial_step(self, guess_point):
        basis = p.tangent_basis(2, "full")
        g = p.assemble_gradient(np.zeros(6), basis)
        step = p.armijo_search(guess_point, g, 1.0,
                               lambda j, r, w: 1.0, p.CalibrationConfig())
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
        evaluations = []

        def evaluate(j, r, w):
            evaluations.append(w[0])
            return 0.5 * w[0] ** 2

        step = p.armijo_search(v, g, 0.5, evaluate, p.CalibrationConfig())
        assert step.sigma == 1.25
        assert evaluations == [-9.0, -4.0, -1.5, -0.25]
        assert step.point.w_hat[0] == -0.25
        assert step.cost == 0.03125

    def test_line_search_failure_carries_last_sigma(self, guess_point):
        basis = p.tangent_basis(2, "full")
        g = p.assemble_gradient(np.ones(6), basis)
        cfg = p.CalibrationConfig(max_halvings=10)
        with pytest.raises(p.LineSearchError) as err:
            # a constant cost never satisfies the strict-decrease condition
            p.armijo_search(guess_point, g, 1.0, lambda j, r, w: 1.0, cfg)
        assert err.value.last_sigma == pytest.approx(10.0 / 2**10)
        assert err.value.halvings == 10

    def test_non_finite_candidate_cost_is_rejected_not_accepted(self, guess_point):
        basis = p.tangent_basis(2, "full")
        g = p.assemble_gradient(np.ones(6), basis)
        calls = []

        def evaluate(j, r, w):
            calls.append(1)
            return np.nan if len(calls) < 3 else -1.0

        step = p.armijo_search(guess_point, g, 1.0, evaluate, p.CalibrationConfig())
        assert len(calls) == 3  # two NaN candidates were skipped
        assert step.sigma == 2.5

    def test_update_uses_descent_direction(self, guess_point):
        # coefficient 1 on J[1,0] with sigma accepted at once must move J
        # by -sigma * basis element
        basis = p.tangent_basis(2, "full")
        g = p.assemble_gradient([1.0, 0, 0, 0, 0, 0], basis)
        cfg = p.CalibrationConfig(sigma_init=0.5)
        step = p.armijo_search(guess_point, g, 10.0, lambda j, r, w: 0.0, cfg)
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
            seen.append(np.linalg.eigvalsh(r)[0])
            return -1.0  # accept immediately

        p.armijo_search(v, g, 1.0, evaluate, p.CalibrationConfig())
        assert all(lam >= -1e-12 for lam in seen)

    def test_psd_mode_none_rejects_inadmissible_accepted_iterate(self):
        v = p.ParameterPoint(p.SkewSymmetricMatrix.zeros(2),
                             p.PSDMatrix.from_matrix([[0.1, 0.0], [0.0, 0.1]]),
                             np.zeros(2))
        g = p.assemble_gradient([0.0, 1.0, 1.0, 0.5, 0.0, 0.0],
                                p.tangent_basis(2, "full"))
        cfg = p.CalibrationConfig(psd_mode="none")
        with pytest.raises(p.InvalidModelError):
            p.armijo_search(v, g, 1.0, lambda j, r, w: -1.0, cfg)


class TestCalibrate:
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

    def test_psd_mode_none_matches_project_on_benign_run(self, oscillator, guess_point):
        # on this data the raw iterates never leave the cone, so projection
        # is inactive and both modes produce the same result
        grid = p.TimeGrid(1.0, 1000)
        u, y_data = p.generate_reference(oscillator, grid, p.NoiseSpec(seed=25))
        res_none = p.calibrate(guess_point, u, y_data, oscillator.B,
                               p.CalibrationConfig(psd_mode="none"))
        assert res_none.converged
        for it in res_none.iterates:
            assert np.linalg.eigvalsh(it.R.array)[0] >= -1e-12
        res_proj = p.calibrate(guess_point, u, y_data, oscillator.B,
                               p.CalibrationConfig(psd_mode="project"))
        assert res_none.cost_history == res_proj.cost_history
        np.testing.assert_array_equal(res_none.v_opt.R.array, res_proj.v_opt.R.array)

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

    def test_cone_exit_with_psd_mode_none_is_diagnosed(self, oscillator, guess_point,
                                                       monkeypatch):
        grid = p.TimeGrid(1.0, 500)
        u, y_data = p.generate_reference(oscillator, grid, p.NoiseSpec(seed=29))

        def escaping_search(v, g, cost_at_v, evaluator, cfg):
            raise p.InvalidModelError("positive semidefiniteness violated")
        import phsid.calibration as calibration
        monkeypatch.setattr(calibration, "armijo_search", escaping_search)
        res = p.calibrate(guess_point, u, y_data, oscillator.B,
                          p.CalibrationConfig(psd_mode="none"))
        assert not res.converged
        assert "admissible" in res.message

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

    def test_one_euler_sweep_per_candidate(self, oscillator, guess_point, monkeypatch):
        # the start point and every Armijo candidate are integrated once; the
        # gradients and y_opt reuse those states
        import phsid.calibration as calibration
        grid = p.TimeGrid(1.0, 1000)
        u, y_data = p.generate_reference(oscillator, grid, p.NoiseSpec(seed=30))
        sweeps = []
        evaluations = []
        euler_states = calibration._euler_states
        armijo_search = calibration.armijo_search

        def counting_states(*args):
            sweeps.append(1)
            return euler_states(*args)

        def counting_search(v, g, cost_at_v, evaluator, cfg):
            def counted(*args):
                evaluations.append(1)
                return evaluator(*args)
            return armijo_search(v, g, cost_at_v, counted, cfg)

        monkeypatch.setattr(calibration, "_euler_states", counting_states)
        monkeypatch.setattr(calibration, "armijo_search", counting_search)
        res = p.calibrate(guess_point, u, y_data, oscillator.B, p.CalibrationConfig(max_iter=3))
        assert res.iterations == 3
        assert len(sweeps) == 1 + len(evaluations)
        final = res.v_opt.to_system(oscillator.B)
        np.testing.assert_array_equal(res.y_opt.values,
                                      p.output(final, p.simulate_euler(final, u)).values)

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
