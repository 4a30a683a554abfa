import numpy as np
import pytest

import phsid as p
from conftest import (
    oscillator_system,
    philox,
    random_psd,
    random_signal,
    random_skew,
    random_spd,
)


class TestTimeGrid:
    def test_nodes(self):
        grid = p.TimeGrid(1.0, 4)
        assert grid.h == 0.25
        assert grid.num_nodes == 5
        np.testing.assert_array_equal(grid.times(), [0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("t_end,steps", [
        (0.0, 10), (-1.0, 10), (1.0, 0), (np.inf, 10),
        pytest.param(1.0, float("inf"), id="steps-inf"),
        pytest.param(1.0, float("nan"), id="steps-nan"),
        pytest.param(10**400, 5, id="t_end-too-large-for-a-float"),
        pytest.param(1.0, True, id="steps-bool"),
    ])
    def test_rejects_bad_parameters(self, t_end, steps):
        with pytest.raises(p.DimensionMismatchError):
            p.TimeGrid(t_end, steps)


class TestSignalTrajectory:
    def test_row_count_enforced(self):
        grid = p.TimeGrid(1.0, 10)
        with pytest.raises(p.DimensionMismatchError):
            p.Signal(grid, np.zeros((10, 1)))
        with pytest.raises(p.DimensionMismatchError):
            p.Trajectory(grid, np.zeros((12, 2)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_signal_rejects_non_finite_samples(self, value):
        values = np.ones((11, 2))
        values[4, 1] = value
        with pytest.raises(p.InvalidModelError, match="^signal contains non-finite values$"):
            p.Signal(p.TimeGrid(1.0, 10), values)

    def test_initial_state_recorded(self):
        sys = oscillator_system()
        grid = p.TimeGrid(1.0, 20)
        traj = p.simulate_euler(sys, p.Signal.zeros(grid, 1))
        np.testing.assert_array_equal(traj.states[0], sys.w_hat)


class TestSystemTypes:
    def test_dimension_checks(self):
        j = p.SkewSymmetricMatrix.zeros(2)
        r = p.PSDMatrix.zeros(3)
        with pytest.raises(p.DimensionMismatchError):
            p.ReducedPHSystem(j, r, np.ones((2, 1)), np.zeros(2))
        with pytest.raises(p.DimensionMismatchError):
            p.ReducedPHSystem(j, p.PSDMatrix.zeros(2), np.ones((3, 1)), np.zeros(2))
        with pytest.raises(p.DimensionMismatchError):
            p.ReducedPHSystem(j, p.PSDMatrix.zeros(2), np.ones((2, 1)), np.zeros(3))

    def test_block_types_checked(self):
        # an indefinite symmetric R would otherwise be taken as a dissipation block
        j, r, q = p.SkewSymmetricMatrix.zeros(2), p.PSDMatrix.zeros(2), p.SPDMatrix.identity(2)
        sym = p.SymmetricMatrix.from_matrix([[0.5, 0.0], [0.0, -0.3]])
        b, w = np.ones((2, 1)), np.zeros(2)
        with pytest.raises(p.InvalidModelError, match="R must be of type PSDMatrix"):
            p.ParameterPoint(j, sym, w)
        with pytest.raises(p.InvalidModelError, match="R must be of type PSDMatrix"):
            p.ReducedPHSystem(j, sym, b, w)
        with pytest.raises(p.InvalidModelError, match="J must be of type SkewSymmetricMatrix"):
            p.ReducedPHSystem(r, r, b, w)
        with pytest.raises(p.InvalidModelError, match="R must be of type PSDMatrix"):
            p.PHSystem(j, sym, q, b, w)
        with pytest.raises(p.InvalidModelError, match="Q must be of type SPDMatrix"):
            p.PHSystem(j, r, p.SymmetricMatrix.zeros(2), b, w)

    def test_full_system_consistency(self):
        with pytest.raises(p.DimensionMismatchError):
            p.PHSystem(
                p.SkewSymmetricMatrix.zeros(2),
                p.PSDMatrix.zeros(2),
                p.SPDMatrix.identity(3),
                np.ones((2, 1)),
                np.zeros(2),
            )


class TestCholeskyReduce:
    def test_identity_q_is_identity_reduction(self):
        rng = philox(10)
        n, k = 3, 2
        full = p.PHSystem(
            random_skew(rng, n),
            random_psd(rng, n),
            p.SPDMatrix.identity(n),
            rng.normal(size=(n, k)),
            rng.normal(size=n),
        )
        red = p.cholesky_reduce(full)
        np.testing.assert_array_equal(red.J.array, full.J.array)
        np.testing.assert_array_equal(red.R.array, full.R.array)
        np.testing.assert_array_equal(red.B, full.B)
        np.testing.assert_array_equal(red.w_hat, full.x_hat)

    def test_hand_cholesky_congruence(self):
        rng = philox(11)
        j = random_skew(rng, 2)
        r = random_psd(rng, 2)
        b = rng.normal(size=(2, 1))
        x0 = rng.normal(size=2)
        q = p.SPDMatrix.from_matrix([[4.0, 2.0], [2.0, 3.0]])
        red = p.cholesky_reduce(p.PHSystem(j, r, q, b, x0))
        v = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        np.testing.assert_allclose(red.J.array, v.T @ j.array @ v, atol=1e-13)
        np.testing.assert_allclose(red.R.array, v.T @ r.array @ v, atol=1e-13)
        np.testing.assert_allclose(red.B, v.T @ b, atol=1e-14)
        np.testing.assert_allclose(red.w_hat, v.T @ x0, atol=1e-14)

    def test_congruence_preserves_structure_exactly(self):
        rng = philox(12)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            full = p.PHSystem(
                random_skew(rng, n),
                random_psd(rng, n),
                random_spd(rng, n),
                rng.normal(size=(n, 1)),
                rng.normal(size=n),
            )
            red = p.cholesky_reduce(full)
            assert np.array_equal(red.J.array.T, -red.J.array)
            assert np.array_equal(red.R.array.T, red.R.array)
            assert np.linalg.eigvalsh(red.R.array)[0] >= -1e-10

    def test_input_output_map_is_preserved(self):
        # original-form Euler loop as an independent oracle
        rng = philox(13)
        n, k = 2, 1
        full = p.PHSystem(
            random_skew(rng, n),
            random_psd(rng, n),
            p.SPDMatrix.from_matrix([[1.5, 0.4], [0.4, 0.8]]),
            rng.normal(size=(n, k)),
            rng.normal(size=n),
        )
        grid = p.TimeGrid(1.0, 400)
        u = random_signal(rng, grid, k)
        red = p.cholesky_reduce(full)
        y_red = p.output(red, p.simulate_euler(red, u)).values

        a = (full.J.array - full.R.array) @ full.Q.array
        c = full.B.T @ full.Q.array
        x = full.x_hat.copy()
        y_orig = [c @ x]
        for j in range(grid.steps):
            x = x + grid.h * (a @ x + full.B @ u.values[j])
            y_orig.append(c @ x)
        np.testing.assert_allclose(y_red, np.array(y_orig), rtol=0, atol=1e-12)


class TestOutput:
    def test_zero_port_matrix(self, oscillator):
        grid = p.TimeGrid(1.0, 10)
        sys = p.ReducedPHSystem(oscillator.J, oscillator.R,
                                np.zeros((2, 1)), oscillator.w_hat)
        traj = p.simulate_euler(sys, p.Signal.zeros(grid, 1))
        assert np.all(p.output(sys, traj).values == 0.0)

    def test_direct_product(self):
        grid = p.TimeGrid(1.0, 3)
        sys = p.ReducedPHSystem(
            p.SkewSymmetricMatrix.zeros(2), p.PSDMatrix.zeros(2),
            np.array([[1.0], [1.0]]), np.array([1.0, 2.0]))
        traj = p.Trajectory(grid, np.tile([1.0, 2.0], (4, 1)))
        np.testing.assert_array_equal(p.output(sys, traj).values, np.full((4, 1), 3.0))

    def test_dimension_mismatch(self, oscillator):
        grid = p.TimeGrid(1.0, 5)
        traj = p.Trajectory(grid, np.zeros((6, 3)))
        with pytest.raises(p.DimensionMismatchError):
            p.output(oscillator, traj)

    def test_overflow_names_the_first_node(self):
        # finite states whose output overflows first at node 2, in either
        # convention; no warning escapes
        traj = p.Trajectory(p.TimeGrid(1.0, 3), np.array([[1.0], [1.0], [1e308], [1.0]]))
        sys = p.ReducedPHSystem(p.SkewSymmetricMatrix.zeros(1), p.PSDMatrix.zeros(1),
                                np.array([[10.0]]), np.zeros(1))
        with pytest.raises(p.DivergenceError, match=r"^output became non-finite at step 2 "
                           r"\(node-wise convention\)$") as err:
            p.output(sys, traj)
        assert (err.value.quantity, err.value.step) == ("output", 2)
        with pytest.raises(p.DivergenceError, match=r"^output became non-finite at step 2 "
                           r"\(midpoint convention\)$"):
            p.midpoint_output(sys, traj)


# Every public entry point that takes signals or trajectories: the keywords of
# its parts, in the order it checks them, and a call on the oscillator (n = 2,
# k = 1) with the parts in ``a``.
GRID = p.TimeGrid(1.0, 10)
ENTRY_POINTS = {
    "simulate_euler": (("u",), lambda sys, a: p.simulate_euler(sys, a["u"])),
    "simulate_discrete_gradient": (
        ("u",), lambda sys, a: p.simulate_discrete_gradient(sys, a["u"])),
    "output": (("traj",), lambda sys, a: p.output(sys, a["traj"])),
    "midpoint_output": (("traj",), lambda sys, a: p.midpoint_output(sys, a["traj"])),
    "energy_balance_residual": (
        ("traj", "u"), lambda sys, a: p.energy_balance_residual(sys, a["traj"], a["u"])),
    "solve_sensitivity": (
        ("traj",), lambda sys, a: p.solve_sensitivity(sys, a["traj"], p.tangent_basis(2), 4)),
    "directional_derivative": (
        ("traj", "sens", "y_data"),
        lambda sys, a: p.directional_derivative(sys, a["traj"], a["sens"], a["y_data"])),
    "sensitivity_coefficients": (
        ("traj", "y_data"),
        lambda sys, a: p.sensitivity_coefficients(sys, a["traj"], a["y_data"],
                                                  p.tangent_basis(2))),
    "cost": (("u", "y_data"), lambda sys, a: p.cost(sys, a["u"], a["y_data"])),
    "calibrate": (
        ("u", "y_data"),
        lambda sys, a: p.calibrate(p.ParameterPoint(sys.J, sys.R, sys.w_hat), a["u"],
                                   a["y_data"], sys.B)),
    "finite_difference_gradient": (
        ("u", "y_data"),
        lambda sys, a: p.finite_difference_gradient(p.ParameterPoint(sys.J, sys.R, sys.w_hat),
                                                    sys.B, a["u"], a["y_data"],
                                                    p.tangent_basis(2))),
}
WRONG = {
    "grid": {"signal": p.Signal.zeros(p.TimeGrid(1.0, 20), 1),
             "trajectory": p.Trajectory(p.TimeGrid(1.0, 20), np.zeros((21, 2)))},
    "ports": {"signal": p.Signal.zeros(GRID, 2)},
    "dimension": {"trajectory": p.Trajectory(GRID, np.zeros((11, 3)))},
}


def _mismatches():
    """(entry point, part keyword, defect, expected message) for every
    defect each part of each entry point can have."""
    for entry, (names, _) in ENTRY_POINTS.items():
        for i, name in enumerate(names):
            cases = [("grid", f"{names[0]} and {name} grids differ")] if i else []
            if name in ("u", "y_data"):
                cases.append(("ports", f"{name} has 2 ports but the system expects 1"))
            else:
                cases.append(("dimension",
                              f"{name} dimension 3 does not match system dimension 2"))
            for defect, message in cases:
                yield pytest.param(entry, name, defect, f"^{message}$",
                                   id=f"{entry}-{name}-{defect}")


@pytest.mark.parametrize("entry, name, defect, match", list(_mismatches()))
def test_entry_points_reject_parts_that_do_not_fit_the_model(oscillator, entry, name,
                                                             defect, match):
    u = p.Signal.zeros(GRID, 1)
    parts = {"u": u, "y_data": p.Signal.zeros(GRID, 1),
             "traj": p.simulate_euler(oscillator, u), "sens": p.Trajectory(GRID, np.zeros((11, 2)))}
    parts[name] = WRONG[defect]["signal" if name in ("u", "y_data") else "trajectory"]
    with pytest.raises(p.DimensionMismatchError, match=match):
        ENTRY_POINTS[entry][1](oscillator, parts)
