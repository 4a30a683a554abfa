import json

import numpy as np
import pytest

import phsid as p
from conftest import FIXTURES, philox, random_reduced_system, random_spd


class TestStandardNormals:
    def test_deterministic(self):
        a = p.standard_normals(123, 1000)
        b = p.standard_normals(123, 1000)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_stream(self):
        assert not np.array_equal(p.standard_normals(1, 100), p.standard_normals(2, 100))

    def test_odd_count(self):
        assert p.standard_normals(5, 7).shape == (7,)

    def test_prefix_property(self):
        # a longer draw extends, not reshuffles, a shorter one
        a = p.standard_normals(9, 10)
        b = p.standard_normals(9, 20)
        np.testing.assert_array_equal(a, b[:10])


class TestGenerateInput:
    def test_zero_std_is_constant(self):
        grid = p.TimeGrid(1.0, 50)
        u = p.generate_input(grid, 2, p.NoiseSpec(mean=1.5, std=0.0, seed=0))
        assert np.all(u.values == 1.5)

    def test_same_seed_bit_identical(self):
        grid = p.TimeGrid(1.0, 100)
        spec = p.NoiseSpec(seed=77)
        u1 = p.generate_input(grid, 1, spec)
        u2 = p.generate_input(grid, 1, spec)
        np.testing.assert_array_equal(u1.values, u2.values)

    def test_sample_moments(self):
        grid = p.TimeGrid(1.0, 10**5)
        u = p.generate_input(grid, 1, p.NoiseSpec(mean=1.0, std=0.1, seed=4))
        assert abs(u.values.mean() - 1.0) < 0.002
        assert abs(u.values.std(ddof=1) - 0.1) < 0.002

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            p.NoiseSpec(std=-0.1)
        with pytest.raises(ValueError):
            p.NoiseSpec(seed=-1)


class TestGenerateReference:
    def test_initial_output_is_noise_independent(self, oscillator):
        grid = p.TimeGrid(1.0, 1000)
        for seed in (0, 1, 2):
            _, y = p.generate_reference(oscillator, grid, p.NoiseSpec(seed=seed))
            assert y.values[0, 0] == 3.0

    def test_zero_system(self):
        grid = p.TimeGrid(1.0, 100)
        sys = p.ReducedPHSystem(p.SkewSymmetricMatrix.zeros(2), p.PSDMatrix.zeros(2),
                                np.zeros((2, 1)), np.zeros(2))
        _, y = p.generate_reference(sys, grid, p.NoiseSpec(seed=3))
        assert np.all(y.values == 0.0)

    def test_golden_fixture_bytes(self, oscillator, tmp_path):
        manifest = json.loads((FIXTURES / "manifest.json").read_text())
        entry = manifest["reference_run"]
        grid = p.TimeGrid(entry["t_end"], entry["steps"])
        spec = p.NoiseSpec(mean=entry["mean"], std=entry["std"], seed=entry["seed"])
        u, y = p.generate_reference(oscillator, grid, spec)
        p.save_signal_csv(u, tmp_path / "u.csv", name="u")
        p.save_signal_csv(y, tmp_path / "y.csv", name="y")
        assert (tmp_path / "u.csv").read_bytes() == (FIXTURES / entry["u_file"]).read_bytes()
        assert (tmp_path / "y.csv").read_bytes() == (FIXTURES / entry["y_file"]).read_bytes()


class TestModelFiles:
    def test_round_trip_is_byte_identical(self, tmp_path):
        rng = philox(41)
        sys_red = random_reduced_system(rng, 3, 2)
        full = p.PHSystem(sys_red.J, sys_red.R, random_spd(rng, 3),
                          sys_red.B, sys_red.w_hat)
        path1 = tmp_path / "m1.json"
        path2 = tmp_path / "m2.json"
        p.save_model(full, path1)
        p.save_model(p.load_model(path1), path2)
        assert path1.read_bytes() == path2.read_bytes()

    def test_missing_q_defaults_to_identity(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "n": 2, "k": 1,
            "J": [[0.0, 1.0], [-1.0, 0.0]],
            "R": [[0.5, 0.0], [0.0, 0.3]],
            "B": [[1.0], [1.0]],
            "x_hat": [1.0, 2.0],
        }))
        model = p.load_model(path)
        np.testing.assert_array_equal(model.Q.array, np.eye(2))

    def test_skewness_violation_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "n": 2, "k": 1,
            "J": [[0.0, 1.0], [-0.5, 0.0]],
            "R": [[0.5, 0.0], [0.0, 0.3]],
            "B": [[1.0], [1.0]],
            "x_hat": [1.0, 2.0],
        }))
        with pytest.raises(p.InvalidModelError, match="skew"):
            p.load_model(path)

    def test_indefinite_r_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "n": 2, "k": 1,
            "J": [[0.0, 1.0], [-1.0, 0.0]],
            "R": [[0.5, 0.0], [0.0, -0.3]],
            "B": [[1.0], [1.0]],
            "x_hat": [1.0, 2.0],
        }))
        with pytest.raises(p.InvalidModelError, match="semidefinite"):
            p.load_model(path)

    def test_non_spd_q_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "n": 2, "k": 1,
            "J": [[0.0, 1.0], [-1.0, 0.0]],
            "R": [[0.5, 0.0], [0.0, 0.3]],
            "Q": [[1.0, 2.0], [2.0, 1.0]],
            "B": [[1.0], [1.0]],
            "x_hat": [1.0, 2.0],
        }))
        with pytest.raises(p.InvalidModelError, match="definite"):
            p.load_model(path)

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "n": 2, "k": 2,
            "J": [[0.0, 1.0], [-1.0, 0.0]],
            "R": [[0.5, 0.0], [0.0, 0.3]],
            "B": [[1.0], [1.0]],
            "x_hat": [1.0, 2.0],
        }))
        with pytest.raises(p.DimensionMismatchError):
            p.load_model(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(p.MalformedFileError):
            p.load_model(path)

    def test_unknown_fields_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "n": 1, "k": 1, "J": [[0.0]], "R": [[0.0]], "B": [[1.0]],
            "x_hat": [0.0], "extra": 1,
        }))
        with pytest.raises(p.MalformedFileError, match="unknown"):
            p.load_model(path)


class TestSignalFiles:
    def test_round_trip_values_bit_exact(self, tmp_path):
        rng = philox(42)
        grid = p.TimeGrid(1.0, 250)
        sig = p.Signal(grid, rng.normal(size=(251, 3)))
        path = tmp_path / "s.csv"
        p.save_signal_csv(sig, path, name="y")
        loaded = p.load_signal_csv(path)
        assert loaded.grid == sig.grid
        np.testing.assert_array_equal(loaded.values, sig.values)

    def test_header_names_columns(self, tmp_path):
        grid = p.TimeGrid(1.0, 2)
        p.save_signal_csv(p.Signal.zeros(grid, 2), tmp_path / "s.csv", name="u")
        header = (tmp_path / "s.csv").read_text().splitlines()[0]
        assert header == "t,u_1,u_2"

    def test_missing_interior_row_rejected(self, tmp_path):
        grid = p.TimeGrid(1.0, 10)
        path = tmp_path / "s.csv"
        p.save_signal_csv(p.Signal.zeros(grid, 1), path)
        lines = path.read_text().splitlines()
        del lines[4]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(p.MalformedFileError, match="grid"):
            p.load_signal_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,u_1\n0,1\n0.5,1,9\n1,1\n")
        with pytest.raises(p.MalformedFileError, match="fields"):
            p.load_signal_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,u_1\n0,1\n0.5,oops\n1,1\n")
        with pytest.raises(p.MalformedFileError, match="numeric"):
            p.load_signal_csv(path)

    def test_trajectory_round_trip(self, tmp_path):
        rng = philox(43)
        grid = p.TimeGrid(2.0, 100)
        traj = p.Trajectory(grid, rng.normal(size=(101, 2)))
        path = tmp_path / "w.csv"
        p.save_trajectory_csv(traj, path)
        loaded = p.load_trajectory_csv(path)
        np.testing.assert_array_equal(loaded.states, traj.states)


class TestConfigAndResultFiles:
    def test_config_defaults_and_partial_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"eps_stop": 1e-6, "structure": "diagonal_R"}))
        cfg = p.load_config(path)
        assert cfg.eps_stop == 1e-6
        assert cfg.structure == "diagonal_R"
        assert cfg.sigma_init == 10.0

    def test_config_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"stepsize": 1.0}))
        with pytest.raises(p.MalformedFileError, match="unknown"):
            p.load_config(path)

    def test_config_invalid_value_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"gamma": 2.0}))
        with pytest.raises(p.MalformedFileError):
            p.load_config(path)

    @pytest.mark.parametrize("text", ['{"eps_stop": Infinity}', '{"sigma_init": Infinity}',
                                      '{"max_iter": 2.5}', '{"max_halvings": 1.5}'])
    def test_config_non_finite_or_fractional_value_rejected(self, tmp_path, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(p.MalformedFileError, match="invalid config"):
            p.load_config(path)

    def test_history_round_trip(self, tmp_path, oscillator):
        grid = p.TimeGrid(1.0, 500)
        u, y_data = p.generate_reference(oscillator, grid, p.NoiseSpec(seed=50))
        guess = p.ParameterPoint(oscillator.J, oscillator.R, oscillator.w_hat + 0.2)
        res = p.calibrate(guess, u, y_data, oscillator.B)
        path = tmp_path / "h.csv"
        p.save_history_csv(res, path)
        costs, sigmas = p.load_history_csv(path)
        np.testing.assert_array_equal(costs, np.array(res.cost_history))
        np.testing.assert_array_equal(sigmas, np.array(res.step_sizes))

    def test_history_empty_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("iter,cost,sigma\n")
        with pytest.raises(p.MalformedFileError, match="empty"):
            p.load_history_csv(path)

    def test_result_file_contents(self, tmp_path, oscillator):
        grid = p.TimeGrid(1.0, 200)
        u, y_data = p.generate_reference(oscillator, grid, p.NoiseSpec(seed=51))
        v0 = p.ParameterPoint(oscillator.J, oscillator.R, oscillator.w_hat)
        res = p.calibrate(v0, u, y_data, oscillator.B)
        path = tmp_path / "r.json"
        p.save_result(res, path)
        obj = json.loads(path.read_text())
        assert obj["converged"] is True
        assert obj["iterations"] == 0
        np.testing.assert_array_equal(np.array(obj["J"]), oscillator.J.array)
        np.testing.assert_array_equal(np.array(obj["R"]), oscillator.R.array)
        np.testing.assert_array_equal(np.array(obj["x_hat"]), oscillator.w_hat)
