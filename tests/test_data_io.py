import json
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import phsid as p
import phsid.data_io as data_io
from conftest import FIXTURES, philox, random_reduced_system, random_spd

# finite doubles: hypothesis' own draws plus signed zeros, subnormals and
# mantissas scaled over exponents -300..300
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 0.1, 1 / 3]),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-9.99, 9.99), st.integers(-300, 300)),
)
# spellings float() takes: padded, underscored, exponent or fixed notation
FIELD = st.builds(lambda v, fmt: fmt.format(v), FINITE,
                  st.sampled_from(["{!r}", "{:.17g}", "{:.6e}", " {!r}\t", "{:+.3f}", "{:_}"]))


def grid_table_text(rows, k: int) -> str:
    header = "t," + ",".join(f"u_{i + 1}" for i in range(k))
    return header + "\n" + "".join(",".join(row) + "\n" for row in rows)


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

    @pytest.mark.parametrize("k", [0, True, 1.5, np.nan, "1"])
    def test_port_count_must_be_an_integer_of_at_least_one(self, k):
        with pytest.raises(p.DimensionMismatchError, match="number of ports k must be >= 1"):
            p.generate_input(p.TimeGrid(1.0, 10), k, p.NoiseSpec())

    def test_integral_port_count_becomes_int(self):
        grid, spec = p.TimeGrid(1.0, 10), p.NoiseSpec(seed=5)
        u = p.generate_input(grid, 2.0, spec)
        assert u.values.tobytes() == p.generate_input(grid, 2, spec).values.tobytes()

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            p.NoiseSpec(std=-0.1)
        with pytest.raises(ValueError):
            p.NoiseSpec(seed=-1)

    @pytest.mark.parametrize("kwargs, field", [
        ({"mean": np.nan}, "mean"), ({"mean": np.inf}, "mean"), ({"std": np.inf}, "std"),
        ({"std": np.nan}, "std"), ({"seed": 2.9}, "seed"), ({"seed": True}, "seed"),
        ({"seed": np.nan}, "seed"), ({"seed": "3"}, "seed"), ({"seed": 10**400}, "seed"),
        ({"mean": 10**400}, "mean"), ({"std": -10**400}, "std"),
    ])
    def test_non_finite_or_non_integral_setting_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            p.NoiseSpec(**kwargs)

    def test_integral_seed_becomes_int(self):
        assert p.NoiseSpec(seed=3.0).seed == 3
        assert p.NoiseSpec(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1


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

    @pytest.mark.parametrize("n, k", [(2.7, 1), (2, True), ("2", 1), (2, 1.5), (None, 1)])
    def test_non_integer_dimensions_rejected(self, tmp_path, n, k):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "n": n, "k": k,
            "J": [[0.0, 1.0], [-1.0, 0.0]],
            "R": [[0.5, 0.0], [0.0, 0.3]],
            "B": [[1.0], [1.0]],
            "x_hat": [1.0, 2.0],
        }))
        with pytest.raises(p.MalformedFileError, match="fields 'n' and 'k' must be integers"):
            p.load_model(path)

    @pytest.mark.parametrize("field", ["J", "R", "Q", "B", "x_hat"])
    def test_integer_too_large_for_a_float_rejected(self, tmp_path, field):
        model = {"n": 2, "k": 1, "J": [[0, 1], [-1, 0]], "R": [[1, 0], [0, 1]],
                 "Q": [[1, 0], [0, 1]], "B": [[1], [1]], "x_hat": [1, 2]}
        entries = model[field]
        if isinstance(entries[0], list):
            entries[0][0] = 10**400
        else:
            entries[0] = 10**400
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model))
        with pytest.raises(p.MalformedFileError,
                           match=f"field '{field}' has an entry too large for a float"):
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

    def test_nan_field_rejected_as_non_finite(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,u_1\n0,nan\n0.5,1\n1,1\n")
        with pytest.raises(p.MalformedFileError, match="non-finite"):
            p.load_signal_csv(path)

    @pytest.mark.parametrize("text, match", [
        ("t,u_1\n\n\n0,1\n\n0.5,oops\n1,1\n", r":6: non-numeric field"),
        ("t,u_1\n\n0,1\n\n0.5,1,2\n1,1\n", r":5: expected 2 fields, got 3"),
    ])
    @pytest.mark.parametrize("chunk", [1, 2, 4096])
    def test_error_names_the_physical_line(self, tmp_path, text, match, chunk):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with mock.patch.object(data_io, "_CHUNK_ROWS", chunk):
            with pytest.raises(p.MalformedFileError, match=match):
                p.load_signal_csv(path)

    @pytest.mark.parametrize("chunk, bad", [(4096, 2), (2, 4), (3, 8)])
    def test_compensating_ragged_rows_rejected(self, tmp_path, chunk, bad):
        # one row a field long and the next a field short keep the chunk's
        # field total; rows start on line 2, so line `bad` opens a chunk
        rows = [[f"{t:.17g}", "1"] for t in p.TimeGrid(0.9, 9).times()]
        rows[bad - 2].append("2")
        rows[bad - 1].pop()
        path = tmp_path / "s.csv"
        path.write_text(grid_table_text(rows, 1))
        with mock.patch.object(data_io, "_CHUNK_ROWS", chunk):
            with pytest.raises(p.MalformedFileError, match=f":{bad}: expected 2 fields, got 3"):
                p.load_signal_csv(path)

    def test_trajectory_round_trip(self, tmp_path):
        rng = philox(43)
        grid = p.TimeGrid(2.0, 100)
        traj = p.Trajectory(grid, rng.normal(size=(101, 2)))
        path = tmp_path / "w.csv"
        p.save_trajectory_csv(traj, path)
        loaded = p.load_trajectory_csv(path)
        np.testing.assert_array_equal(loaded.states, traj.states)


class TestChunkedTables:
    """The chunked writer and reader against one-value-at-a-time references."""

    # derandomized so that every run of the suite draws the same examples
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(k=st.integers(1, 8), steps=st.integers(1, 9), chunk=st.integers(1, 3),
           data=st.data())
    def test_writer_bytes_equal_per_value_reference(self, k, steps, chunk, data):
        values = data.draw(arrays(np.float64, (steps + 1, k), elements=FINITE))
        grid = p.TimeGrid(0.5 * steps, steps)
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(data_io, "_CHUNK_ROWS", chunk):
            path = Path(tmp) / "s.csv"
            p.save_signal_csv(p.Signal(grid, values), path, name="u")
            written = path.read_bytes()
        lines = ["t," + ",".join(f"u_{i + 1}" for i in range(k))]
        for t, row in zip(grid.times(), values):
            lines.append(",".join(f"{v:.17g}" for v in (t, *row)))
        assert written == ("\n".join(lines) + "\n").encode()

    def test_writer_straddles_the_default_chunk(self, tmp_path):
        steps = 2 * data_io._CHUNK_ROWS
        traj = p.Trajectory(p.TimeGrid(1.0, steps), philox(45).normal(size=(steps + 1, 2)))
        path = tmp_path / "w.csv"
        p.save_trajectory_csv(traj, path)
        lines = ["t,w_1,w_2"] + [",".join(f"{v:.17g}" for v in (t, *row))
                                 for t, row in zip(traj.grid.times(), traj.states)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        np.testing.assert_array_equal(p.load_trajectory_csv(path).states, traj.states)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(k=st.integers(1, 8), steps=st.integers(1, 9), chunk=st.integers(1, 3),
           data=st.data())
    def test_reader_values_are_float_of_each_field(self, k, steps, chunk, data):
        grid = p.TimeGrid(0.5 * steps, steps)
        rows = [[f"{t:.17g}"] + data.draw(st.lists(FIELD, min_size=k, max_size=k))
                for t in grid.times()]
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(data_io, "_CHUNK_ROWS", chunk):
            path = Path(tmp) / "s.csv"
            path.write_text(grid_table_text(rows, k))
            loaded = p.load_signal_csv(path)
        expected = np.array([[float(f) for f in row[1:]] for row in rows])
        assert loaded.grid == grid
        # compared as bits, so -0.0 and 0.0 differ
        assert np.array_equal(loaded.values.view(np.uint64), expected.view(np.uint64))

    def test_writer_memory_is_bounded(self, tmp_path):
        # a 100,001 x 3 table; formatting it in one piece peaked at 23.6 MB
        traj = p.Trajectory(p.TimeGrid(100.0, 100_000), philox(46).normal(size=(100_001, 2)))
        tracemalloc.start()
        try:
            p.save_trajectory_csv(traj, tmp_path / "w.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


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

    def test_config_removed_psd_mode_key_rejected(self, tmp_path):
        # the projection of R onto the PSD cone is not a setting
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"psd_mode": "project"}))
        with pytest.raises(p.MalformedFileError,
                           match=r"^unknown config fields: \['psd_mode'\]$"):
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

    @pytest.mark.parametrize("body, match", [
        # a step without its sigma would shift every later sigma by one step
        ("0,1.0,\n1,0.5,\n2,0.25,0.5\n", r":3: non-numeric field"),
        ("foo,1.0,\nbar,0.5,0.1\n", r":2: expected iter 0, got 'foo'"),
        ("0,1.0,\n2,0.5,0.1\n", r":3: expected iter 1, got '2'"),
        ("0,1.0,0.5\n1,0.5,0.1\n", r":2: the initial row must have no sigma"),
        ("0,nan,\n", r":2: cost must be finite"),
        ("0,1.0,\n1,inf,0.1\n", r":3: cost must be finite"),
        ("0,1.0,\n1,0.5,0\n", r":3: sigma must be finite and positive"),
        ("0,1.0,\n1,0.5,-0.25\n", r":3: sigma must be finite and positive"),
        ("0,1.0,\n1,0.5,nan\n", r":3: sigma must be finite and positive"),
        ("0,1.0,\n\n\n1,0.5,inf\n", r":5: sigma must be finite and positive"),
    ])
    def test_history_malformed_rejected(self, tmp_path, body, match):
        path = tmp_path / "h.csv"
        path.write_text("iter,cost,sigma\n" + body)
        with pytest.raises(p.MalformedFileError, match=match):
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
