import dataclasses
import json

import numpy as np
import pytest

import phsid as p
import phsid._blas as blas
import phsid.cli as cli
import phsid.data_io as data_io
from conftest import diverging_system, oscillator_guess, oscillator_system


@pytest.fixture
def model_file(tmp_path):
    sys = oscillator_system()
    full = p.PHSystem(sys.J, sys.R, p.SPDMatrix.identity(2), sys.B, sys.w_hat)
    path = tmp_path / "model.json"
    p.save_model(full, path)
    return path


@pytest.fixture
def guess_file(tmp_path):
    v = oscillator_guess()
    full = p.PHSystem(v.J, v.R, p.SPDMatrix.identity(2),
                      np.array([[1.0], [1.0]]), v.w_hat)
    path = tmp_path / "guess.json"
    p.save_model(full, path)
    return path


@pytest.fixture
def data_files(tmp_path, model_file):
    u_path = tmp_path / "u.csv"
    y_path = tmp_path / "y.csv"
    rc = cli.main(["generate", "--model", str(model_file), "--T", "1",
                   "--steps", "1000", "--seed", "7",
                   "--out-u", str(u_path), "--out-y", str(y_path)])
    assert rc == 0
    return u_path, y_path


class TestGenerate:
    def test_writes_both_files(self, data_files):
        u_path, y_path = data_files
        u = p.load_signal_csv(u_path)
        y = p.load_signal_csv(y_path)
        assert u.grid.steps == 1000
        assert y.values[0, 0] == 3.0

    def test_zero_std_constant_input(self, tmp_path, model_file):
        u_path = tmp_path / "u0.csv"
        rc = cli.main(["generate", "--model", str(model_file), "--std", "0",
                       "--out-u", str(u_path), "--out-y", str(tmp_path / "y0.csv")])
        assert rc == 0
        assert np.all(p.load_signal_csv(u_path).values == 1.0)

    def test_missing_model_flag_is_usage_error(self, tmp_path, capsys):
        rc = cli.main(["generate", "--out-u", str(tmp_path / "u.csv"),
                       "--out-y", str(tmp_path / "y.csv")])
        assert rc == 1
        assert "model" in capsys.readouterr().err

    def test_nonexistent_model_file(self, tmp_path):
        rc = cli.main(["generate", "--model", str(tmp_path / "nope.json"),
                       "--out-u", str(tmp_path / "u.csv"),
                       "--out-y", str(tmp_path / "y.csv")])
        assert rc == 1

    @pytest.mark.parametrize("flag, value", [("--std", "inf"), ("--mean", "nan"),
                                             ("--std", "nan"), ("--mean", "inf")])
    def test_non_finite_noise_setting_is_input_error(self, tmp_path, model_file, capsys,
                                                     flag, value):
        rc = cli.main(["generate", "--model", str(model_file), flag, value,
                       "--out-u", str(tmp_path / "u.csv"), "--out-y", str(tmp_path / "y.csv")])
        assert rc == 1
        assert f"{flag[2:]} must be a finite real number" in capsys.readouterr().err
        assert not (tmp_path / "u.csv").exists()

    @pytest.mark.parametrize("n, k", [(2.7, True), ("2", 1)])
    def test_non_integer_model_dimensions_are_input_error(self, tmp_path, capsys, n, k):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"n": n, "k": k, "J": [[0.0, 1.0], [-1.0, 0.0]],
                                    "R": [[0.5, 0.0], [0.0, 0.3]], "B": [[1.0], [1.0]],
                                    "x_hat": [1.0, 2.0]}))
        rc = cli.main(["generate", "--model", str(path),
                       "--out-u", str(tmp_path / "u.csv"), "--out-y", str(tmp_path / "y.csv")])
        assert rc == 1
        assert "fields 'n' and 'k' must be integers" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["J", "x_hat"])
    def test_integer_too_large_for_a_float_in_model_is_input_error(self, tmp_path, capsys,
                                                                    field):
        model = {"n": 2, "k": 1, "J": [[0, 1], [-1, 0]], "R": [[0.5, 0.0], [0.0, 0.3]],
                 "B": [[1.0], [1.0]], "x_hat": [1.0, 2.0]}
        if field == "J":
            model["J"] = [[0, 10**400], [-10**400, 0]]
        else:
            model["x_hat"] = [10**400, 2.0]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        rc = cli.main(["generate", "--model", str(path),
                       "--out-u", str(tmp_path / "u.csv"), "--out-y", str(tmp_path / "y.csv")])
        assert rc == 1
        assert (capsys.readouterr().err
                == f"error: field '{field}' has an entry too large for a float\n")
        assert not (tmp_path / "u.csv").exists()

    def test_env_seed_fallback(self, tmp_path, model_file, monkeypatch):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        monkeypatch.setenv("PHSID_SEED", "13")
        cli.main(["generate", "--model", str(model_file),
                  "--out-u", str(out_a), "--out-y", str(tmp_path / "ya.csv")])
        monkeypatch.delenv("PHSID_SEED")
        cli.main(["generate", "--model", str(model_file), "--seed", "13",
                  "--out-u", str(out_b), "--out-y", str(tmp_path / "yb.csv")])
        assert out_a.read_bytes() == out_b.read_bytes()


class TestSimulate:
    def test_euler_and_midpoint(self, tmp_path, model_file, data_files):
        u_path, _ = data_files
        for scheme in ("euler", "midpoint"):
            out = tmp_path / f"w_{scheme}.csv"
            energy = tmp_path / f"e_{scheme}.csv"
            rc = cli.main(["simulate", "--model", str(model_file),
                           "--input", str(u_path), "--scheme", scheme,
                           "--out", str(out), "--energy-out", str(energy)])
            assert rc == 0
        euler = p.load_trajectory_csv(tmp_path / "w_euler.csv")
        midpoint = p.load_trajectory_csv(tmp_path / "w_midpoint.csv")
        assert not np.array_equal(euler.states, midpoint.states)
        # midpoint satisfies the balance identity to round-off
        residual = [float(line.split(",")[2]) for line in
                    (tmp_path / "e_midpoint.csv").read_text().splitlines()[1:]]
        assert max(abs(r) for r in residual) <= 1e-10

    def test_midpoint_skew_only_constant_energy(self, tmp_path):
        full = p.PHSystem(
            p.SkewSymmetricMatrix.from_matrix([[0.0, 2.0], [-2.0, 0.0]]),
            p.PSDMatrix.zeros(2), p.SPDMatrix.identity(2),
            np.array([[1.0], [0.0]]), np.array([1.0, 1.0]))
        model = tmp_path / "skew.json"
        p.save_model(full, model)
        u = p.Signal.zeros(p.TimeGrid(1.0, 200), 1)
        u_path = tmp_path / "uz.csv"
        p.save_signal_csv(u, u_path)
        energy = tmp_path / "e.csv"
        rc = cli.main(["simulate", "--model", str(model), "--input", str(u_path),
                       "--scheme", "midpoint", "--out", str(tmp_path / "w.csv"),
                       "--energy-out", str(energy)])
        assert rc == 0
        h_column = [float(line.split(",")[1]) for line in
                    energy.read_text().splitlines()[1:]]
        assert max(h_column) - min(h_column) <= 1e-12

    def test_energy_file_equals_per_value_reference(self, tmp_path, model_file, monkeypatch):
        # three-row chunks, so the 11 rows end in a partial chunk
        monkeypatch.setattr(data_io, "_CHUNK_ROWS", 3)
        u = p.generate_input(p.TimeGrid(1.0, 10), 1, p.NoiseSpec(seed=3))
        u_path, w_path, e_path = tmp_path / "u.csv", tmp_path / "w.csv", tmp_path / "e.csv"
        p.save_signal_csv(u, u_path)
        rc = cli.main(["simulate", "--model", str(model_file), "--input", str(u_path),
                       "--scheme", "midpoint", "--out", str(w_path), "--energy-out", str(e_path)])
        assert rc == 0
        traj = p.load_trajectory_csv(w_path)
        energy = p.hamiltonian(traj)
        residual = p.energy_balance_residual(p.cholesky_reduce(p.load_model(model_file)), traj, u)
        times = traj.grid.times()
        lines = ["t,H,residual", f"0,{energy[0]:.17g},0"]
        for j in range(traj.grid.steps):
            lines.append(f"{times[j + 1]:.17g},{energy[j + 1]:.17g},{residual[j]:.17g}")
        assert e_path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_mismatched_input_ports(self, tmp_path, model_file):
        u = p.Signal.zeros(p.TimeGrid(1.0, 10), 2)
        u_path = tmp_path / "u2.csv"
        p.save_signal_csv(u, u_path)
        rc = cli.main(["simulate", "--model", str(model_file), "--input", str(u_path),
                       "--out", str(tmp_path / "w.csv")])
        assert rc == 1

    def test_divergence_exits_with_numerical_failure(self, tmp_path, capsys):
        sys = diverging_system()
        model = tmp_path / "diverging.json"
        p.save_model(p.PHSystem(sys.J, sys.R, p.SPDMatrix.identity(2), sys.B, sys.w_hat),
                     model)
        u_path = tmp_path / "uz.csv"
        p.save_signal_csv(p.Signal.zeros(p.TimeGrid(1.0, 10), 1), u_path)
        rc = cli.main(["simulate", "--model", str(model), "--input", str(u_path),
                       "--scheme", "euler", "--out", str(tmp_path / "w.csv")])
        assert rc == 3
        assert capsys.readouterr().err == (
            "numerical failure: state became non-finite at step 2 (explicit Euler)\n")
        assert not (tmp_path / "w.csv").exists()

    def test_energy_overflow_exits_with_numerical_failure(self, tmp_path, capsys):
        # the Euler states stay finite, but H = |w|^2 / 2 and the balance
        # residual do not, and no file may hold inf or nan
        model = tmp_path / "loud.json"
        p.save_model(p.PHSystem(p.SkewSymmetricMatrix.from_matrix([[0.0, 1.0], [-1.0, 0.0]]),
                                p.PSDMatrix.from_matrix([[0.5, 0.0], [0.0, 0.3]]),
                                p.SPDMatrix.identity(2), np.array([[1e16], [1.0]]),
                                np.array([1.0, 1e200])), model)
        u_path = tmp_path / "u.csv"
        p.save_signal_csv(p.generate_input(p.TimeGrid(1.0, 100), 1, p.NoiseSpec(seed=0)), u_path)
        rc = cli.main(["simulate", "--model", str(model), "--input", str(u_path),
                       "--scheme", "euler", "--out", str(tmp_path / "w.csv"),
                       "--energy-out", str(tmp_path / "e.csv")])
        assert rc == 3
        assert capsys.readouterr().err == (
            "numerical failure: energy became non-finite at step 0 (--energy-out)\n")
        assert not (tmp_path / "e.csv").exists() and not (tmp_path / "w.csv").exists()

    def test_output_conventions_named_in_header(self, tmp_path, model_file, data_files):
        u_path, _ = data_files
        cli.main(["simulate", "--model", str(model_file), "--input", str(u_path),
                  "--scheme", "midpoint", "--out", str(tmp_path / "w.csv"),
                  "--out-y", str(tmp_path / "y.csv")])
        assert (tmp_path / "y.csv").read_text().splitlines()[0] == "t,y_mid_1"


class TestCalibrate:
    def test_full_identification_run(self, tmp_path, guess_file, data_files):
        u_path, y_path = data_files
        out = tmp_path / "res.json"
        hist = tmp_path / "hist.csv"
        diff = tmp_path / "diff.csv"
        rc = cli.main(["calibrate", "--data", str(y_path), "--input", str(u_path),
                       "--guess", str(guess_file), "--out", str(out),
                       "--history", str(hist), "--diff", str(diff)])
        assert rc == 0
        obj = json.loads(out.read_text())
        assert obj["converged"] is True
        assert obj["final_cost"] <= 1e-4
        costs, sigmas = p.load_history_csv(hist)
        # history rows: the initial cost plus one per accepted step
        assert len(costs) == obj["iterations"] + 1
        assert 10 <= obj["iterations"] <= 45
        diff_sig = p.load_signal_csv(diff)
        assert diff_sig.grid.steps == 1000

    def test_truth_guess_converges_in_zero_steps(self, tmp_path, model_file, data_files):
        u_path, y_path = data_files
        rc = cli.main(["calibrate", "--data", str(y_path), "--input", str(u_path),
                       "--guess", str(model_file), "--out", str(tmp_path / "r.json"),
                       "--history", str(tmp_path / "h.csv"),
                       "--diff", str(tmp_path / "d.csv")])
        assert rc == 0
        costs, _ = p.load_history_csv(tmp_path / "h.csv")
        assert len(costs) == 1

    def test_diagonal_structure_flag(self, tmp_path, guess_file, data_files):
        u_path, y_path = data_files
        out = tmp_path / "res.json"
        rc = cli.main(["calibrate", "--data", str(y_path), "--input", str(u_path),
                       "--guess", str(guess_file), "--structure", "diagonal_R",
                       "--out", str(out), "--history", str(tmp_path / "h.csv"),
                       "--diff", str(tmp_path / "d.csv")])
        assert rc == 0
        r_opt = np.array(json.loads(out.read_text())["R"])
        assert r_opt[0, 1] == 0.0 and r_opt[1, 0] == 0.0

    def test_non_convergence_exit_code(self, tmp_path, guess_file, data_files):
        u_path, y_path = data_files
        rc = cli.main(["calibrate", "--data", str(y_path), "--input", str(u_path),
                       "--guess", str(guess_file), "--max-iter", "1",
                       "--out", str(tmp_path / "r.json"),
                       "--history", str(tmp_path / "h.csv"),
                       "--diff", str(tmp_path / "d.csv")])
        assert rc == 2

    def test_config_file_with_flag_override(self, tmp_path, guess_file, data_files):
        u_path, y_path = data_files
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"max_iter": 1}))
        rc = cli.main(["calibrate", "--data", str(y_path), "--input", str(u_path),
                       "--guess", str(guess_file), "--config", str(cfg_path),
                       "--max-iter", "60",
                       "--out", str(tmp_path / "r.json"),
                       "--history", str(tmp_path / "h.csv"),
                       "--diff", str(tmp_path / "d.csv")])
        assert rc == 0  # the flag overrides the file's crippling max_iter

    def test_infinite_eps_stop_in_config_is_input_error(self, tmp_path, guess_file, data_files,
                                                        capsys):
        # an infinite threshold would report convergence in 0 steps
        u_path, y_path = data_files
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"eps_stop": Infinity}')
        rc = cli.main(["calibrate", "--data", str(y_path), "--input", str(u_path),
                       "--guess", str(guess_file), "--config", str(cfg_path),
                       "--out", str(tmp_path / "r.json"),
                       "--history", str(tmp_path / "h.csv"),
                       "--diff", str(tmp_path / "d.csv")])
        assert rc == 1
        assert "eps_stop" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_integer_too_large_for_a_float_in_config_is_input_error(self, tmp_path, guess_file,
                                                                     data_files, capsys):
        u_path, y_path = data_files
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sigma_init": 10**400}))
        rc = cli.main(["calibrate", "--data", str(y_path), "--input", str(u_path),
                       "--guess", str(guess_file), "--config", str(cfg_path),
                       "--out", str(tmp_path / "r.json"),
                       "--history", str(tmp_path / "h.csv"),
                       "--diff", str(tmp_path / "d.csv")])
        assert rc == 1
        assert (capsys.readouterr().err
                == "error: invalid config: sigma_init must be positive and finite\n")
        assert not (tmp_path / "r.json").exists()

    def test_start_cost_overflow_exits_with_numerical_failure(self, tmp_path, data_files,
                                                             capsys):
        u_path, y_path = data_files
        v = oscillator_guess()
        guess = tmp_path / "loud.json"
        p.save_model(p.PHSystem(v.J, v.R, p.SPDMatrix.identity(2), np.array([[1.0], [1.0]]),
                                np.array([1e-300, 1e300])), guess)
        rc = cli.main(["calibrate", "--data", str(y_path), "--input", str(u_path),
                       "--guess", str(guess), "--out", str(tmp_path / "r.json"),
                       "--history", str(tmp_path / "h.csv"),
                       "--diff", str(tmp_path / "d.csv")])
        assert rc == 3
        assert capsys.readouterr().err == (
            "numerical failure: cost became non-finite (cost evaluation)\n")
        assert not (tmp_path / "r.json").exists()

    def test_invalid_guess_rejected(self, tmp_path, data_files):
        u_path, y_path = data_files
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "n": 2, "k": 1,
            "J": [[0.0, 1.0], [-0.5, 0.0]],
            "R": [[0.5, 0.0], [0.0, 0.3]],
            "B": [[1.0], [1.0]],
            "x_hat": [1.0, 2.0],
        }))
        rc = cli.main(["calibrate", "--data", str(y_path), "--input", str(u_path),
                       "--guess", str(bad), "--out", str(tmp_path / "r.json"),
                       "--history", str(tmp_path / "h.csv"),
                       "--diff", str(tmp_path / "d.csv")])
        assert rc == 1


class _Captured(Exception):
    """Raised by the stand-in for ``calibrate`` once it has the config."""


def _non_default(f):
    """A valid value of CalibrationConfig field ``f`` other than its default."""
    if "choices" in f.metadata:
        return next(c for c in f.metadata["choices"] if c != f.default)
    if type(f.default) is int:
        return f.default + 1
    if type(f.default) is float:
        return f.default / 2
    pytest.fail(f"no flag value known for {f.name} = {f.default!r}")


class TestCalibrationSettings:
    @pytest.fixture
    def received(self, monkeypatch):
        """The configs ``phsid calibrate`` hands to ``calibrate``."""
        configs = []

        def capture(v0, u, y_data, b, cfg):
            configs.append(cfg)
            raise _Captured
        monkeypatch.setattr(cli, "calibrate", capture)
        return configs

    @staticmethod
    def run(tmp_path, guess_file, data_files, *extra):
        u_path, y_path = data_files
        return cli.main(["calibrate", "--data", str(y_path), "--input", str(u_path),
                         "--guess", str(guess_file), "--out", str(tmp_path / "r.json"),
                         "--history", str(tmp_path / "h.csv"),
                         "--diff", str(tmp_path / "d.csv"), *extra])

    @pytest.mark.parametrize("f", dataclasses.fields(p.CalibrationConfig), ids=lambda f: f.name)
    def test_every_setting_reaches_calibrate(self, tmp_path, guess_file, data_files,
                                             received, f):
        # by its flag and by its config key; the flag must also give back
        # the default, which a bool typed by its default would not
        flag = "--" + f.name.replace("_", "-")
        cfg_path = tmp_path / "cfg.json"
        value = _non_default(f)
        cfg_path.write_text(json.dumps({f.name: value}))
        for extra, expected in (([flag, str(value)], value),
                                ([flag, str(f.default)], f.default),
                                (["--config", str(cfg_path)], value)):
            with pytest.raises(_Captured):
                self.run(tmp_path, guess_file, data_files, *extra)
            cfg = received.pop()
            assert cfg == p.CalibrationConfig(**{f.name: expected}), extra
            assert type(getattr(cfg, f.name)) is type(expected), extra

    @pytest.mark.parametrize("name, bad", [("structure", "banded")])
    def test_unknown_choice_rejected_with_its_name(self, tmp_path, guess_file, data_files,
                                                   received, capsys, name, bad):
        flag = "--" + name.replace("_", "-")
        assert self.run(tmp_path, guess_file, data_files, flag, bad) == 1
        assert f"argument {flag}: invalid choice: '{bad}'" in capsys.readouterr().err
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({name: bad}))
        assert self.run(tmp_path, guess_file, data_files, "--config", str(cfg_path)) == 1
        assert capsys.readouterr().err == f"error: invalid config: unknown {name} '{bad}'\n"
        assert received == []

    def test_removed_psd_mode_flag_is_a_usage_error(self, tmp_path, guess_file, data_files,
                                                    received, capsys):
        assert self.run(tmp_path, guess_file, data_files, "--psd-mode", "project") == 1
        assert "unrecognized arguments: --psd-mode project" in capsys.readouterr().err
        assert received == []

    def test_non_numeric_setting_rejected_with_its_name(self, tmp_path, guess_file, data_files,
                                                       received, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sigma_init": "10"}))
        assert self.run(tmp_path, guess_file, data_files, "--config", str(cfg_path)) == 1
        assert (capsys.readouterr().err
                == "error: invalid config: sigma_init must be a real number, got '10'\n")
        assert received == []


class TestCheckGradient:
    def test_passes_at_detuned_guess(self, guess_file, data_files, capsys):
        u_path, y_path = data_files
        rc = cli.main(["check-gradient", "--data", str(y_path),
                       "--input", str(u_path), "--guess", str(guess_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gradient check passed" in out
        assert out.count(" ok") == 6

    def test_passes_at_perfect_fit_via_absolute_fallback(self, model_file, data_files):
        u_path, y_path = data_files
        rc = cli.main(["check-gradient", "--data", str(y_path),
                       "--input", str(u_path), "--guess", str(model_file)])
        assert rc == 0

    def test_corrupted_sensitivities_detected(self, guess_file, data_files, monkeypatch):
        u_path, y_path = data_files

        def corrupted(sys, traj, y_data, basis):
            coeffs = p.sensitivity_coefficients(sys, traj, y_data, basis)
            return coeffs + 0.05
        monkeypatch.setattr(cli, "sensitivity_coefficients", corrupted)
        rc = cli.main(["check-gradient", "--data", str(y_path),
                       "--input", str(u_path), "--guess", str(guess_file)])
        assert rc == 3

    @pytest.mark.parametrize("eps", ["nan", "inf", "0"])
    def test_invalid_eps_is_input_error(self, guess_file, data_files, capsys, eps):
        u_path, y_path = data_files
        rc = cli.main(["check-gradient", "--data", str(y_path), "--input", str(u_path),
                       "--guess", str(guess_file), "--eps", eps])
        assert rc == 1
        err = capsys.readouterr().err
        assert "eps must be positive and finite" in err
        assert "Warning" not in err


class TestReport:
    def test_summarizes_run(self, tmp_path, guess_file, data_files, capsys):
        u_path, y_path = data_files
        hist = tmp_path / "h.csv"
        diff = tmp_path / "d.csv"
        cli.main(["calibrate", "--data", str(y_path), "--input", str(u_path),
                  "--guess", str(guess_file), "--out", str(tmp_path / "r.json"),
                  "--history", str(hist), "--diff", str(diff)])
        capsys.readouterr()
        rc = cli.main(["report", "--history", str(hist), "--diff", str(diff)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "final cost" in out
        final_cost = float(out.split("final cost:")[1].split()[0])
        assert final_cost <= 1e-4
        # converged fit: the residual is small next to the data scale
        max_diff = float(out.split("max |y_data - y_opt|:")[1].split()[0])
        y = p.load_signal_csv(y_path)
        assert max_diff / np.abs(y.values).max() < 0.05

    def test_empty_history_is_input_error(self, tmp_path):
        hist = tmp_path / "h.csv"
        hist.write_text("")
        diff = tmp_path / "d.csv"
        diff.write_text("t,diff_1\n0,0\n1,0\n")
        assert cli.main(["report", "--history", str(hist), "--diff", str(diff)]) == 1

    def test_malformed_history_is_input_error(self, tmp_path, capsys):
        hist = tmp_path / "h.csv"
        hist.write_text("iter,cost,sigma\n0,1.0,\n1,nan,0.5\n")
        diff = tmp_path / "d.csv"
        diff.write_text("t,diff_1\n0,0\n1,0\n")
        assert cli.main(["report", "--history", str(hist), "--diff", str(diff)]) == 1
        assert ":3: cost must be finite" in capsys.readouterr().err

    def test_missing_diff_is_input_error(self, tmp_path):
        hist = tmp_path / "h.csv"
        hist.write_text("iter,cost,sigma\n0,1.0,\n")
        assert cli.main(["report", "--history", str(hist),
                         "--diff", str(tmp_path / "missing.csv")]) == 1


class TestDeterminism:
    def test_repeated_calibrate_byte_identical(self, tmp_path, guess_file, data_files):
        u_path, y_path = data_files
        outputs = []
        for tag in ("a", "b"):
            res = tmp_path / f"res_{tag}.json"
            hist = tmp_path / f"hist_{tag}.csv"
            diff = tmp_path / f"diff_{tag}.csv"
            rc = cli.main(["calibrate", "--data", str(y_path), "--input", str(u_path),
                           "--guess", str(guess_file), "--out", str(res),
                           "--history", str(hist), "--diff", str(diff)])
            assert rc == 0
            outputs.append((res.read_bytes(), hist.read_bytes(), diff.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_repeated_generate_byte_identical(self, tmp_path, model_file):
        blobs = []
        for tag in ("a", "b"):
            u = tmp_path / f"u_{tag}.csv"
            y = tmp_path / f"y_{tag}.csv"
            rc = cli.main(["generate", "--model", str(model_file), "--seed", "3",
                           "--out-u", str(u), "--out-y", str(y)])
            assert rc == 0
            blobs.append((u.read_bytes(), y.read_bytes()))
        assert blobs[0] == blobs[1]


@pytest.mark.skipif(blas._get is None, reason="numpy's BLAS is not its bundled OpenBLAS")
def test_simulate_and_check_gradient_run_on_one_blas_thread(tmp_path, model_file, guess_file,
                                                              data_files, monkeypatch):
    u_path, y_path = data_files
    threads = []

    def recording(function):
        def wrapped(*args):
            threads.append(blas._get())
            return function(*args)
        return wrapped

    monkeypatch.setattr(cli, "simulate_euler", recording(p.simulate_euler))
    monkeypatch.setattr(cli, "simulate_discrete_gradient",
                        recording(p.simulate_discrete_gradient))
    monkeypatch.setattr(cli, "sensitivity_coefficients", recording(p.sensitivity_coefficients))
    for scheme in ("euler", "midpoint"):
        assert cli.main(["simulate", "--model", str(model_file), "--input", str(u_path),
                         "--scheme", scheme, "--out", str(tmp_path / f"w_{scheme}.csv")]) == 0
    assert cli.main(["check-gradient", "--data", str(y_path), "--input", str(u_path),
                     "--guess", str(guess_file)]) == 0
    assert threads == [1] * 4
