import json

import numpy as np
import pytest

import phsid as p
import phsid.cli as cli
from conftest import oscillator_guess, oscillator_system


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

    def test_mismatched_input_ports(self, tmp_path, model_file):
        u = p.Signal.zeros(p.TimeGrid(1.0, 10), 2)
        u_path = tmp_path / "u2.csv"
        p.save_signal_csv(u, u_path)
        rc = cli.main(["simulate", "--model", str(model_file), "--input", str(u_path),
                       "--out", str(tmp_path / "w.csv")])
        assert rc == 1

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
