"""The benchmark's workloads: inputs made from the seed, one round of
operations, and the checks each operation's outputs must pass.

An operation is one ``calibrate`` call, one simulation of an identified model
over the long horizon, or one ``phsid`` subcommand.  A run repeats whole
rounds; every round attempts the same operations on the same inputs.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import phsid
import phsid.cli

import checks
import pace

STEPS_PER_UNIT = 1000          # every grid here has h = 1e-3
H = 1.0 / STEPS_PER_UNIT
LONG_STEPS = 10_000            # horizon over which identified models are simulated


def sub_seed(seed: int, *keys: int) -> int:
    """A 64-bit seed derived from the run's seed and a path of keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1, np.uint64)[0])


class OperationFailed(Exception):
    pass


@dataclass
class Ledger:
    """Operations attempted and failed, and the checks deferred until timing ends."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    notes: list = field(default_factory=list)
    pending: list = field(default_factory=list)

    def run(self, label, fn, *args):
        """Run ``fn(*args)`` as one operation and time it in reference
        seconds (see pace.py).  A phsid error or a failed subcommand counts
        as a failed operation and yields ``None``."""
        self.attempted += 1

        def attempt():
            try:
                return fn(*args)
            except (phsid.PhsidError, OperationFailed) as exc:
                self.failed += 1
                self.notes.append(f"{label}: {type(exc).__name__}: {exc}")
                return None

        return pace.timed(attempt)

    def defer(self, label, check, *args, output=None):
        """Check later.  ``output`` fingerprints the operation and everything
        the check reads: an output identical to one checked before gets that
        check's verdict, so repeated rounds cost one check each."""
        self.pending.append((label, check, args, output))

    def verify(self):
        verdicts = {}
        for label, check, args, output in self.pending:
            if output in verdicts:
                error = verdicts[output]
            else:
                try:
                    check(*args)
                    error = None
                except checks.CheckFailed as exc:
                    error = str(exc)
                if output is not None:
                    verdicts[output] = error
            if error is not None:
                self.failed += 1
                self.correct = False
                self.notes.append(f"{label}: check failed: {error}")
        self.pending.clear()


class RoundStats(dict):
    """Time of each operation of one round, in reference seconds, keyed by
    the operation's place in the round, which is the same in every round."""

    def add(self, key: str, seconds: float, kind: str = "other", steps: int = 0) -> None:
        """``kind`` is "calibrate", "simulate" or "other"; ``steps`` counts
        the steps a simulation integrates."""
        self[key] = (kind, steps, seconds)


def end_to_end(rounds: list[RoundStats]) -> dict:
    """End-to-end figures from each operation's mean time over the run's
    rounds, in reference seconds (pace.py).  Every round repeats the same
    operations on the same inputs, so the rounds are repeated measurements
    of one round.

    Means, not medians: the loop and the operations slow by somewhat
    different factors in the host's slow phases (about 1.7x against
    1.4-1.7x), so an operation's reference times fall into one cluster per
    phase, and a median jumps between the clusters as the share of each
    phase changes from run to run.  Over three sets of five runs the mean
    spread 0.05-0.08 (IQR/median) and the median 0.06-0.11.
    """
    times, kinds = {}, {}
    for r in rounds:
        for key, (kind, steps, seconds) in r.items():
            times.setdefault(key, []).append(seconds)
            kinds[key] = (kind, steps)
    means = {key: statistics.fmean(t) for key, t in times.items()}
    calls = [means[k] for k, (kind, _) in kinds.items() if kind == "calibrate"]
    sims = [k for k, (kind, _) in kinds.items() if kind == "simulate"]
    sim_s = sum(means[k] for k in sims)   # 0 only when every calibrate failed
    return {
        "calibrate_s": (sum(calls) / len(calls), "s"),
        "pipeline_s": (sum(means.values()), "s"),
        "simulate_steps_per_s": (
            sum(kinds[k][1] for k in sims) / sim_s if sim_s else 0.0, "steps/s"),
    }


# --------------------------------------------------------------------------
# models

def oscillator_truth() -> phsid.ReducedPHSystem:
    """The paper's damped oscillator."""
    return phsid.ReducedPHSystem(
        phsid.SkewSymmetricMatrix.from_matrix([[0.0, 1.0], [-1.0, 0.0]]),
        phsid.PSDMatrix.from_matrix([[0.5, 0.0], [0.0, 0.3]]),
        np.array([[1.0], [1.0]]),
        np.array([1.0, 2.0]),
    )


def oscillator_guess() -> phsid.ParameterPoint:
    """The start point the test suite calibrates the oscillator from."""
    return phsid.ParameterPoint(
        phsid.SkewSymmetricMatrix.from_matrix([[0.0, 1.2], [-1.2, 0.0]]),
        phsid.PSDMatrix.from_matrix([[0.4, 0.0], [0.0, 0.4]]),
        np.array([1.1, 1.95]),
    )


def random_model(seed: int, n: int, k: int, rel: float = 0.1):
    """A random reduced PH truth and a start point about ``rel`` away from it.

    J = skew part of 0.3 Z, R = L L^T with L = tril(Z)/sqrt(n), B = Z/sqrt(n),
    w_hat = Z (Z standard normal, Philox keyed with ``seed``).  The start
    scales the free entries of J, the entries of L and w_hat by (1 + rel Z).
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    j_lower = 0.3 * np.tril(rng.normal(size=(n, n)), -1)
    factor = np.tril(rng.normal(size=(n, n))) / np.sqrt(n)
    b = rng.normal(size=(n, k)) / np.sqrt(n)
    w_hat = rng.normal(size=n)
    truth = phsid.ReducedPHSystem(phsid.SkewSymmetricMatrix.from_strict_lower(j_lower),
                                  phsid.PSDMatrix.from_matrix(factor @ factor.T), b, w_hat)
    factor_0 = factor * (1 + rel * rng.normal(size=(n, n)))
    start = phsid.ParameterPoint(
        phsid.SkewSymmetricMatrix.from_strict_lower(j_lower * (1 + rel * rng.normal(size=(n, n)))),
        phsid.PSDMatrix.from_matrix(factor_0 @ factor_0.T),
        w_hat * (1 + rel * rng.normal(size=n)),
    )
    return truth, start


def grid(steps: int) -> phsid.TimeGrid:
    return phsid.TimeGrid(steps / STEPS_PER_UNIT, steps)


# --------------------------------------------------------------------------
# calibration workloads

@dataclass
class Problem:
    """One identification problem: data, start point and settings."""

    start: phsid.ParameterPoint
    u: phsid.Signal
    y: phsid.Signal
    b: np.ndarray
    cfg: phsid.CalibrationConfig
    start_gradient_sq: float | None = None   # |g|^2 at the start, once checked


def _calibrate_and_simulate(ledger: Ledger, stats: RoundStats, index: int, key: str,
                            prob: Problem, u_long: phsid.Signal) -> None:
    """Calibrate, then simulate the identified model over the long horizon
    with both schemes: what a user runs to get and use a model."""
    label = f"round {index} {key}"
    res, dt = ledger.run(f"{label} calibrate", phsid.calibrate, prob.start, prob.u, prob.y,
                         prob.b, prob.cfg)
    stats.add(f"{key} calibrate", dt, "calibrate")
    if res is None:
        return
    v = res.v_opt
    ledger.defer(f"{label} calibrate", _check_calibration, prob, res,
                 output=(key, _digest(v.J.array, v.R.array, v.w_hat, res.y_opt.values,
                                      res.cost_history, res.gradient_sq_norms)))
    identified = res.v_opt.to_system(prob.b)
    for scheme in SCHEMES:
        traj, dt = ledger.run(f"{label} simulate {scheme}", _simulate, scheme, identified, u_long)
        stats.add(f"{key} simulate {scheme}", dt, "simulate", u_long.grid.steps)
        if traj is not None:
            # keep a digest, not the states, so that peak memory does not grow
            # with the number of rounds; the check recomputes and matches it
            digest = _digest(traj.states)
            ledger.defer(f"{label} simulate {scheme}", _check_long_horizon, scheme, identified,
                         u_long, digest, output=(key, scheme, digest, _digest(
                             identified.J.array, identified.R.array, identified.w_hat)))


SCHEMES = {"euler": "simulate_euler", "midpoint": "simulate_discrete_gradient"}


def _simulate(scheme: str, sys: phsid.ReducedPHSystem, u: phsid.Signal) -> phsid.Trajectory:
    # resolved at call time, so that a traced run sees its wrapper
    return getattr(phsid, SCHEMES[scheme])(sys, u)


def _digest(*arrays) -> str:
    sha = hashlib.sha256()
    for a in arrays:
        sha.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return sha.hexdigest()


def _check_long_horizon(scheme: str, identified: phsid.ReducedPHSystem, u_long: phsid.Signal,
                        digest: str) -> None:
    states = _simulate(scheme, identified, u_long).states
    checks.require(_digest(states) == digest, f"{scheme} states are not reproducible")
    checks.check_long_horizon(scheme, identified.J.array, identified.R.array, identified.B,
                              identified.w_hat, u_long.values, u_long.grid.h, states)


def _check_calibration(prob: Problem, res) -> None:
    v = res.v_opt
    checks.require(res.converged, f"not converged: {res.message}")
    checks.check_structure(v.J.array, v.R.array, res.cost_history, prob.cfg.eps_stop,
                           diagonal_r=prob.cfg.structure == phsid.STRUCTURE_DIAGONAL_R)
    checks.check_fit(v.J.array, v.R.array, prob.b, v.w_hat, prob.u.values, prob.y.values,
                     prob.u.grid.h, res.y_opt.values, res.final_cost)
    if prob.start_gradient_sq is None:
        # phsid's gradient at the start point against central differences of
        # the replay, once per problem: every round starts from the same point
        s0 = prob.start
        sys0 = s0.to_system(prob.b)
        basis = phsid.tangent_basis(s0.n, prob.cfg.structure)
        coeffs = phsid.sensitivity_coefficients(sys0, phsid.simulate_euler(sys0, prob.u),
                                                prob.y, basis)
        checks.check_gradient(s0.J.array, s0.R.array, prob.b, s0.w_hat, prob.u.values,
                              prob.y.values, prob.u.grid.h, basis.labels, coeffs)
        prob.start_gradient_sq = float(np.dot(coeffs, coeffs))
    # ties the checked gradient, bit for bit, to the one calibrate used
    checks.require(res.gradient_sq_norms[0] == prob.start_gradient_sq,
                   "first gradient differs from the checked one")


class Workload:
    """Builds a run's inputs from the seed and runs one round on them."""

    def __init__(self, workdir: Path, tracer=None):
        self.workdir = workdir
        self.tracer = tracer


class WideN8(Workload):
    """Random n=8, k=2 truths of model seeds 0 and 6, fixed across runs.
    A round calibrates each, then simulates its identified model."""

    models = (0, 6)

    def setup(self, seed: int):
        problems = []
        for m in self.models:
            truth, start = random_model(m, 8, 2)
            u, y = phsid.generate_reference(truth, grid(STEPS_PER_UNIT),
                                            phsid.NoiseSpec(seed=sub_seed(seed, 3, m)))
            problems.append(Problem(start, u, y, truth.B, phsid.CalibrationConfig(max_iter=400)))
        u_long = phsid.generate_input(grid(LONG_STEPS), 2, phsid.NoiseSpec(seed=sub_seed(seed, 4)))
        return problems, u_long

    def round(self, ledger: Ledger, inputs, index: int) -> RoundStats:
        problems, u_long = inputs
        stats = RoundStats()
        for m, prob in zip(self.models, problems):
            _calibrate_and_simulate(ledger, stats, index, f"model {m}", prob, u_long)
        return stats


# --------------------------------------------------------------------------
# command line on files

def _phsid_main(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = phsid.cli.main(argv)
    if code != 0:
        raise OperationFailed(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


class CliLong(Workload):
    """generate / simulate (both schemes) at K=1e5, calibrate + report at K=1e3."""

    long_steps = 100_000
    t_long = long_steps / STEPS_PER_UNIT

    def __init__(self, workdir: Path, tracer=None):
        super().__init__(workdir, tracer)
        self.outputs = set()    # fingerprints of the rounds run so far

    def setup(self, seed: int):
        self.workdir.mkdir(parents=True, exist_ok=True)
        identity = phsid.SPDMatrix.identity(2)
        truth, start = oscillator_truth(), oscillator_guess()
        phsid.save_model(phsid.PHSystem(truth.J, truth.R, identity, truth.B, truth.w_hat),
                         self.workdir / "truth.json")
        phsid.save_model(phsid.PHSystem(start.J, start.R, identity, truth.B, start.w_hat),
                         self.workdir / "guess.json")
        return seed

    def _command(self, ledger, label, span, argv):
        if self.tracer is None:
            return ledger.run(label, _phsid_main, argv)
        return ledger.run(label, self._traced_main, span, argv)

    def _traced_main(self, span, argv):
        with self.tracer.span(f"cli.{span}"):
            return _phsid_main(argv)

    def round(self, ledger: Ledger, seed: int, index: int) -> RoundStats:
        files = _Files(Path(tempfile.mkdtemp(prefix=f"round{index}-", dir=self.workdir)),
                       self.long_steps, (sub_seed(seed, 5), sub_seed(seed, 6)))
        f = files.path
        truth, guess = str(self.workdir / "truth.json"), str(self.workdir / "guess.json")
        commands = [
            ("generate", _check_generate_long,
             ["generate", "--model", truth, "--T", str(self.t_long), "--steps",
              str(self.long_steps), "--seed", str(files.seeds[0]),
              "--out-u", f("u.csv"), "--out-y", f("y.csv")]),
            ("simulate_euler", _check_simulate_euler,
             ["simulate", "--model", truth, "--input", f("u.csv"), "--scheme", "euler",
              "--out", f("we.csv"), "--out-y", f("ye.csv")]),
            ("simulate_midpoint", _check_simulate_midpoint,
             ["simulate", "--model", truth, "--input", f("u.csv"), "--scheme", "midpoint",
              "--out", f("wm.csv"), "--out-y", f("ym.csv"), "--energy-out", f("energy.csv")]),
            ("generate", _check_generate_short,
             ["generate", "--model", truth, "--T", "1", "--steps", str(STEPS_PER_UNIT),
              "--seed", str(files.seeds[1]), "--out-u", f("u1.csv"), "--out-y", f("y1.csv")]),
            ("calibrate", functools.partial(_check_calibrate_files, structure="full"),
             ["calibrate", "--data", f("y1.csv"), "--input", f("u1.csv"), "--guess", guess,
              "--out", f("result.json"), "--history", f("history.csv"), "--diff", f("diff.csv")]),
            ("calibrate", functools.partial(_check_calibrate_files, structure="diagonal_R"),
             ["calibrate", "--data", f("y1.csv"), "--input", f("u1.csv"), "--guess", guess,
              "--structure", "diagonal_R", "--out", f("result_diagonal_R.json"),
              "--history", f("history_diagonal_R.csv"), "--diff", f("diff_diagonal_R.csv")]),
            ("report", _check_report,
             ["report", "--history", f("history.csv"), "--diff", f("diff.csv")]),
        ]
        stats, done = RoundStats(), []
        for place, (span, check, argv) in enumerate(commands):
            label = f"round {index} {span}"
            stdout, dt = self._command(ledger, label, span, argv)
            if stdout is not None:
                done.append((place, label, check, stdout))
            key = f"{place} {span}"
            if span.startswith("simulate"):
                stats.add(key, dt, "simulate", self.long_steps)
            else:
                stats.add(key, dt, "calibrate" if span == "calibrate" else "other")
        # every round writes the same files: a round whose files and printed
        # output equal an earlier round's gets its checks' verdicts, and its
        # files go at once; the others go once their checks have read them
        digests = []
        for path in sorted(files.dir.iterdir()):
            with open(path, "rb") as fh:
                digests.append((path.name, hashlib.file_digest(fh, "sha256").hexdigest()))
        fingerprint = (tuple(digests), tuple(stdout for *_, stdout in done))
        for place, label, check, stdout in done:
            ledger.defer(label, check, files, stdout, output=(place, fingerprint))
        if fingerprint in self.outputs:
            shutil.rmtree(files.dir)
        else:
            self.outputs.add(fingerprint)
            ledger.defer(f"round {index} clean-up", shutil.rmtree, files.dir, True)
        return stats


class _Files:
    """One cli-long round's files, each parsed at most once by the checks."""

    def __init__(self, directory: Path, steps: int, seeds):
        self.dir, self.steps, self.seeds = directory, steps, seeds
        truth = oscillator_truth()
        self.j, self.r, self.b, self.w0 = truth.J.array, truth.R.array, truth.B, truth.w_hat
        self._memo = {}

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def memo(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def columns(self, name: str, steps: int | None = None) -> np.ndarray:
        """Value columns of a grid CSV, after checking its time column is j*h exactly."""
        steps = steps or self.steps
        table = self.memo(name, lambda: checks.read_csv(self.path(name)))
        checks.require(np.array_equal(table[:, 0],
                                      checks.grid_times(steps, steps / STEPS_PER_UNIT)),
                       f"{name}: time column")
        return table[:, 1:]

    def history(self, name: str = "history.csv") -> np.ndarray:
        """The cost column of a history file."""
        return self.memo(name, lambda: checks.read_history(self.path(name)))

    def euler(self):
        """Replayed Euler states and outputs along the long input."""
        return self.memo("euler", lambda: checks.euler_replay(
            self.j - self.r, self.b, self.w0, self.columns("u.csv"), H))


def _check_generate_long(files: _Files, stdout: str) -> None:
    # the noise written is the documented recipe's, bit for bit
    checks.require(np.array_equal(files.columns("u.csv"),
                                  checks.noisy_input(files.seeds[0], files.steps + 1, 1)),
                   "u.csv differs from the noise recipe")
    checks.require(checks.rel_err(files.columns("y.csv"), files.euler()[1]) <= checks.REPLAY_RTOL,
                   "y.csv differs from the Euler replay")


def _check_simulate_euler(files: _Files, stdout: str) -> None:
    # simulate re-reads u.csv; a lossless round trip gives generate's output again
    checks.require(np.array_equal(files.columns("ye.csv"), files.columns("y.csv")),
                   "ye.csv differs from y.csv")
    checks.require(checks.rel_err(files.columns("we.csv"), files.euler()[0]) <= checks.REPLAY_RTOL,
                   "we.csv differs from the Euler replay")


def _check_simulate_midpoint(files: _Files, stdout: str) -> None:
    u, wm, y_mid = files.columns("u.csv"), files.columns("wm.csv"), files.columns("ym.csv")
    ref = checks.midpoint_replay(files.j - files.r, files.b, files.w0, u, H)
    checks.require(checks.rel_err(wm, ref) <= checks.REPLAY_RTOL, "wm.csv differs from the replay")
    checks.require(checks.rel_err(y_mid, checks.midpoint_y(wm, files.b)) <= checks.REPLAY_RTOL,
                   "ym.csv differs from the midpoint output of wm.csv")
    energy, residual = checks.power_balance(wm, u, y_mid, files.r, H)
    bound = checks.BALANCE_RTOL * energy.max()
    checks.require(np.abs(residual).max() <= bound, "power balance of the saved trajectory")
    written = files.columns("energy.csv")
    checks.require(checks.rel_err(written[:, 0], energy) <= checks.REPLAY_RTOL, "energy column")
    checks.require(np.abs(written[1:, 1]).max() <= bound, "residual column")


def _check_generate_short(files: _Files, stdout: str) -> None:
    u1 = files.columns("u1.csv", STEPS_PER_UNIT)
    checks.require(np.array_equal(u1, checks.noisy_input(files.seeds[1], STEPS_PER_UNIT + 1, 1)),
                   "u1.csv differs from the noise recipe")
    _, y = checks.euler_replay(files.j - files.r, files.b, files.w0, u1, H)
    checks.require(checks.rel_err(files.columns("y1.csv", STEPS_PER_UNIT), y)
                   <= checks.REPLAY_RTOL, "y1.csv differs from the Euler replay")


def _check_calibrate_files(files: _Files, stdout: str, structure: str) -> None:
    suffix = "" if structure == phsid.STRUCTURE_FULL else f"_{structure}"
    with open(files.path(f"result{suffix}.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    history = files.history(f"history{suffix}.csv")
    jr, rr, xr = (np.array(result[key]) for key in ("J", "R", "x_hat"))
    checks.require(result["converged"] and result["iterations"] == len(history) - 1,
                   "result and history files disagree")
    checks.require(result["final_cost"] == history[-1], "final cost differs from history")
    checks.check_structure(jr, rr, history, phsid.CalibrationConfig().eps_stop,
                           diagonal_r=structure == phsid.STRUCTURE_DIAGONAL_R)
    if structure == phsid.STRUCTURE_FULL:
        checks.check_oscillator_bands(jr, xr)
    u1, y1 = files.columns("u1.csv", STEPS_PER_UNIT), files.columns("y1.csv", STEPS_PER_UNIT)
    # the diff file holds y_data - y_opt, so y_opt is checked through it
    checks.check_fit(jr, rr, files.b, xr, u1, y1, H,
                     y1 - files.columns(f"diff{suffix}.csv", STEPS_PER_UNIT), history[-1])


def _check_report(files: _Files, stdout: str) -> None:
    history = files.history()
    diff = files.columns("diff.csv", STEPS_PER_UNIT)
    expected = (f"iterations: {len(history) - 1}\nfinal cost: {history[-1]:.6e}\n"
                f"max |y_data - y_opt|: {np.abs(diff).max():.6e}\n")
    checks.require(stdout == expected, f"report printed {stdout!r}")


WORKLOADS = {"wide-n8": WideN8, "cli-long": CliLong}
