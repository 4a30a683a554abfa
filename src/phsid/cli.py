"""Command-line front end.

Subcommands: generate, simulate, calibrate, check-gradient, report.
Exit codes: 0 success, 1 validation/input error, 2 calibration did not
converge, 3 internal numerical failure (divergence, failed gradient check).

Given fixed seeds, every subcommand is a pure function of its input files
and flags; repeated invocations produce byte-identical outputs.  The seed
for ``generate`` is resolved as: ``--seed`` flag, else the ``PHSID_SEED``
environment variable, else 0.  Calibration settings come from ``--config``
(JSON) with individual flags taking precedence over the file.  ``calibrate``
has one flag per :class:`~phsid.calibration.CalibrationConfig` field, named
after it (``max_iter`` -> ``--max-iter``), typed by its default and limited
to its ``choices``, so a new setting is one field.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from ._blas import single_blas_thread
from .calibration import CalibrationConfig, calibrate
from .data_io import (
    NoiseSpec,
    generate_reference,
    load_config,
    load_history_csv,
    load_model,
    load_signal_csv,
    save_energy_csv,
    save_history_csv,
    save_result,
    save_signal_csv,
    save_trajectory_csv,
)
from .errors import DivergenceError, LineSearchError, PhsidError
from .sensitivity import (
    STRUCTURE_FULL,
    STRUCTURES,
    ParameterPoint,
    coefficients_agree,
    finite_difference_gradient,
    sensitivity_coefficients,
    tangent_basis,
)
from .systems import (
    Signal,
    TimeGrid,
    cholesky_reduce,
    energy_balance_residual,
    hamiltonian,
    midpoint_output,
    output,
    simulate_discrete_gradient,
    simulate_euler,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_NUMERICAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 1 for usage/input errors
    def error(self, message):
        raise _UsageError(message)


def _resolve_seed(flag_value):
    if flag_value is not None:
        return flag_value
    env = os.environ.get("PHSID_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"PHSID_SEED must be an integer, got {env!r}") from None
    return 0


def _reduced_guess(path):
    reduced = cholesky_reduce(load_model(path))
    return ParameterPoint(reduced.J, reduced.R, reduced.w_hat), reduced.B


def _cmd_generate(args) -> int:
    reduced = cholesky_reduce(load_model(args.model))
    grid = TimeGrid(args.T, args.steps)
    spec = NoiseSpec(mean=args.mean, std=args.std, seed=_resolve_seed(args.seed))
    u, y_data = generate_reference(reduced, grid, spec)
    save_signal_csv(u, args.out_u, name="u")
    save_signal_csv(y_data, args.out_y, name="y")
    print(f"wrote {args.out_u} and {args.out_y} "
          f"(T={grid.t_end:g}, steps={grid.steps}, seed={spec.seed})")
    return EXIT_OK


def _energy(reduced, traj, u):
    """H at every node and the balance residual of every step; raises
    DivergenceError at the first CSV row where either overflowed."""
    with np.errstate(over="ignore", invalid="ignore"):
        energy = hamiltonian(traj)
        residual = energy_balance_residual(reduced, traj, u)
    finite = np.isfinite(energy)
    finite[1:] &= np.isfinite(residual)
    if not finite.all():
        raise DivergenceError(int(np.argmin(finite)), "--energy-out", quantity="energy")
    return energy, residual


@single_blas_thread()
def _cmd_simulate(args) -> int:
    reduced = cholesky_reduce(load_model(args.model))
    u = load_signal_csv(args.input)
    if args.scheme == "euler":
        traj = simulate_euler(reduced, u)
        y = output(reduced, traj)
        y_name = "y"
    else:
        traj = simulate_discrete_gradient(reduced, u)
        y = midpoint_output(reduced, traj)
        y_name = "y_mid"
    columns = _energy(reduced, traj, u) if args.energy_out else None
    save_trajectory_csv(traj, args.out, name="w")
    if args.out_y:
        save_signal_csv(y, args.out_y, name=y_name)
    if args.energy_out:
        save_energy_csv(traj.grid, *columns, args.energy_out)
    print(f"simulated {traj.grid.steps} steps with the {args.scheme} scheme")
    return EXIT_OK


def _config_from_args(args) -> CalibrationConfig:
    cfg = load_config(args.config) if args.config else CalibrationConfig()
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(CalibrationConfig)
                 if getattr(args, f.name) is not None}
    return dataclasses.replace(cfg, **overrides)


def _cmd_calibrate(args) -> int:
    y_data = load_signal_csv(args.data)
    u = load_signal_csv(args.input)
    v0, b = _reduced_guess(args.guess)
    cfg = _config_from_args(args)
    result = calibrate(v0, u, y_data, b, cfg)
    save_result(result, args.out)
    save_history_csv(result, args.history)
    diff = Signal(y_data.grid, y_data.values - result.y_opt.values)
    save_signal_csv(diff, args.diff, name="diff")
    if result.converged:
        print(f"converged in {result.iterations} gradient steps, "
              f"final cost {result.final_cost:.6e}")
        return EXIT_OK
    print(f"did not converge after {result.iterations} gradient steps "
          f"({result.message}), final cost {result.final_cost:.6e}", file=sys.stderr)
    return EXIT_NOT_CONVERGED


@single_blas_thread()
def _cmd_check_gradient(args) -> int:
    y_data = load_signal_csv(args.data)
    u = load_signal_csv(args.input)
    v, b = _reduced_guess(args.guess)
    sys_v = v.to_system(b)
    basis = tangent_basis(v.n, args.structure)
    traj = simulate_euler(sys_v, u)
    sens = sensitivity_coefficients(sys_v, traj, y_data, basis)
    fd = finite_difference_gradient(v, b, u, y_data, basis, eps=args.eps)
    print(f"{'direction':<10} {'sensitivity':>24} {'finite-diff':>24} "
          f"{'abs-err':>10} status")
    all_ok = True
    for label, s, f in zip(basis.labels, sens, fd):
        ok = coefficients_agree(s, f)
        all_ok = all_ok and ok
        print(f"{label:<10} {s:>24.16e} {f:>24.16e} {abs(s - f):>10.2e} "
              f"{'ok' if ok else 'MISMATCH'}")
    if all_ok:
        print("gradient check passed")
        return EXIT_OK
    print("gradient check FAILED", file=sys.stderr)
    return EXIT_NUMERICAL


def _cmd_report(args) -> int:
    costs, _sigmas = load_history_csv(args.history)
    diff = load_signal_csv(args.diff)
    print(f"iterations: {len(costs) - 1}")
    print(f"final cost: {costs[-1]:.6e}")
    print(f"max |y_data - y_opt|: {np.abs(diff.values).max():.6e}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="phsid",
                     description="Identify and simulate linear port-Hamiltonian systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a noisy input and the reference output")
    p.add_argument("--model", required=True)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mean", type=float, default=NoiseSpec.mean)
    p.add_argument("--std", type=float, default=NoiseSpec.std)
    p.add_argument("--out-u", required=True)
    p.add_argument("--out-y", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("simulate", help="integrate a model along a stored input")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--scheme", choices=("euler", "midpoint"), default="euler")
    p.add_argument("--out", required=True, help="state trajectory CSV")
    p.add_argument("--out-y", default=None, help="output signal CSV")
    p.add_argument("--energy-out", default=None,
                   help="per-node energy and per-step balance residual CSV")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("calibrate", help="fit a model to reference data")
    p.add_argument("--data", required=True, help="reference output CSV")
    p.add_argument("--input", required=True, help="input signal CSV")
    p.add_argument("--guess", required=True, help="initial model JSON")
    p.add_argument("--config", default=None, help="calibration config JSON")
    p.add_argument("--out", required=True, help="result JSON")
    p.add_argument("--history", required=True, help="cost history CSV")
    p.add_argument("--diff", required=True, help="output difference CSV")
    for f in dataclasses.fields(CalibrationConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                       choices=f.metadata.get("choices"), default=None)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("check-gradient",
                       help="compare sensitivity gradient against finite differences")
    p.add_argument("--data", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--guess", required=True)
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--structure", choices=STRUCTURES, default=STRUCTURE_FULL)
    p.set_defaults(func=_cmd_check_gradient)

    p = sub.add_parser("report", help="summarize a calibration run")
    p.add_argument("--history", required=True)
    p.add_argument("--diff", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DivergenceError, LineSearchError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (PhsidError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
