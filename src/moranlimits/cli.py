"""Command-line front end.

Subcommands:
    ode         closed-form flow vs RK4 oracle on a fixed grid
    simulate    exact path ensemble against the deterministic curve
    clt         scaled-deviation marginals against the Gaussian law
    stationary  stationary law and Gaussian concentration sweep
    selfcheck   run the acceptance criteria and report pass/fail

Exit codes: 0 success, 2 configuration error (including a model
precondition the library raises, a config file that cannot be read, an
--out that cannot be made a directory, and an artifact that cannot be
written), 3 numerical failure reported by selfcheck. Artifacts are
deterministic: re-running a command with the same config and seed
reproduces every byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config, validate_for_command
from .deterministic import classify_regime, equilibria, ode_oracle_at, solve_deterministic
from .io import dump_json, write_csv
from .model import DomainError, ModelParams, UnsupportedModelError, time_grid
from .simulate import clt_statistics, run_ensemble, run_stored_ensemble
from .stationary import gaussian_limit_check, stationary_distribution

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# Sup-deviation exceedance levels reported by the simulate command.
_SUP_LEVELS = (0.01, 0.02, 0.05, 0.1)


def _payload(command: str, config: ExperimentConfig, results: dict) -> dict:
    return {
        "schema_version": config.schema_version,
        "command": command,
        "config": config.to_record(),
        "seed": config.seed,
        "results": results,
    }


def _equilibria_record(params: ModelParams) -> Optional[dict]:
    try:
        eq = equilibria(params)
    except UnsupportedModelError:
        return None
    record = dataclasses.asdict(eq)
    record.update(regime=eq.regime.value, relaxation_rate=eq.relaxation_rate)
    return record


def cmd_ode(config: ExperimentConfig, out_dir: Path) -> int:
    settings = config.sections["ode"]
    params = config.model
    solution = solve_deterministic(settings.z0, params)
    times = time_grid(settings.t_end, settings.grid_step)
    z_closed = solution(times)
    z_oracle = ode_oracle_at(settings.z0, times, settings.oracle_step, params)
    diff = np.abs(z_closed - z_oracle)
    max_abs_diff = float(diff.max())

    write_csv(
        out_dir / "ode_table.csv",
        ["t", "z_closed", "z_oracle", "abs_diff"],
        [times, z_closed, z_oracle, diff],
    )
    results = {
        "regime": classify_regime(params).value,
        "equilibria": _equilibria_record(params),
        "max_abs_diff": max_abs_diff,
        "n_grid_points": int(times.size),
        "artifacts": {"table": "ode_table.csv"},
    }
    dump_json(out_dir / "ode_report.json", _payload("ode", config, results))
    print(
        f"ode: max |closed - oracle| = {max_abs_diff:.3e} "
        f"over {times.size} grid points ({results['regime']})"
    )
    return EXIT_OK


def _path_columns(paths: list) -> list:
    """Columns path, t, k: a t = 0 row at k0, then one row per jump, per path."""
    return [
        np.repeat(np.arange(len(paths)), [path.n_events + 1 for path in paths]),
        np.concatenate([part for path in paths for part in ([0.0], path.times)]),
        np.concatenate([part for path in paths for part in ([path.k0], path.states)]),
    ]


def cmd_simulate(config: ExperimentConfig, out_dir: Path) -> int:
    settings = config.sections["simulate"]
    params = config.model
    k0 = int(round(settings.z0 * params.N))
    reference = solve_deterministic(settings.z0, params)
    grid = time_grid(settings.t_end, settings.grid_step)
    artifacts = {"table": "ensemble_table.csv"}
    if settings.store_paths:
        # One pass: the kept paths also give the grid values.
        summary, paths = run_stored_ensemble(
            k0, grid, settings.n_paths, config.seed, params, reference=reference
        )
        write_csv(out_dir / "ensemble_paths.csv", ["path", "t", "k"], _path_columns(paths))
        artifacts["paths"] = "ensemble_paths.csv"
    else:
        summary = run_ensemble(
            k0, grid, settings.n_paths, config.seed, params, reference=reference
        )
    sup = summary.sup_deviation
    frac_above = {repr(level): float((sup > level).mean()) for level in _SUP_LEVELS}

    write_csv(
        out_dir / "ensemble_table.csv",
        ["t", "z_ref", "mean_z", "var_z", "scaled_dev_mean", "scaled_dev_var"],
        [
            grid,
            summary.z_ref,
            summary.mean_z,
            summary.var_z,
            summary.scaled_dev_mean,
            summary.scaled_dev_var,
        ],
    )
    results = summary.to_record()
    results.update(
        {
            "z0": settings.z0,
            "frac_sup_above": frac_above,
            "max_sup_deviation": float(sup.max()),
            "artifacts": artifacts,
        }
    )
    dump_json(out_dir / "ensemble_report.json", _payload("simulate", config, results))
    print(
        f"simulate: {settings.n_paths} paths at N={params.N}, "
        f"max sup-deviation {float(sup.max()):.4f}, "
        f"frac > 0.05: {frac_above[repr(0.05)]:.3f}"
    )
    return EXIT_OK


def cmd_clt(config: ExperimentConfig, out_dir: Path) -> int:
    settings = config.sections["clt"]
    params = config.model
    stats = clt_statistics(
        settings.z0, settings.times, settings.n_paths, config.seed, params
    )
    header = ["t", "scaled_mean", "scaled_var", "sigma2", "var_ratio", "ks_statistic"]
    write_csv(
        out_dir / "clt_table.csv",
        header,
        [[row[key] for row in stats["rows"]] for key in header],
    )
    results = {
        "k0": stats["k0"],
        "z0": settings.z0,
        "rounding_offset": stats["rounding_offset"],
        "rows": stats["rows"],
        "artifacts": {"table": "clt_table.csv"},
    }
    dump_json(out_dir / "clt_report.json", _payload("clt", config, results))
    for row in stats["rows"][1:]:
        ks = row["ks_statistic"]  # None where Sigma(t) underflows to 0
        print(
            f"clt: t={row['t']:g} var {row['scaled_var']:.4f} "
            f"target {row['sigma2']:.4f} ks {'n/a' if ks is None else format(ks, '.4f')}"
        )
    return EXIT_OK


def cmd_stationary(config: ExperimentConfig, out_dir: Path) -> int:
    settings = config.sections["stationary"]
    params = config.model
    n_values = settings.n_values or (params.N,)
    reports = []
    for n in n_values:
        swept = ModelParams(N=n, s=params.s, u=params.u, nu0=params.nu0)
        reports.append(gaussian_limit_check(swept, eps=settings.epsilon))

    dist = stationary_distribution(params)
    write_csv(
        out_dir / "stationary_pmf.csv",
        ["k", "probability"],
        [np.arange(params.N + 1), dist.full_probabilities()],
    )
    write_csv(
        out_dir / "stationary_sweep.csv",
        ["N", "empirical_var_scaled", "target", "var_ratio", "ks_statistic", "mass_outside", "mean_z"],
        [
            [rep.N for rep in reports],
            [rep.empirical_var_scaled for rep in reports],
            [rep.target for rep in reports],
            [rep.empirical_var_scaled / rep.target for rep in reports],
            [rep.ks_statistic for rep in reports],
            [rep.mass_outside for rep in reports],
            [rep.mean_z for rep in reports],
        ],
    )
    results = {
        "sweep": [rep.to_record() for rep in reports],
        "pmf_N": params.N,
        "artifacts": {"pmf": "stationary_pmf.csv", "sweep": "stationary_sweep.csv"},
    }
    dump_json(out_dir / "stationary_report.json", _payload("stationary", config, results))
    for rep in reports:
        print(
            f"stationary: N={rep.N} N*var {rep.empirical_var_scaled:.5f} "
            f"target {rep.target:.5f} ks {rep.ks_statistic:.5f} "
            f"mass outside +/-{rep.eps:g}: {rep.mass_outside:.2e}"
        )
    return EXIT_OK


def cmd_selfcheck(config: ExperimentConfig, out_dir: Path) -> int:
    from . import selfcheck  # deferred: selfcheck drives this CLI for its replay check

    results = selfcheck.run_all()
    for result in results:
        print(("PASS" if result.passed else "FAIL") + f" {result.name}: {result.detail}")
    record = {
        "checks": [dataclasses.asdict(r) for r in results],
        "all_passed": all(r.passed for r in results),
    }
    dump_json(out_dir / "selfcheck_report.json", _payload("selfcheck", config, record))
    if not record["all_passed"]:
        failed = sum(not r.passed for r in results)
        print(f"selfcheck: {failed} of {len(results)} criteria FAILED", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"selfcheck: all {len(results)} criteria passed")
    return EXIT_OK


_COMMANDS = {
    "ode": cmd_ode,
    "simulate": cmd_simulate,
    "clt": cmd_clt,
    "stationary": cmd_stationary,
    "selfcheck": cmd_selfcheck,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moranlimits",
        description="Finite-N two-type Moran model: simulation, limits, fluctuations",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    help_lines = {
        "ode": "tabulate the closed-form flow against the RK4 oracle",
        "simulate": "run an exact path ensemble against the deterministic curve",
        "clt": "compare scaled-deviation marginals with the Gaussian law",
        "stationary": "stationary law and Gaussian concentration over an N sweep",
        "selfcheck": "run the acceptance criteria and report pass/fail per criterion",
    }
    for name, text in help_lines.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", required=True, help="path to the JSON config file")
        sp.add_argument(
            "--seed", type=int, default=None, help="override the seed from the config"
        )
        sp.add_argument(
            "--out", default="out", help="artifact directory, created if missing"
        )
    return parser


def main(argv=None) -> int:
    """Run one command; a config it cannot run on exits EXIT_CONFIG.

    The model's preconditions are raised by the library code that needs
    them, so a DomainError or UnsupportedModelError from the command
    exits EXIT_CONFIG like a ConfigError, and so does an --out that
    cannot be made a directory. Every command computes before it writes,
    so such an exit leaves no artifact. An artifact that cannot be
    opened or written (an OSError that names its file) exits EXIT_CONFIG
    too, leaving only the artifacts written before it. Any other
    exception propagates, an OSError without a file name included.
    """
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, seed_override=args.seed)
        validate_for_command(config, args.command)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            reason = err.strerror or err
            print(f"output error: cannot create directory {out_dir}: {reason}", file=sys.stderr)
            return EXIT_CONFIG
        try:
            return _COMMANDS[args.command](config, out_dir)
        except OSError as err:
            if err.filename is None:  # not a file's error
                raise
            reason = err.strerror or err
            print(f"output error: cannot write {err.filename}: {reason}", file=sys.stderr)
            return EXIT_CONFIG
    except (ConfigError, DomainError, UnsupportedModelError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
