"""Acceptance criteria, shared by the test suite and the selfcheck command.

Every criterion pins its tolerances, scales, and seeds here, in one
place. The test suite asserts each result; the selfcheck subcommand
prints one line per criterion and maps any failure to exit code 3.

The random parameter panel is drawn once from a fixed seed. Its ranges
keep the mutation inflow strong enough that the stable point sits well
inside the unit interval: the fixed 20 / relaxation_rate horizon of the
attraction criterion then clears its 1e-6 tolerance with orders of
magnitude to spare (the residual constant degrades like the distance
from the stable point to the nearest other root).
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import math
import os
import pickle
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .deterministic import (
    equilibria,
    linear_model_solution,
    ode_oracle_at,
    solve_deterministic,
)
from .fluctuations import FluctuationLaw, limit_variance, variance_ode
from .model import ModelParams
from .simulate import clt_statistics, run_ensemble
from .stationary import (
    brute_force_stationary,
    detailed_balance_residual,
    gaussian_limit_check,
    stationary_distribution,
)

REFERENCE_SHAPE = {"s": 1.0, "u": 0.5, "nu0": 0.5}

PANEL_SEED = 20260817
PANEL_SIZE = 20
S_RANGE = (0.1, 2.0)
U_RANGE = (0.25, 2.0)
NU0_RANGE = (0.2, 0.8)

LLN_SEED = 977001
CLT_SEED = 977002

FLOW_TOL = 1e-6
LINEAR_RATIO_TOL = 1e-10
LINEAR_MASS_TOL = 1e-8
STABILITY_TOL = 1e-6
VARIANCE_REL_TOL = 1e-5
VARIANCE_STABLE_TOL = 1e-8
LLN_DEVIATION = 0.05
LLN_MAX_FRACTION = 0.05
CLT_VAR_REL_TOL = 0.10
CLT_KS_TOL = 0.05
STATIONARY_TOL = 1e-10
LIMIT_VAR_REL_TOL = 0.05
LIMIT_MASS_TOL = 0.01
LIMIT_EPS = 0.05


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    metrics: dict = field(default_factory=dict)


def reference_params(N: int = 100) -> ModelParams:
    return ModelParams(N=N, **REFERENCE_SHAPE)


def parameter_panel(
    n_sets: int = PANEL_SIZE, N: int = 100, seed: int = PANEL_SEED
) -> list[tuple[ModelParams, float]]:
    """The (params, z0) panel every multi-set criterion sweeps over."""
    rng = np.random.default_rng(seed)
    panel = []
    for _ in range(n_sets):
        s = float(rng.uniform(*S_RANGE))
        u = float(rng.uniform(*U_RANGE))
        nu0 = float(rng.uniform(*NU0_RANGE))
        z0 = float(rng.uniform(0.0, 1.0))
        panel.append((ModelParams(N=N, s=s, u=u, nu0=nu0), z0))
    return panel


def _sweep_sets() -> list[tuple[ModelParams, float]]:
    return [(reference_params(), 0.1)] + parameter_panel()


def _flow_rows() -> list[tuple[ModelParams, float]]:
    """Criterion 1's (params, z0) rows: each sweep set from 0, its drawn z0 and 1."""
    return [
        (params, z0)
        for params, z0_drawn in _sweep_sets()
        for z0 in (0.0, z0_drawn, 1.0)
    ]


def _variance_rows() -> list[tuple[ModelParams, float]]:
    """Criterion 4's (params, z0) rows: per sweep set, a start 0.01 or more from
    x_stable (else x_stable / 2), then x_stable itself."""
    rows = []
    for params, z0 in _sweep_sets():
        x_stable = equilibria(params).x_stable
        z0_eff = z0 if abs(z0 - x_stable) >= 0.01 else 0.5 * x_stable
        rows += [(params, z0_eff), (params, x_stable)]
    return rows


def check_flow_vs_oracle() -> CheckResult:
    """Criterion 1: closed-form flow vs RK4 on [0, 10], grid 0.01, step 1e-3.

    Every (params, z0) row shares the grid and the step, so the oracle
    advances all rows in one sweep.
    """
    times = np.linspace(0.0, 10.0, 1001)
    rows = _flow_rows()
    oracle = ode_oracle_at(
        np.array([z0 for _, z0 in rows]), times, 1e-3, [params for params, _ in rows]
    )
    worst = 0.0
    for j, (params, z0) in enumerate(rows):
        closed = solve_deterministic(z0, params)(times)
        worst = max(worst, float(np.max(np.abs(closed - oracle[:, j]))))
    return CheckResult(
        name="1-flow-closed-form-vs-rk4",
        passed=worst < FLOW_TOL,
        detail=f"max |closed - RK4| = {worst:.3e} (tolerance {FLOW_TOL:.0e}, "
        f"{PANEL_SIZE + 1} parameter sets, z0 in {{0, drawn, 1}})",
        metrics={"max_abs_diff": worst, "tolerance": FLOW_TOL},
    )


# The 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1]
# (Kronrod 1965; the rule of QUADPACK's qk15, Piessens et al. 1983), its
# digits recomputed with mpmath, from the largest node down to the
# centre. The Gauss nodes are those at odd positions, the centre among them.
_KRONROD_NODES = np.array((
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
))
_KRONROD_WEIGHTS = np.array((
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
))
_GAUSS_WEIGHTS = np.array((
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
))
# -x_0 .. -x_6, x_0 .. x_6, then the centre: one row of nodes per panel
_PANEL_NODES = np.concatenate((-_KRONROD_NODES[:-1], _KRONROD_NODES))


def cumulative_integrals(f, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of f from edges[0] to every edge, and their error estimates.

    Each panel between neighbouring edges gets one G7/K15 pair, so f is
    called once, on a (panels, 15) array of nodes; a constant f may
    return a float. As in QUADPACK's qk15, each rule adds the centre's
    term to the weighted sums of f(c - h x) + f(c + h x). The integrals
    are running sums of the K15 panel values and the estimates running
    sums of |K15 - G7|; both start at 0.
    """
    half = 0.5 * np.diff(edges)
    nodes = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * _PANEL_NODES
    values = np.broadcast_to(f(nodes), nodes.shape)
    centre = values[:, -1]
    pairs = values[:, :7] + values[:, 7:14]
    kronrod = _KRONROD_WEIGHTS[-1] * centre + (pairs * _KRONROD_WEIGHTS[:-1]).sum(axis=1)
    gauss = _GAUSS_WEIGHTS[-1] * centre + (pairs[:, 1::2] * _GAUSS_WEIGHTS[:-1]).sum(axis=1)
    kronrod *= half
    gauss *= half
    zero = np.zeros(1)
    return (
        np.concatenate((zero, np.cumsum(kronrod))),
        np.concatenate((zero, np.cumsum(np.abs(kronrod - gauss)))),
    )


def check_linear_model() -> CheckResult:
    """Criterion 2: two-type reduction reproduces the flow and its total mass.

    The mass at t is exp(t + s * integral of z from 0 to t); the integrals
    come from one G7/K15 pair on each panel of the time grid.
    """
    times = np.linspace(0.0, 5.0, 21)
    worst_ratio = 0.0
    worst_mass = 0.0
    for params, z0 in _sweep_sets():
        linear = linear_model_solution(z0, params)
        solution = solve_deterministic(z0, params)
        y0, y1 = linear(times)
        worst_ratio = max(
            worst_ratio, float(np.max(np.abs(y0 / (y0 + y1) - solution(times))))
        )
        integrals, _ = cumulative_integrals(solution.flow(), times)
        for j, t in enumerate(times):
            expected = math.exp(float(t) + params.s * float(integrals[j]))
            worst_mass = max(worst_mass, abs((y0[j] + y1[j]) / expected - 1.0))
    passed = worst_ratio < LINEAR_RATIO_TOL and worst_mass < LINEAR_MASS_TOL
    return CheckResult(
        name="2-linear-two-type-reduction",
        passed=passed,
        detail=f"max ratio error {worst_ratio:.3e} (tol {LINEAR_RATIO_TOL:.0e}), "
        f"max relative mass error {worst_mass:.3e} (tol {LINEAR_MASS_TOL:.0e})",
        metrics={"ratio_error": worst_ratio, "mass_error": float(worst_mass)},
    )


def check_stability() -> CheckResult:
    """Criterion 3: at t = 20 / rate every start has collapsed onto x_stable."""
    starts = (0.0, 0.25, 0.5, 0.75, 1.0)
    worst = 0.0
    for params, _ in _sweep_sets():
        eq = equilibria(params)
        horizon = 20.0 / eq.relaxation_rate
        for z0 in starts:
            value = solve_deterministic(z0, params)(horizon)
            worst = max(worst, abs(value - eq.x_stable))
    return CheckResult(
        name="3-stable-point-attraction",
        passed=worst < STABILITY_TOL,
        detail=f"max |z(20/rate) - x_stable| = {worst:.3e} "
        f"(tolerance {STABILITY_TOL:.0e}, starts {starts})",
        metrics={"max_distance": worst, "tolerance": STABILITY_TOL},
    )


def check_variance_agreement() -> CheckResult:
    """Criterion 4: the two variance evaluators agree; the stable start is exact.

    The RK4 oracle runs in relaxation time tau = rate t, on [0, 5] at
    step 1e-3 for every row, so the error term h * rate is uniform
    across the panel and all rows advance in one sweep.
    """
    rows = _variance_rows()
    taus, oracle = variance_ode(
        np.array([z0 for _, z0 in rows]), 5.0, 1e-3, [params for params, _ in rows]
    )
    worst_rel = worst_stable = 0.0
    compared = 0
    for j in range(0, len(rows), 2):
        params, z0_eff = rows[j]
        rate = equilibria(params).relaxation_rate
        ode = oracle[500::500, j]
        closed = FluctuationLaw(z0_eff, params).variance_on_grid(taus[500::500] / rate)
        worst_rel = max(worst_rel, float(np.max(np.abs(closed - ode) / np.abs(ode))))
        compared += ode.size
        # stable start: compare the ODE against the exponential form directly
        stable = oracle[1000::1000, j + 1]
        exact = limit_variance(params) * (1.0 - np.exp(-2.0 * taus[1000::1000]))
        worst_stable = max(worst_stable, float(np.max(np.abs(stable - exact) / exact)))
    passed = worst_rel < VARIANCE_REL_TOL and worst_stable < VARIANCE_STABLE_TOL
    return CheckResult(
        name="4-variance-evaluators-agree",
        passed=passed,
        detail=f"max relative gap {worst_rel:.3e} over {compared} comparisons "
        f"(tol {VARIANCE_REL_TOL:.0e}); stable-start gap {worst_stable:.3e} "
        f"(tol {VARIANCE_STABLE_TOL:.0e})",
        metrics={
            "relative_gap": float(worst_rel),
            "stable_gap": float(worst_stable),
            "n_compared": compared,
        },
    )


def check_lln() -> CheckResult:
    """Criterion 5: at N = 10^4 nearly every path hugs the deterministic curve."""
    params = reference_params(N=10_000)
    z0 = 0.1
    grid = np.linspace(0.0, 5.0, 201)
    summary = run_ensemble(
        int(round(z0 * params.N)),
        grid,
        200,
        LLN_SEED,
        params,
        reference=solve_deterministic(z0, params),
    )
    sup = summary.sup_deviation
    fraction = float((sup > LLN_DEVIATION).mean())
    return CheckResult(
        name="5-lln-sup-deviation",
        passed=fraction <= LLN_MAX_FRACTION,
        detail=f"{fraction:.1%} of 200 paths exceed sup-deviation {LLN_DEVIATION} "
        f"(allowed {LLN_MAX_FRACTION:.0%}; max sup {float(sup.max()):.4f})",
        metrics={
            "fraction_above": fraction,
            "max_sup_deviation": float(sup.max()),
            "seed": LLN_SEED,
        },
    )


def check_clt() -> CheckResult:
    """Criterion 6: scaled deviations match the Gaussian law at t = 1, 2, 4."""
    params = reference_params(N=10_000)
    stats = clt_statistics(0.1, (1.0, 2.0, 4.0), 1000, CLT_SEED, params)
    worst_var = 0.0
    worst_ks = 0.0
    for row in stats["rows"][1:]:
        worst_var = max(worst_var, abs(row["var_ratio"] - 1.0))
        worst_ks = max(worst_ks, row["ks_statistic"])
    passed = worst_var <= CLT_VAR_REL_TOL and worst_ks < CLT_KS_TOL
    return CheckResult(
        name="6-clt-scaled-marginals",
        passed=passed,
        detail=f"max |var ratio - 1| = {worst_var:.3f} (tol {CLT_VAR_REL_TOL}), "
        f"max KS = {worst_ks:.4f} (tol {CLT_KS_TOL}) over t in (1, 2, 4), 1000 paths",
        metrics={"worst_var_gap": worst_var, "worst_ks": worst_ks, "seed": CLT_SEED},
    )


def check_stationary_exactness() -> CheckResult:
    """Criterion 7: product formula vs generator null space, and detailed balance."""
    shapes = [reference_params(N=2)] + [p for p, _ in parameter_panel(2)]
    worst_nullspace = 0.0
    for shape in shapes:
        for n in (2, 3, 5, 10, 25, 50):
            params = ModelParams(N=n, s=shape.s, u=shape.u, nu0=shape.nu0)
            product = stationary_distribution(params).full_probabilities()
            oracle = brute_force_stationary(params)
            worst_nullspace = max(worst_nullspace, float(np.max(np.abs(product - oracle))))
    worst_balance = 0.0
    for shape in shapes:
        for n in (100, 1000, 5000):
            params = ModelParams(N=n, s=shape.s, u=shape.u, nu0=shape.nu0)
            worst_balance = max(
                worst_balance, detailed_balance_residual(stationary_distribution(params))
            )
    passed = worst_nullspace < STATIONARY_TOL and worst_balance < STATIONARY_TOL
    return CheckResult(
        name="7-stationary-product-exactness",
        passed=passed,
        detail=f"max |product - null space| = {worst_nullspace:.3e} (N <= 50), "
        f"max detailed-balance residual = {worst_balance:.3e} (N <= 5000), "
        f"tolerance {STATIONARY_TOL:.0e}",
        metrics={"nullspace_gap": worst_nullspace, "balance_residual": worst_balance},
    )


def check_gaussian_limit() -> CheckResult:
    """Criterion 8: the stationary law concentrates on its Gaussian limit."""
    reports = [
        gaussian_limit_check(reference_params(N=n), eps=LIMIT_EPS)
        for n in (500, 2000, 5000)
    ]
    final = reports[-1]
    var_gap = abs(final.empirical_var_scaled / final.target - 1.0)
    passed = var_gap <= LIMIT_VAR_REL_TOL and final.mass_outside < LIMIT_MASS_TOL
    return CheckResult(
        name="8-stationary-gaussian-limit",
        passed=passed,
        detail=f"at N=5000: N*Var off target by {var_gap:.2%} (tol {LIMIT_VAR_REL_TOL:.0%}), "
        f"mass outside +/-{LIMIT_EPS} = {final.mass_outside:.2e} (tol {LIMIT_MASS_TOL}), "
        f"KS sweep {[round(r.ks_statistic, 5) for r in reports]}",
        metrics={
            "var_gap": var_gap,
            "mass_outside": final.mass_outside,
            "ks_sweep": [r.ks_statistic for r in reports],
        },
    )


_REPLAY_CONFIG = {
    "schema_version": "1",
    "model": {"N": 200, "s": 1.0, "u": 0.5, "nu0": 0.5},
    "seed": 424242,
    "ode": {"z0": 0.1, "t_end": 2.0},
    "simulate": {"z0": 0.1, "t_end": 1.0, "n_paths": 20},
    "clt": {"z0": 0.1, "times": [0.5, 1.0], "n_paths": 50},
    "stationary": {"n_values": [100, 200]},
}


def check_reproducibility() -> CheckResult:
    """Criterion 9: re-running any command with one config+seed replays each byte."""
    from . import cli  # deferred: the CLI's selfcheck command drives this module

    mismatched: list[str] = []
    compared = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config_path = root / "config.json"
        config_path.write_text(json.dumps(_REPLAY_CONFIG), encoding="utf-8")
        for command in ("ode", "simulate", "clt", "stationary"):
            runs = []
            for attempt in ("a", "b"):
                out_dir = root / f"{command}-{attempt}"
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(
                        [command, "--config", str(config_path), "--out", str(out_dir)]
                    )
                if code != 0:
                    mismatched.append(f"{command} exited {code}")
                runs.append(out_dir)
            names = sorted(p.name for p in runs[0].iterdir())
            if names != sorted(p.name for p in runs[1].iterdir()):
                mismatched.append(f"{command}: artifact sets differ")
                continue
            for name in names:
                compared += 1
                if not filecmp.cmp(runs[0] / name, runs[1] / name, shallow=False):
                    mismatched.append(f"{command}/{name}")
    return CheckResult(
        name="9-artifact-reproducibility",
        passed=not mismatched,
        detail=(
            f"{compared} artifacts byte-identical across replays of 4 commands"
            if not mismatched
            else "mismatches: " + ", ".join(mismatched)
        ),
        metrics={"artifacts_compared": compared, "mismatches": mismatched},
    )


_CHECKS = (
    check_flow_vs_oracle,
    check_linear_model,
    check_stability,
    check_variance_agreement,
    check_lln,
    check_clt,
    check_stationary_exactness,
    check_gaussian_limit,
    check_reproducibility,
)


# Criterion 6 (the CLT) takes about half of the battery's time, so it runs
# in one worker process while this process runs the other eight.
_WORKER_INDEX = 5


def _failed(check, err: Exception) -> CheckResult:
    return CheckResult(
        name=check.__name__, passed=False, detail=f"raised {type(err).__name__}: {err}"
    )


def _run_check(index: int) -> CheckResult:
    """Criterion _CHECKS[index]; an exception becomes a failed result, not a crash."""
    check = _CHECKS[index]
    try:
        return check()
    except Exception as err:  # noqa: BLE001 - selfcheck must report, not crash
        return _failed(check, err)


def _fork_worker():
    """(pid, pipe) of a forked child that pickles criterion 6's result into
    pipe, or None where the fork fails or this process may not fork: a child
    would hold a copy of any lock that another thread holds."""
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return None
    sys.stdout.flush()  # else the child would hold buffered output to write twice
    sys.stderr.flush()
    reader, writer = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # such as EAGAIN at a process limit
        os.close(reader)
        os.close(writer)
        return None
    if pid == 0:
        code = 1
        try:
            with open(writer, "wb") as pipe:
                pickle.dump(_run_check(_WORKER_INDEX), pipe)
            sys.stdout.flush()
            sys.stderr.flush()
            code = 0
        finally:
            os._exit(code)  # never returns into the caller's code
    os.close(writer)
    return pid, open(reader, "rb")


def run_all() -> list[CheckResult]:
    """Run every criterion, criterion 6 in a forked child; results in criterion order.

    The child (_fork_worker) shares this process's imported modules, and
    any patches to them, while this process runs the other eight. Where
    it is not forked, all nine run here; no other start method is tried.
    A child that sends no result gives a failed criterion 6 naming its
    exit status or signal. The child has been reaped before this returns
    or raises.
    """
    worker = _fork_worker()
    if worker is None:
        return [_run_check(index) for index in range(len(_CHECKS))]
    pid, pipe = worker
    try:
        with pipe:
            results = [_run_check(i) for i in range(len(_CHECKS)) if i != _WORKER_INDEX]
            payload = pipe.read()
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code == 0 and payload:
        results.insert(_WORKER_INDEX, pickle.loads(payload))
    else:
        ended = f"exit status {code}" if code >= 0 else f"signal {-code}"
        error = ChildProcessError(f"the worker sent no result ({ended})")
        results.insert(_WORKER_INDEX, _failed(_CHECKS[_WORKER_INDEX], error))
    return results
