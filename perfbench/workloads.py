"""The benchmark's workloads: inputs made from a seed, and output checks.

Each workload writes its config files into the run directory and
returns a spec that child.py executes. The checks read the artifacts
a run left behind and return a list of problems, empty when the outputs
are correct. They import nothing from moranlimits: the limits they test
against are computed here from the model's formulas.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHAPE = {"s": 1.0, "u": 0.5, "nu0": 0.5}

# store-paths: few long paths, every event written.
STORE_N = 50_000
STORE_PATHS = 4

# limits: (s, u, nu0, z0) drawn from selfcheck's parameter-panel ranges.
S_RANGE = (0.1, 2.0)
U_RANGE = (0.25, 2.0)
NU0_RANGE = (0.2, 0.8)
LIMITS_T_END = 100.0
LIMITS_N_VALUES = [1_000_000, 10_000_000]
FLUCTUATION_PATHS = 4000
FLUCTUATION_STEPS = 400
FLUCTUATION_T_END = 10.0


def _write_config(run_dir: Path, name: str, config: dict) -> str:
    path = run_dir / name
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return path.as_posix()


def _cli(command: str, config: str) -> dict:
    return {"cli": [command, "--config", config, "--out", "{out}"]}


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def limit_variance(s: float, u: float, nu0: float) -> float:
    """g(x_stable) / (2 rate), from the drift and noise polynomials.

    drift F(x) = -s x^2 + (s - u) x + u nu0 has the stable root
    x = (s - u + sqrt(D)) / (2 s), D = (s - u)^2 + 4 s u nu0, where
    F'(x) = -sqrt(D); g(x) = q(x, +1) + q(x, -1).
    """
    root = math.sqrt((s - u) ** 2 + 4.0 * s * u * nu0)
    if s - u >= 0.0:
        x = (s - u + root) / (2.0 * s)
    else:
        x = 2.0 * u * nu0 / (root - (s - u))
    up = (1.0 + s) * x * (1.0 - x) + u * nu0 * (1.0 - x)
    down = x * (1.0 - x) + u * (1.0 - nu0) * x
    return (up + down) / (2.0 * root)


# --- store-paths ------------------------------------------------------------

def store_spec(seed: int, run_dir: Path) -> dict:
    config = _write_config(run_dir, "simulate.json", {
        "schema_version": "1",
        "model": {"N": STORE_N, **SHAPE},
        "seed": seed,
        "simulate": {
            "z0": 0.1, "t_end": 3.0, "n_paths": STORE_PATHS,
            "grid_step": 0.01, "store_paths": True,
        },
    })
    return {
        "configs": [["simulate", config]],
        "steps": [_cli("simulate", config)],
        "count_paths": {
            "k0": round(0.1 * STORE_N), "t_end": 3.0, "seed": seed,
            "n_paths": STORE_PATHS, "params": {"N": STORE_N, **SHAPE},
        },
    }


def store_check(spec: dict, out_dir: Path, warmup: dict) -> list:
    """Stored paths are complete, ordered, unit-step, and end at the grid mean."""
    job = spec["count_paths"]
    events = warmup["path_events"]
    problems = []
    lines = (out_dir / "ensemble_paths.csv").read_text(encoding="utf-8").splitlines()
    if lines[0] != "path,t,k":
        problems.append(f"store-paths: header {lines[0]!r}")
    if len(lines) - 1 != job["n_paths"] + sum(events):
        problems.append(
            f"store-paths: {len(lines) - 1} rows, expected {job['n_paths']} paths"
            f" + {sum(events)} events"
        )
    last_k = {}
    prev = None
    for line in lines[1:]:
        p_text, t_text, k_text = line.split(",")
        p, t, k = int(p_text), float(t_text), int(k_text)
        if prev is None or prev[0] != p:
            if t != 0.0 or k != job["k0"] or p != len(last_k):
                problems.append(f"store-paths: path {p} starts at ({t}, {k})")
                break
        elif not (prev[1] < t <= job["t_end"]) or abs(k - prev[2]) != 1:
            problems.append(f"store-paths: bad step {prev} -> {(p, t, k)}")
            break
        last_k[p] = k
        prev = (p, t, k)
    mean_z = _read_json(out_dir / "ensemble_report.json")["results"]["mean_z"][-1]
    if len(last_k) == job["n_paths"]:
        mean_k = sum(last_k.values()) / len(last_k)
        if abs(mean_k - STORE_N * mean_z) > 1e-9 * mean_k:
            problems.append(f"store-paths: mean last k {mean_k} vs N * mean_z {STORE_N * mean_z}")
    elif not problems:
        problems.append(f"store-paths: {len(last_k)} paths in the CSV")
    return problems


# --- limits -----------------------------------------------------------------

def limits_spec(seed: int, run_dir: Path) -> dict:
    rng = random.Random(seed)
    s, u, nu0 = rng.uniform(*S_RANGE), rng.uniform(*U_RANGE), rng.uniform(*NU0_RANGE)
    z0 = rng.uniform(0.0, 1.0)
    model = {"N": 1000, "s": s, "u": u, "nu0": nu0}
    config = _write_config(run_dir, "limits.json", {
        "schema_version": "1",
        "model": model,
        "seed": seed,
        "ode": {"z0": z0, "t_end": LIMITS_T_END, "grid_step": 0.01},
        "stationary": {"n_values": LIMITS_N_VALUES, "epsilon": 0.05},
    })
    library = {
        "params": model, "z0": z0, "seed": seed,
        "variance_t_end": LIMITS_T_END, "variance_points": 101,
        "paths_t_end": FLUCTUATION_T_END, "paths_steps": FLUCTUATION_STEPS,
        "n_paths": FLUCTUATION_PATHS,
    }
    return {
        "configs": [["ode", config], ["stationary", config]],
        "steps": [_cli("ode", config), _cli("stationary", config), {"library": library}],
    }


def limits_check(spec: dict, out_dir: Path, warmup: dict) -> list:
    library = spec["steps"][-1]["library"]
    model = library["params"]
    target = limit_variance(model["s"], model["u"], model["nu0"])
    problems = []
    ode = _read_json(out_dir / "ode_report.json")["results"]
    if not ode["max_abs_diff"] < 1e-6:
        problems.append(f"limits: ode max_abs_diff {ode['max_abs_diff']}")
    summary = _read_json(out_dir / "library_summary.json")
    if not abs(summary["sigma2_final"] / target - 1.0) <= 1e-8:
        problems.append(f"limits: Sigma({LIMITS_T_END:g}) {summary['sigma2_final']} vs {target}")
    # 4000 Gaussian draws estimate a variance to about 2 %; allow 15 %.
    if not summary["paths_finite"] or not (
        abs(summary["paths_final_var"] / summary["sigma2_at_paths_t_end"] - 1.0) <= 0.15
    ):
        problems.append(f"limits: fluctuation paths {summary}")
    sweep = _read_json(out_dir / "stationary_report.json")["results"]["sweep"]
    if [rep["N"] for rep in sweep] != LIMITS_N_VALUES:
        problems.append(f"limits: sweep over {[rep['N'] for rep in sweep]}")
    for rep in sweep:
        if not abs(rep["empirical_var_scaled"] / target - 1.0) <= 0.05:
            problems.append(f"limits: N={rep['N']} N*Var {rep['empirical_var_scaled']} vs {target}")
        if not rep["mass_outside"] < 0.01:
            problems.append(f"limits: N={rep['N']} mass outside {rep['mass_outside']}")
    return problems


# --- selfcheck --------------------------------------------------------------

def selfcheck_spec(seed: int, run_dir: Path) -> dict:
    config = (ROOT / "configs" / "reference.json").as_posix()
    return {"configs": [["selfcheck", config]], "steps": [_cli("selfcheck", config)]}


def selfcheck_check(spec: dict, out_dir: Path, warmup: dict) -> list:
    checks = _read_json(out_dir / "selfcheck_report.json")["results"]["checks"]
    failed = [c["name"] for c in checks if not c["passed"]]
    problems = [f"selfcheck: {name} FAILED" for name in failed]
    if len(checks) < 9:
        problems.append(f"selfcheck: only {len(checks)} criteria ran")
    return problems


WORKLOADS = {
    "store-paths": (store_spec, store_check),
    "limits": (limits_spec, limits_check),
    "selfcheck": (selfcheck_spec, selfcheck_check),
}
