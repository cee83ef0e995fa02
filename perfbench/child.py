"""One measured interpreter of the benchmark: import, set up, run one workload.

    python3 perfbench/child.py --spec SPEC --mode MODE --out DIR --report FILE

The parent (run.py) starts this script in a fresh process for every
sample, with PYTHONPATH pointing at the checkout's src/. Modes:

    setup   import the CLI and load and validate every workload config,
            then take speed probes and stop (a set-up sample)
    warmup  as setup, then compute the exact counts the output checks
            need; untimed, it also fills the page cache
    run     as setup, then run the workload's steps (a timed sample),
            with speed probes around and during them
    trace   as run, with a span around every public entry point of each
            module, followed by an untimed replay that counts chain events

Times are CLOCK_MONOTONIC readings, which are comparable across
processes on Linux, so the parent can measure set-up from the moment it
started this interpreter. The report is one JSON file.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import inspect
import json
import math
import os
import resource
import signal
import sys
import time
from pathlib import Path

# Public entry points that get a span in the traced run: span name and
# "module:attribute" (a dotted attribute reaches into a class).
SPAN_TARGETS = (
    ("config.load_config", "config:load_config"),
    ("simulate.run_ensemble", "simulate:run_ensemble"),
    ("simulate.simulate_path", "simulate:simulate_path"),
    ("simulate.clt_statistics", "simulate:clt_statistics"),
    ("io.write_csv", "io:write_csv"),
    ("io.dump_json", "io:dump_json"),
    ("stationary.gaussian_limit_check", "stationary:gaussian_limit_check"),
    ("stationary.stationary_distribution", "stationary:stationary_distribution"),
    ("stationary.brute_force_stationary", "stationary:brute_force_stationary"),
    ("rk4.integrate", "rk4:integrate"),
    ("rk4.integrate_at", "rk4:integrate_at"),
    ("deterministic.ode_oracle_at", "deterministic:ode_oracle_at"),
    ("fluctuations.variance_on_grid", "fluctuations:FluctuationLaw.variance_on_grid"),
    ("fluctuations.sample_fluctuation_paths", "fluctuations:sample_fluctuation_paths"),
    ("fluctuations.variance_ode", "fluctuations:variance_ode"),
    ("fluctuations.variance_closed_form", "fluctuations:variance_closed_form"),
)

# Sub-steps shorter than this fraction of the step are rounding debris in
# rk4.integrate_at; the same rule decides its sub-step count.
_RK4_REMAINDER_EPS = 1e-9


def _resolve(target: str):
    module_name, attr_path = target.split(":")
    owner = sys.modules[f"moranlimits.{module_name}"]
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _rebind(original, replacement) -> None:
    """Replace a function at every moranlimits module that binds it by name."""
    for name, module in list(sys.modules.items()):
        if name != "moranlimits" and not name.startswith("moranlimits."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


class Tracer:
    """In-memory spans (name, start, end, parent index) and exact work counts."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self.counts = collections.Counter()
        self.ensembles: list = []  # (k0, t_end, n_paths, seed, params) per run_ensemble call
        self.paths: list = []  # ((k0, t_end, seed tuple, params), events) per simulate_path call
        self.originals: dict = {}
        self.criteria: list = []  # selfcheck's check_* names, in criterion order

    def wrap(self, name: str, fn, hook=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.monotonic(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                self._stack.pop()
            if hook is not None:
                # the tracer's own work gets a span too, so it is not
                # counted as the caller's time
                hook_span = ["trace.hook", time.monotonic(), 0.0, span[3]]
                self.spans.append(hook_span)
                hook(signature.bind(*args, **kwargs).arguments, result)
                hook_span[2] = time.monotonic()
            return result

        return traced

    def install(self) -> None:
        hooks = {
            "simulate.run_ensemble": self._on_ensemble,
            "simulate.simulate_path": self._on_path,
            "io.write_csv": self._on_file,
            "io.dump_json": self._on_file,
            "stationary.stationary_distribution": self._on_stationary,
            "rk4.integrate": self._on_integrate,
            "rk4.integrate_at": self._on_integrate_at,
            "fluctuations.variance_closed_form": self._on_closed_form,
        }
        for span_name, target in SPAN_TARGETS:
            owner, attr = _resolve(target)
            original = getattr(owner, attr)
            self.originals[span_name] = original
            wrapper = self.wrap(span_name, original, hooks.get(span_name))
            setattr(owner, attr, wrapper)
            if inspect.ismodule(owner):
                _rebind(original, wrapper)

        from moranlimits import deterministic, selfcheck

        flow = deterministic.DeterministicSolution.__call__

        @functools.wraps(flow)
        def counted_flow(solution, t):
            self.counts["deterministic.flow_calls"] += 1
            return flow(solution, t)

        deterministic.DeterministicSolution.__call__ = counted_flow

        # Criteria are called one by one through these public names, since
        # selfcheck._CHECKS holds the unwrapped functions.
        for i, check in enumerate(selfcheck._CHECKS, start=1):
            wrapper = self.wrap(f"selfcheck.c{i}", check)
            _rebind(check, wrapper)
            self.criteria.append(check.__name__)

    def _on_ensemble(self, args, summary) -> None:
        t_end = float(summary.t_grid[-1])
        self.ensembles.append(
            (int(args["k0"]), t_end, int(args["n_paths"]), int(args["rng_seed"]), args["params"])
        )
        self.counts["simulate.paths"] += int(args["n_paths"])
        self.counts["simulate.absorbed_paths"] += int(summary.absorbed_count)

    def _on_path(self, args, path) -> None:
        seed = args["rng_seed"]
        seed = tuple(int(v) for v in seed) if isinstance(seed, (list, tuple)) else (int(seed),)
        key = (int(args["k0"]), float(args["t_end"]), seed, args["params"])
        self.paths.append((key, path.n_events))
        self.counts["simulate.paths"] += 1
        self.counts["simulate.absorbed_paths"] += int(path.absorbed)

    def _on_file(self, args, _result) -> None:
        path = Path(args["path"])
        data = path.read_bytes()
        self.counts["io.bytes_written"] += len(data)
        if path.suffix == ".csv":
            self.counts["io.rows_written"] += data.count(b"\n") - 1

    def _on_stationary(self, args, _dist) -> None:
        self.counts["stationary.states"] += args["params"].N + 1

    def _on_integrate(self, _args, result) -> None:
        self.counts["rk4.steps"] += len(result[0]) - 1

    def _on_integrate_at(self, args, _result) -> None:
        t_prev = 0.0
        for t_next in args["times"]:
            span = float(t_next) - t_prev
            if span > 0.0:
                self.counts["rk4.steps"] += max(
                    1, math.ceil(span / args["max_step"] - _RK4_REMAINDER_EPS)
                )
            t_prev = float(t_next)

    def _on_closed_form(self, _args, result) -> None:
        self.counts["fluctuations.variance_closed_form_calls"] += 1
        self.counts["fluctuations.fallback_hits"] += int(result.used_fallback)

    def replay_events(self) -> dict:
        """Exact chain events, by re-simulating every ensemble path untimed.

        Path p of an ensemble seeded s consumes the stream [s, p], the same
        stream simulate_path uses, so the replay sees the same events.
        Paths already simulated by simulate_path are not simulated again.
        """
        simulate_path = self.originals["simulate.simulate_path"]
        unique: dict = {}
        total = 0
        for key, events in self.paths:
            unique[key] = events
            total += events
        for k0, t_end, n_paths, seed, params in self.ensembles:
            for p in range(n_paths):
                key = (k0, t_end, (seed, p), params)
                if key not in unique:
                    unique[key] = simulate_path(k0, t_end, [seed, p], params).n_events
                total += unique[key]
        return {"simulate.events": total, "simulate.unique_events": sum(unique.values())}


# CPU speed on a shared host varies by up to 2x over minutes, so each
# sample also times a fixed pure-Python loop shaped like the chain's event
# loop: every SETUP_PROBE_INTERVAL_S during set-up and SETUP_PROBES times
# after it, then every PROBE_INTERVAL_S during the workload and once after
# it (from SIGALRM). run.py scales the set-up and wall times by them.
PROBE_ITERATIONS = 40_000
SETUP_PROBE_INTERVAL_S = 0.2
PROBE_INTERVAL_S = 0.5
SETUP_PROBES = 3
_PROBE_RATES = [1.0 + (i % 97) * 0.01 for i in range(1001)]


def speed_probe() -> float:
    """Seconds taken by PROBE_ITERATIONS steps of the fixed probe loop."""
    rates = _PROBE_RATES
    t0 = time.perf_counter()
    k, t = 500, 0.0
    for i in range(PROBE_ITERATIONS):
        t += 0.5 / rates[k]
        k = k + 1 if (i * 2654435761) % 1000 < 500 else k - 1
        if k <= 0 or k >= 1000:
            k = 500
    return time.perf_counter() - t0


class ProbedSpeed:
    """Speed probes taken while the block runs; their time is in `during_s`."""

    def __init__(self, interval: float):
        self.interval = interval
        self.probes: list = []
        self.during_s = 0.0

    def __enter__(self):
        signal.signal(signal.SIGALRM, lambda *_: self.probes.append(speed_probe()))
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.during_s = sum(self.probes)
        return False


def _load_configs(spec: dict) -> None:
    from moranlimits.config import load_config, validate_for_command

    for command, config in spec["configs"]:
        validate_for_command(load_config(config), command)


def _run_library(step: dict, out_dir: Path) -> None:
    """Library calls of the limits workload: Sigma on a long grid, Gaussian paths."""
    import numpy as np

    import moranlimits

    params = moranlimits.ModelParams(**step["params"])
    z0 = step["z0"]
    times = np.linspace(0.0, step["variance_t_end"], step["variance_points"])
    sigma2 = moranlimits.FluctuationLaw(z0, params).variance_on_grid(times)
    grid = np.linspace(0.0, step["paths_t_end"], step["paths_steps"] + 1)
    paths = moranlimits.sample_fluctuation_paths(
        z0, grid, step["n_paths"], step["seed"], params
    )
    np.save(out_dir / "variance_grid.npy", sigma2)
    np.save(out_dir / "fluctuation_paths.npy", paths)
    last = paths[:, -1]
    summary = {
        "sigma2_final": float(sigma2[-1]),
        "sigma2_at_paths_t_end": float(np.interp(grid[-1], times, sigma2)),
        "paths_finite": bool(np.all(np.isfinite(paths))),
        "paths_final_var": float(last.var(ddof=1)),
        "paths_final_mean": float(last.mean()),
    }
    (out_dir / "library_summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _run_steps(spec: dict, out_dir: Path, tracer) -> list:
    """Run the workload; return the exit code of every CLI step."""
    from moranlimits import cli, selfcheck

    codes = []
    for step in spec["steps"]:
        if "cli" in step:
            argv = [out_dir.as_posix() if arg == "{out}" else arg for arg in step["cli"]]
            if tracer is not None and argv[0] == "selfcheck":
                results = [getattr(selfcheck, name)() for name in tracer.criteria]
                codes.append(0 if all(r.passed for r in results) else cli.EXIT_NUMERIC)
            elif tracer is not None:
                codes.append(tracer.wrap("cli.main", cli.main)(argv))
            else:
                codes.append(cli.main(argv))
        else:
            _run_library(step["library"], out_dir)
    return codes


def _count_paths(spec: dict) -> list:
    """Events of each stored path, from an untimed simulate_path pass."""
    import moranlimits

    job = spec["count_paths"]
    params = moranlimits.ModelParams(**job["params"])
    return [
        moranlimits.simulate_path(job["k0"], job["t_end"], [job["seed"], p], params).n_events
        for p in range(job["n_paths"])
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--mode", choices=("setup", "warmup", "run", "trace"), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--report", required=True)
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report: dict = {}

    probing = args.mode in ("setup", "run")
    setup_probed = ProbedSpeed(SETUP_PROBE_INTERVAL_S)
    with setup_probed if probing else contextlib.nullcontext():
        t_import = time.monotonic()
        from moranlimits import cli  # noqa: F401 - the import users pay on every CLI call

        report["import_s"] = time.monotonic() - t_import
        tracer = None
        if args.mode == "trace":
            import moranlimits.selfcheck  # noqa: F401 - bound before wrapping

            tracer = Tracer()
            tracer.install()
        _load_configs(spec)
    report["t_setup"] = time.monotonic()
    report["setup_probe_s"] = setup_probed.during_s

    if args.mode == "warmup":
        import numpy
        import scipy

        report["versions"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
        if "count_paths" in spec:
            report["path_events"] = _count_paths(spec)
    elif args.mode == "trace":
        report["exit_codes"] = _run_steps(spec, out_dir, tracer)
        report["t_done"] = time.monotonic()
    if probing:
        report["setup_probes"] = setup_probed.probes + [
            speed_probe() for _ in range(SETUP_PROBES)
        ]
    if args.mode == "run":
        t_start = time.monotonic()
        with ProbedSpeed(PROBE_INTERVAL_S) as probed:
            report["exit_codes"] = _run_steps(spec, out_dir, None)
        # wall time of the workload alone, without the probes that interrupted it
        report["wall_s"] = time.monotonic() - t_start - probed.during_s
        report["probes"] = [*report["setup_probes"], *probed.probes, speed_probe()]
    report["max_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        report["spans"] = tracer.spans
        report["counts"] = dict(tracer.counts)
        report["counts"].update(tracer.replay_events())
        report["path_events"] = [events for _, events in tracer.paths]
    tmp = Path(args.report + ".tmp")
    tmp.write_text(json.dumps(report), encoding="utf-8")
    os.replace(tmp, args.report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
