"""Benchmark of moranlimits: four workloads timed end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every sample is a fresh, single-process
interpreter (perfbench/child.py) with one closed-loop caller: the next
sample starts when the previous one has exited. BLAS and OpenMP pools
are pinned to one thread, and no workload sets moranlimits' `threads`.

A run makes the workload's inputs from the seed, starts one untimed
warm-up interpreter (page cache, bytecode, and the exact counts the
checks need), then repeats the workload for about S seconds, then adds
set-up-only interpreters until it has MIN_SETUP_SAMPLES set-up samples.
End-to-end metrics are medians over the samples of the run:

    setup_s      interpreter start until moranlimits.cli is imported and
                 the workload config is loaded and validated
    wall_s       from the end of set-up until every artifact is written
    peak_rss_mb  peak resident memory of the sample's process

The CPU speed of a shared host drifts by up to 2x over minutes, which
no run length averages out. Each sample therefore also times a fixed
probe loop (child.speed_probe) during and right after set-up and every
0.5 s during the workload, and setup_s and wall_s are reported at the speed where
one probe takes PROBE_REF_S: measured seconds * PROBE_REF_S / mean probe.
The measured seconds are kept in the result file (setup_raw_s,
wall_raw_s). On a 2-vCPU VM this cut the spread of wall_s medians over
seeds from 0.21 to 0.08 on store-paths.

Outputs of the first sample are checked against the workload's limits
(workloads.py); every sample's artifacts must have the same SHA-256 as
the first. A sample that exits non-zero, fails a check or disagrees
counts as failed; the result line carries attempted and failed.

With --trace 1 the run also starts one traced interpreter, with a span
around every public entry point at every module that binds it, and
reports per-layer times (inclusive `<span>_s`, module self time
`<module>.self_s`), exact work counts, span coverage of the traced
wall_s and the tracing overhead against the untraced median.

Each run writes a result file under .perfbench_out/results/ with every
sample, the artifact digests, the counts, the source digest, the commit
when the checkout is a git repository, and the Python, numpy and scipy
versions and CPU count. Digests and counts are also kept per workload,
seed and source digest in .perfbench_out/registry.json, and a later run
of the same code and seed that disagrees with them fails.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REQUIRED = ("src/moranlimits/cli.py", "configs/reference.json", "BENCHMARK.json")

MIN_SETUP_SAMPLES = 5
MAX_SAMPLES = 50
# A run must end within 180 s; no child may run past this point.
RUN_DEADLINE_S = 170.0
# Reported times are at the CPU speed where one child.speed_probe() takes
# this long (about the middle of its range on a 2-vCPU Xeon VM).
PROBE_REF_S = 0.01


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def _at_reference_speed(seconds: float, probes: list) -> float:
    """Scale a time measured alongside speed probes to PROBE_REF_S per probe."""
    return seconds * PROBE_REF_S / statistics.fmean(probes)


def _child_env() -> dict:
    env = dict(os.environ)
    src = (ROOT / "src").as_posix()
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts child interpreters one at a time and collects their reports."""

    def __init__(self, run_dir: Path, spec_path: Path, deadline: float):
        self.run_dir = run_dir
        self.spec_path = spec_path
        self.deadline = deadline
        self.env = _child_env()
        self.count = 0

    def child(self, mode: str) -> dict:
        """One child; returns its report with the sample's times and status."""
        self.count += 1
        tag = f"{self.count:03d}-{mode}"
        out_dir = self.run_dir / tag
        report_path = self.run_dir / f"{tag}.report.json"
        log_path = self.run_dir / f"{tag}.log"
        cmd = [
            sys.executable, (HERE / "child.py").as_posix(), "--spec", self.spec_path.as_posix(),
            "--mode", mode, "--out", out_dir.as_posix(), "--report", report_path.as_posix(),
        ]
        timeout = self.deadline - time.monotonic()
        result = {"mode": mode, "out_dir": out_dir, "ok": False}
        if timeout <= 0.0:
            result["error"] = "run deadline reached"
            return result
        with open(log_path, "w", encoding="utf-8") as log:
            t_start = time.monotonic()
            try:
                proc = subprocess.run(
                    cmd, cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=timeout, check=False,
                )
            except subprocess.TimeoutExpired:
                result["error"] = f"timed out after {timeout:.0f} s"
                return result
        result["duration"] = time.monotonic() - t_start
        if proc.returncode != 0 or not report_path.is_file():
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            result["error"] = f"exit {proc.returncode}: {tail}"
            return result
        report = json.loads(report_path.read_text(encoding="utf-8"))
        result.update(report)
        # set-up time without the speed probes that interrupted it
        result["setup_raw_s"] = report["t_setup"] - t_start - report["setup_probe_s"]
        if "setup_probes" in report:
            result["setup_s"] = _at_reference_speed(result["setup_raw_s"], report["setup_probes"])
        if "probes" in report:
            result["wall_raw_s"] = report["wall_s"]
            result["wall_s"] = _at_reference_speed(report["wall_s"], report["probes"])
        elif "t_done" in report:
            result["wall_s"] = report["t_done"] - report["t_setup"]
        if any(code != 0 for code in report.get("exit_codes", ())):
            result["error"] = f"command exit codes {report['exit_codes']}"
            return result
        result["ok"] = True
        return result


def digest_dir(path: Path) -> dict:
    digests = {}
    for file in sorted(path.iterdir()):
        if file.is_file():
            digests[file.name] = hashlib.sha256(file.read_bytes()).hexdigest()
    return digests


def source_digest() -> str:
    """SHA-256 over the program and benchmark sources and the configs."""
    sha = hashlib.sha256()
    for top in ("src", "configs", HERE.name):
        for file in sorted((ROOT / top).rglob("*")):
            if file.is_file() and "__pycache__" not in file.parts and file.suffix != ".pyc":
                sha.update(file.relative_to(ROOT).as_posix().encode() + b"\0")
                sha.update(file.read_bytes())
    return sha.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def _span_union(intervals: list) -> float:
    covered, end = 0.0, float("-inf")
    for start, stop in sorted(intervals):
        if stop > end:
            covered += stop - max(start, end)
            end = stop
    return covered


def layer_metrics(traced: dict, untraced_wall: float) -> dict:
    """Per-layer values from the traced child's spans and counts."""
    spans = traced["spans"]
    t0, t1 = traced["t_setup"], traced["t_done"]
    wall = t1 - t0
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict = {}
    self_time: dict = {}
    module_self: dict = {}
    for (name, start, end, _), inner in zip(spans, child_time):
        total[name] = total.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start - inner)
        module = name.split(".")[0]
        module_self[module] = module_self.get(module, 0.0) + (end - start - inner)

    values = {f"{name}_s": seconds for name, seconds in total.items()}
    values.update({f"{module}.self_s": seconds for module, seconds in module_self.items()})
    values["simulate.clt_statistics_self_s"] = self_time.get("simulate.clt_statistics", 0.0)
    values["config.load_s"] = total.get("config.load_config", 0.0)
    values["cli.import_s"] = traced["import_s"]
    counts = traced["counts"]
    values.update(counts)

    def rate(count: str, *times: str) -> float:
        busy = sum(values.get(t, 0.0) for t in times)
        return values.get(count, 0) / busy if busy > 0.0 else 0.0

    events = counts.get("simulate.events", 0)
    values["simulate.useful_event_ratio"] = (
        counts.get("simulate.unique_events", 0) / events if events else 0.0
    )
    values["simulate.events_per_s"] = rate(
        "simulate.events", "simulate.run_ensemble_s", "simulate.simulate_path_s"
    )
    values["io.mb_per_s"] = rate("io.bytes_written", "io.write_csv_s", "io.dump_json_s") / 1e6
    values["stationary.states_per_s"] = rate(
        "stationary.states", "stationary.stationary_distribution_s"
    )
    values["rk4.steps_per_s"] = rate("rk4.steps", "rk4.integrate_s", "rk4.integrate_at_s")
    # Share of the program's own time (the traced wall minus the tracer's
    # hooks) spent inside a module's span, the cli.main root excepted.
    inside = [
        (name, max(start, t0), min(end, t1))
        for name, start, end, _ in spans
        if name != "cli.main" and end > t0 and start < t1
    ]
    hooks = _span_union([(a, b) for name, a, b in inside if name == "trace.hook"])
    covered = _span_union([(a, b) for _, a, b in inside]) - hooks
    values["trace.span_coverage"] = covered / (wall - hooks)
    values["trace.spans"] = len(spans)
    values["trace.wall_s"] = wall
    values["trace.overhead_s"] = wall - untraced_wall
    return values


def _check_registry(key: str, digests: dict, counts: dict) -> list:
    """Compare with earlier runs of the same workload, seed and sources."""
    path = OUT / "registry.json"
    registry = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    entry = registry.setdefault(key, {"digests": {}, "counts": {}})
    problems = []
    for kind, new in (("digests", digests), ("counts", counts)):
        for name, value in new.items():
            old = entry[kind].setdefault(name, value)
            if old != value:
                problems.append(f"{kind[:-1]} of {name} differs from an earlier run: {old} != {value}")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(registry, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_begin = time.monotonic()

    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        return _fail(f"not a moranlimits checkout, missing {', '.join(missing)}")
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0.0:
        return _fail("--seed must be >= 0 and --seconds > 0")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    make_spec, check = workloads.WORKLOADS[args.workload]

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (OUT / "results").mkdir(exist_ok=True)
    spec = make_spec(args.seed, run_dir)
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=2), encoding="utf-8")
    runner = Runner(run_dir, spec_path, t_begin + RUN_DEADLINE_S)

    warmup = runner.child("warmup")
    if not warmup["ok"]:
        return _fail(f"warm-up failed: {warmup.get('error')}")

    problems: list = []
    digests: dict = {}

    def inspect(sample: dict, index: int) -> None:
        """Check the first sample's outputs; later ones must match its digests."""
        if sample["ok"]:
            sample["digests"] = digest_dir(sample["out_dir"])
            if not digests:
                digests.update(sample["digests"])
                sample_problems = check(spec, sample["out_dir"], warmup)
            elif sample["digests"] != digests:
                sample_problems = ["artifacts differ from the first sample of this seed"]
            else:
                sample_problems = []
            if sample_problems:
                sample["ok"] = False
                problems.extend(f"sample {index}: {p}" for p in sample_problems)
        else:
            problems.append(f"sample {index}: {sample['error']}")
        shutil.rmtree(sample["out_dir"], ignore_errors=True)

    samples: list = []
    t_loop = time.monotonic()
    while len(samples) < MAX_SAMPLES:
        samples.append(runner.child("run"))
        inspect(samples[-1], len(samples) - 1)
        elapsed = time.monotonic() - t_loop
        typical = statistics.median([s.get("duration", elapsed) for s in samples])
        if elapsed + 0.5 * typical >= args.seconds:
            break
    setup_children = [s for s in samples if s["ok"]]
    while len(setup_children) < MIN_SETUP_SAMPLES:
        extra = runner.child("setup")
        if not extra["ok"]:
            break
        setup_children.append(extra)
    setups = [s["setup_s"] for s in setup_children]

    good = [s for s in samples if s["ok"]]
    if not good:
        for line in problems:
            print(line, file=sys.stderr)
        return _fail("no sample succeeded")

    wall = statistics.median([s["wall_s"] for s in good])
    wall_raw = statistics.median([s["wall_raw_s"] for s in good])
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": statistics.median([s["max_rss_mb"] for s in good]),
    }
    counts: dict = {}
    if "path_events" in warmup:
        counts["simulate.stored_path_events"] = sum(warmup["path_events"])
    if args.trace:
        traced = runner.child("trace")
        if traced["ok"]:
            values.update(layer_metrics(traced, wall_raw))
            counts.update(traced["counts"])
            if "path_events" in warmup and traced["path_events"] != warmup["path_events"]:
                problems.append("traced simulate_path events differ from the warm-up pass")
            changed = [
                name for name, sha in digest_dir(traced["out_dir"]).items()
                if digests.get(name, sha) != sha
            ]
            shutil.rmtree(traced["out_dir"], ignore_errors=True)
            if changed:
                problems.append(f"tracing changed artifacts {changed}")
        else:
            problems.append(f"traced run: {traced['error']}")
    source = source_digest()
    disagreements = _check_registry(f"{args.workload}|{args.seed}|{source}", digests, counts)
    if any(line.startswith("digest") for line in disagreements):
        # Every sample of this run disagrees with an earlier run of the same code and seed.
        for sample in good:
            sample["ok"] = False
    problems.extend(disagreements)
    failed = sum(not s["ok"] for s in samples)

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for metric in declared[kind]:
        value = values.get(metric["name"], 0.0) if args.trace else values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    versions = warmup["versions"]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_digest": source,
        "python": versions["python"],
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "nproc": len(os.sched_getaffinity(0)),
        "attempted": len(samples),
        "failed": failed,
        "failed_ratio": failed / len(samples),
        "problems": problems,
        "samples": [
            {key: s.get(key) for key in (
                "ok", "setup_s", "setup_raw_s", "wall_s", "wall_raw_s", "max_rss_mb", "error",
            )}
            for s in samples
        ],
        "setup_samples": setups,
        "setup_raw_s": statistics.median([s["setup_raw_s"] for s in setup_children]),
        "wall_raw_s": wall_raw,
        "quartiles": {
            "setup_s": _quartiles(setups),
            "wall_s": _quartiles([s["wall_s"] for s in good]),
        },
        "digests": digests,
        "counts": counts,
        "values": values,
        "metrics": metrics,
    }
    # Chain events of the workload's distinct paths per second of wall_s,
    # where they were counted: from the warm-up on store-paths, from the
    # traced run's replay elsewhere.
    events = counts.get("simulate.unique_events") or counts.get("simulate.stored_path_events")
    if events:
        result["events_per_s"] = events / wall_raw
    result_path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    for line in problems:
        print(f"problem: {line}")
    print(
        f"{args.workload} seed {args.seed}: {len(good)}/{len(samples)} samples ok, "
        f"{len(setups)} set-up samples; result in {result_path.relative_to(ROOT)}"
    )
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  failed_ratio = {result['failed_ratio']:.6g}")
    if "events_per_s" in result:
        print(f"  events_per_s = {result['events_per_s']:.6g} 1/s")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
