"""Acceptance gate: all nine correctness criteria, one verdict line each.

The whole battery runs once through the user-facing CLI entry point
(`moranlimits selfcheck`); each test then reports and asserts its own
criterion so a regression shows up as exactly one red line. Run with
`pytest tests/test_acceptance.py -v -s` to see the verdicts live.
"""

import errno
import gc
import hashlib
import io
import json
import os
from contextlib import redirect_stdout

import pytest

from moranlimits import cli, selfcheck
from moranlimits.selfcheck import run_all

CRITERIA = (
    "1-flow-closed-form-vs-rk4",
    "2-linear-two-type-reduction",
    "3-stable-point-attraction",
    "4-variance-evaluators-agree",
    "5-lln-sup-deviation",
    "6-clt-scaled-marginals",
    "7-stationary-product-exactness",
    "8-stationary-gaussian-limit",
    "9-artifact-reproducibility",
)

# SHA-256 of the canonical JSON (sorted keys) of the report's `results`:
# every verdict, detail line and metric, as first computed. See
# test_golden.py for what may legitimately move it.
RESULTS_DIGEST = "3ee807a135455838b59ba12fa34f7d79e6a25a300dd95c79c0890903fb94f7c2"

_CONFIG = {
    "schema_version": "1",
    "model": {"N": 100, "s": 1.0, "u": 0.5, "nu0": 0.5},
    "seed": 1,
}


@pytest.fixture(scope="module")
def selfcheck_root(tmp_path_factory):
    """The battery's directory: its config.json, and its artifacts under out."""
    return tmp_path_factory.mktemp("selfcheck")


@pytest.fixture(scope="module")
def selfcheck_run(selfcheck_root):
    root = selfcheck_root
    config_path = root / "config.json"
    config_path.write_text(json.dumps(_CONFIG), encoding="utf-8")
    out_dir = root / "out"
    buffer = io.StringIO()
    results = []

    def kept_run_all():
        results.extend(run_all())
        return results

    with redirect_stdout(buffer), pytest.MonkeyPatch.context() as patch:
        patch.setattr(selfcheck, "run_all", kept_run_all)
        exit_code = cli.main(
            ["selfcheck", "--config", str(config_path), "--out", str(out_dir)]
        )
    report = json.loads((out_dir / "selfcheck_report.json").read_text(encoding="utf-8"))
    checks = {entry["name"]: entry for entry in report["results"]["checks"]}
    return exit_code, report, checks, results


@pytest.mark.parametrize("criterion", CRITERIA)
def test_criterion(selfcheck_run, criterion):
    _, _, checks, _ = selfcheck_run
    assert criterion in checks, f"selfcheck never ran {criterion}"
    entry = checks[criterion]
    verdict = "PASS" if entry["passed"] else "FAIL"
    print(f"{verdict} {entry['name']}: {entry['detail']}")
    assert entry["passed"], f"{entry['name']}: {entry['detail']}"


def test_all_criteria_present_and_exit_code_zero(selfcheck_run):
    exit_code, report, checks, _ = selfcheck_run
    assert set(checks) == set(CRITERIA)
    assert report["results"]["all_passed"] is True
    assert exit_code == 0


def test_results_match_golden_digest(selfcheck_run):
    _, report, _, _ = selfcheck_run
    canonical = json.dumps(report["results"], sort_keys=True)
    assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == RESULTS_DIGEST


def _is_builtin(value) -> bool:
    if type(value) is list:
        return all(_is_builtin(item) for item in value)
    return type(value) in (bool, int, float, str)


def test_metrics_are_builtin_types(selfcheck_run):
    *_, results = selfcheck_run
    assert [r.name for r in results] == list(CRITERIA)
    for result in results:
        for key, value in result.metrics.items():
            assert _is_builtin(value), f"{result.name}: {key} is {type(value).__name__}"


def test_failed_fork_runs_every_criterion_inline(
    selfcheck_run, selfcheck_root, tmp_path, monkeypatch
):
    """A criterion-6 worker that cannot be forked leaves all nine criteria to
    this process, which writes the report of the forked run byte for byte,
    and no descriptor open: not the pipe opened for the worker before the
    fork failed."""
    forks = []

    def open_descriptors():
        gc.collect()  # a file object left unreferenced closes as it is collected
        return len(os.listdir("/proc/self/fd"))

    def fork():
        forks.append(1)
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", fork)
    out_dir = tmp_path / "out"
    descriptors = open_descriptors()
    with redirect_stdout(io.StringIO()):
        exit_code = cli.main(
            ["selfcheck", "--config", str(selfcheck_root / "config.json"), "--out", str(out_dir)]
        )
    assert open_descriptors() == descriptors
    assert exit_code == 0
    assert forks == [1]
    report = (out_dir / "selfcheck_report.json").read_bytes()
    assert report == (selfcheck_root / "out" / "selfcheck_report.json").read_bytes()
