"""run_all's split: criterion 6 in one forked worker, the other eight inline,
or all nine inline while another thread runs.

Fast fake criteria stand in for the real ones, so these cases check the
plumbing only: order, failure reporting, a dying worker, and that no
output is written twice. test_acceptance.py runs the real battery.
"""

import faulthandler
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import moranlimits
from moranlimits import selfcheck
from moranlimits.selfcheck import CheckResult, run_all

SRC = str(Path(moranlimits.__file__).resolve().parents[1])

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fake criteria reach the worker only through a forked copy of the module",
)


@pytest.fixture(autouse=True)
def _bounded():
    """A run_all that hangs ends the test run with a traceback after 60 s."""
    faulthandler.dump_traceback_later(60, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


def _fake(i: int):
    def check():
        return CheckResult(name=f"fake-{i}", passed=True, detail=str(os.getpid()))

    return check


def _fakes(**replaced):
    """Nine passing fakes; replaced maps 'c<n>' to the fake of criterion n."""
    return tuple(replaced.get(f"c{i}", _fake(i)) for i in range(1, 10))


def _raises():
    raise ValueError("boom")


def _dies():
    os._exit(7)


def test_results_in_criterion_order(monkeypatch):
    monkeypatch.setattr(selfcheck, "_CHECKS", _fakes())
    results = run_all()
    assert [r.name for r in results] == [f"fake-{i}" for i in range(1, 10)]
    pids = [int(r.detail) for r in results]
    assert pids[5] != os.getpid()
    assert pids[:5] + pids[6:] == [os.getpid()] * 8
    assert multiprocessing.active_children() == []


def test_worker_exception_reads_like_an_inline_one(monkeypatch):
    monkeypatch.setattr(selfcheck, "_CHECKS", _fakes(c2=_raises, c6=_raises))
    results = run_all()
    inline, worker = results[1], results[5]
    assert inline == CheckResult(name="_raises", passed=False, detail="raised ValueError: boom")
    assert worker == inline
    assert all(r.passed for i, r in enumerate(results) if i not in (1, 5))


def test_dead_worker_is_a_failed_criterion(monkeypatch):
    monkeypatch.setattr(selfcheck, "_CHECKS", _fakes(c6=_dies))
    results = run_all()
    assert len(results) == 9
    dead = results[5]
    assert dead.name == "_dies" and not dead.passed
    assert dead.detail.startswith("raised BrokenProcessPool: ")
    assert all(r.passed for i, r in enumerate(results) if i != 5)
    assert multiprocessing.active_children() == []


def test_a_second_thread_keeps_every_criterion_inline(monkeypatch):
    monkeypatch.setattr(selfcheck, "_CHECKS", _fakes())
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        results = run_all()
        assert multiprocessing.active_children() == []
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert [r.name for r in results] == [f"fake-{i}" for i in range(1, 10)]
    assert [int(r.detail) for r in results] == [os.getpid()] * 9


_SCRIPT = """
import sys
from moranlimits import cli, selfcheck

def fake(i):
    def check():
        print(f"ran fake-{i}")
        return selfcheck.CheckResult(name=f"fake-{i}", passed=True, detail="ok")
    return check

selfcheck._CHECKS = tuple(fake(i) for i in range(1, 10))
print("before selfcheck")
sys.exit(cli.main(["selfcheck", "--config", sys.argv[1], "--out", sys.argv[2]]))
"""


def test_selfcheck_output_is_printed_once(tmp_path):
    config = tmp_path / "config.json"
    model = {"N": 100, "s": 1.0, "u": 0.5, "nu0": 0.5}
    config.write_text(
        json.dumps({"schema_version": "1", "model": model, "seed": 1}), encoding="utf-8"
    )
    # block-buffered stdout, so a fork could copy unwritten output
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    run = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(config), str(tmp_path / "out")],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    out = run.stdout
    assert out.count("selfcheck: all 9 criteria passed") == 1
    assert out.count("before selfcheck") == 1
    for i in range(1, 10):
        assert out.count(f"ran fake-{i}\n") == 1
        assert out.count(f"PASS fake-{i}: ok") == 1
