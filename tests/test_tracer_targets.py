"""The benchmark tracer's hooked names still resolve against the package.

perfbench/child.py looks its span targets up by name when it installs
the tracer, so deleting or renaming one of them breaks the traced run
without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

from moranlimits import deterministic, selfcheck

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_span_targets_resolve():
    child = load_child()
    assert child.SPAN_TARGETS
    for span_name, target in child.SPAN_TARGETS:
        importlib.import_module(f"moranlimits.{target.split(':')[0]}")
        owner, attr = child._resolve(target)
        assert callable(getattr(owner, attr, None)), f"{span_name}: {target}"


def test_flow_call_and_criteria_resolve():
    # the tracer wraps the flow's own __call__ (not one inherited) and
    # every selfcheck criterion
    assert "__call__" in vars(deterministic.DeterministicSolution)
    assert selfcheck._CHECKS
    assert all(callable(check) for check in selfcheck._CHECKS)
