"""Import footprint: the CLI and the library load numpy and no scipy module,
and no multiprocessing or concurrent.futures module; and selfcheck's
whole battery runs without loading scipy.

The normal CDF is a port of Cephes' ndtr in moranlimits.stationary,
selfcheck criterion 2 integrates on a Gauss-Kronrod rule in numpy, and
brute_force_stationary takes its null space from numpy's SVD, so no
code path imports scipy; the tests keep it as a reference. numpy 2
defers numpy.random to its first use; moranlimits.model, which every
module that draws random numbers imports, loads it at import, so that
cost stays out of a command's run.
The fork workers of write_csv and selfcheck.run_all import
multiprocessing and concurrent.futures only when they may start one,
which keeps about 25 ms out of every command's start. Each case runs in
a fresh interpreter and checks module names, not timings.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import moranlimits

SRC = str(Path(moranlimits.__file__).resolve().parents[1])


def modules_loaded_by(module: str, then: str = "pass") -> set:
    probe = f"import sys, {module}; {then}; print('\\n'.join(sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    return set(result.stdout.split())


@pytest.mark.parametrize(
    "module", ["moranlimits", "moranlimits.cli", "moranlimits.selfcheck"]
)
def test_module_level_imports_skip_the_oracle_parts_of_scipy(module):
    loaded = modules_loaded_by(module)
    assert module in loaded
    assert "numpy" in loaded and "numpy.random" in loaded
    assert sorted(name for name in loaded if name == "scipy" or name.startswith("scipy.")) == []
    workers = ("multiprocessing", "concurrent.futures")
    assert sorted(name for name in loaded if name.startswith(workers)) == []


_SECOND_THREAD = "threading.Thread(target=threading.Event().wait, daemon=True).start()"


@pytest.mark.parametrize("inline", [False, True], ids=["forked", "inline"])
def test_selfcheck_battery_loads_no_scipy(inline):
    """All nine criteria pass and leave no scipy module behind, with criterion 6
    in the forked worker or, while a second thread runs, inline."""
    run = "assert all(r.passed for r in moranlimits.selfcheck.run_all())"
    if inline:
        run = f"import threading; {_SECOND_THREAD}; {run}"
    loaded = modules_loaded_by("moranlimits.selfcheck", then=run)
    assert sorted(name for name in loaded if name == "scipy" or name.startswith("scipy.")) == []
