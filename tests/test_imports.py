"""Import footprint: the CLI and the library load numpy and no scipy module,
and no multiprocessing or concurrent.futures module.

The normal CDF is a port of Cephes' ndtr in moranlimits.stationary, so
scipy serves the oracles alone (quadrature in selfcheck criterion 2,
the generator null space in brute_force_stationary) and is imported
inside them. numpy 2 defers numpy.random to its first use; the modules
that draw random numbers load it at import, so that cost stays out of
a command's run. The fork workers of write_csv and selfcheck.run_all
import multiprocessing and concurrent.futures only when they may start
one, which keeps about 25 ms out of every command's start. Each case
imports in a fresh interpreter and checks module names, not timings.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import moranlimits

SRC = str(Path(moranlimits.__file__).resolve().parents[1])


def modules_loaded_by(module: str) -> set:
    probe = f"import sys, {module}; print('\\n'.join(sys.modules))"
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
