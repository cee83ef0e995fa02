"""Hypothesis profiles, and each_rk4_body for the RK4 oracle tests.

Without HYPOTHESIS_PROFILE every property test runs under Hypothesis's
default profile and its own settings. HYPOTHESIS_PROFILE=wide loads the
`wide` profile, a random search of 2,000 examples, which the config
domain sweep, the scalar oracle test, the per-path stream state test
and the reference tests of ensembles and of single paths (each example
on the compiled and the Python batch step; each scalar oracle example
on the compiled RK4 sweep and the Python loop) take in place of their
fixed example counts:

    HYPOTHESIS_PROFILE=wide PYTHONPATH=src python -m pytest -q tests/test_config_domain.py \\
        tests/test_deterministic.py::test_scalar_oracle_matches_integrate_at \\
        tests/test_model.py::TestPathGenerators::test_states_equal_seed_sequence_anywhere \\
        tests/test_simulate.py::TestLockstepKernel::test_matches_reference \\
        tests/test_simulate.py::TestChainKernel::test_matches_reference
"""

import os

import pytest
from hypothesis import settings

from moranlimits import native

settings.register_profile("wide", max_examples=2000, deadline=None, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "wide":
    settings.load_profile("wide")


def each_rk4_body():
    """Yield once per RK4 oracle body, with the oracles running on it: the
    compiled sweeps, then the Python loops.

    A test body iterates it (`for _ in each_rk4_body(): ...`), so one test
    id covers both. Without a C compiler both runs take the Python loops;
    tests/test_simulate.py::TestBatchStepLoader checks that the compiled
    sweeps load where a compiler is.
    """
    for kernels in (native.library(), None):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(native, "library", lambda: kernels)
            yield kernels
