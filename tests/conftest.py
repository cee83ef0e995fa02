"""Hypothesis profiles, WIDE, and each_kernel_body for the tests of the
RK4 oracles and of the CSV formatter.

Without HYPOTHESIS_PROFILE every property test runs under Hypothesis's
default profile and its own settings. HYPOTHESIS_PROFILE=wide loads the
`wide` profile, a random search of 2,000 examples, which the config
domain sweep, the scalar oracle test, the per-path stream state test
and the reference tests of ensembles and of single paths (each example
on the compiled and the Python batch step; each scalar oracle example
on the compiled RK4 sweep and on rk4.integrate_at) take in place of their
fixed example counts; the formatter's corpus test then draws 4·10^6
random bit patterns in place of 10^5:

    HYPOTHESIS_PROFILE=wide PYTHONPATH=src python -m pytest -q tests/test_config_domain.py \\
        tests/test_deterministic.py::test_scalar_oracle_matches_integrate_at \\
        tests/test_model.py::TestPathGenerators::test_states_equal_seed_sequence_anywhere \\
        tests/test_simulate.py::TestLockstepKernel::test_matches_reference \\
        tests/test_simulate.py::TestChainKernel::test_matches_reference \\
        tests/test_io.py::test_compiled_floats_match_repr
"""

import os

import pytest
from hypothesis import settings

from moranlimits import native

settings.register_profile("wide", max_examples=2000, deadline=None, print_blob=True)
WIDE = os.environ.get("HYPOTHESIS_PROFILE") == "wide"
if WIDE:
    settings.load_profile("wide")


def each_kernel_body():
    """Yield once per body of the compiled kernels, with the code running on
    it: the compiled library (the RK4 sweeps, the CSV formatter), then
    native.library patched to None (rk4's loop, io's formatter).

    A test body iterates it (`for _ in each_kernel_body(): ...`), so one test
    id covers both. Without a C compiler both runs take the Python bodies;
    tests/test_simulate.py::TestBatchStepLoader checks that the compiled
    kernels load where a compiler is.
    """
    for kernels in (native.library(), None):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(native, "library", lambda: kernels)
            yield kernels
