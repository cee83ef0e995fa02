"""Hypothesis profiles, WIDE, and each_kernel_body for the tests of the
chain's batch step, the RK4 oracles, the Gaussian path sampler and the
CSV formatter; and criterion_6_pid, for the tests that selfcheck's worker may still be
forked after an ensemble or a sampler call.

Without HYPOTHESIS_PROFILE every property test runs under Hypothesis's
default profile and its own settings. HYPOTHESIS_PROFILE=wide loads the
`wide` profile, a random search of 2,000 examples, which the config
domain sweep, the scalar oracle test, the per-path stream state test,
the reference tests of ensembles and of single paths (each example
on the compiled and the Python batch step; each scalar oracle example
on the compiled RK4 sweep and on rk4.integrate_at) and the sampler's
comparison of its two bodies (each example on 1, 2 and 3 threads and
on the Python body) take in place of their fixed example counts; the
formatter's corpus test then draws 4·10^6 random bit patterns in place
of 10^5:

    HYPOTHESIS_PROFILE=wide PYTHONPATH=src python -m pytest -q tests/test_config_domain.py \\
        tests/test_deterministic.py::test_scalar_oracle_matches_integrate_at \\
        tests/test_model.py::TestPathGenerators::test_states_equal_seed_sequence_anywhere \\
        tests/test_simulate.py::TestLockstepKernel::test_matches_reference \\
        tests/test_simulate.py::TestChainKernel::test_matches_reference \\
        tests/test_fluctuations.py::TestSamplerBodies::test_compiled_equals_python \\
        tests/test_io.py::test_compiled_floats_match_repr
"""

import os

import pytest
from hypothesis import settings

from moranlimits import native, selfcheck

settings.register_profile("wide", max_examples=2000, deadline=None, print_blob=True)
WIDE = os.environ.get("HYPOTHESIS_PROFILE") == "wide"
if WIDE:
    settings.load_profile("wide")


def each_kernel_body():
    """Yield once per body of the compiled kernels, with the code running on
    it: the compiled library (the chain step, the RK4 sweeps, the Gaussian
    path sampler, the CSV formatter), then native.library patched to None
    (simulate._python_step, rk4's loop, the sampler's Python body, io's
    formatter), the one switch of all five.

    A test body iterates it (`for _ in each_kernel_body(): ...`), so one test
    id covers both. Without a C compiler both runs take the Python bodies;
    tests/test_simulate.py::TestBatchStepLoader checks that the compiled
    kernels load where a compiler is.
    """
    for kernels in (native.library(), None):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(native, "library", lambda: kernels)
            yield kernels


def criterion_6_pid() -> int:
    """The pid criterion 6 ran in when selfcheck.run_all ran nine fake
    criteria, each reporting its own pid: another process's where run_all
    forked its worker, this one's where it ran every criterion inline."""

    def fake():
        return selfcheck.CheckResult(name="fake", passed=True, detail=str(os.getpid()))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(selfcheck, "_CHECKS", (fake,) * 9)
        results = selfcheck.run_all()
    return int(results[selfcheck._WORKER_INDEX].detail)
