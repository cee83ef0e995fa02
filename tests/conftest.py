"""Hypothesis profiles.

Without HYPOTHESIS_PROFILE every property test runs under Hypothesis's
default profile and its own settings. HYPOTHESIS_PROFILE=wide loads the
`wide` profile, a random search of 2,000 examples, which the config
domain sweep, the scalar oracle test and the per-path stream state test
take in place of their fixed example counts:

    HYPOTHESIS_PROFILE=wide PYTHONPATH=src python -m pytest -q tests/test_config_domain.py \\
        tests/test_deterministic.py::test_scalar_oracle_matches_integrate_at \\
        tests/test_model.py::TestPathGenerators::test_states_equal_seed_sequence_anywhere
"""

import os

from hypothesis import settings

settings.register_profile("wide", max_examples=2000, deadline=None, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "wide":
    settings.load_profile("wide")
