"""Hypothesis settings shared by every property test.

The ``tier1`` profile is loaded by default. It is derandomized, so each run
draws the same examples and reads no example database, and it has no
deadline, since a shared host's timing says nothing about correctness.

``HYPOTHESIS_PROFILE=fuzz python -m pytest tests/test_ledger.py`` loads the
``fuzz`` profile instead: fresh random examples, many more of them.
"""

import os

from hypothesis import settings

settings.register_profile("tier1", max_examples=300, derandomize=True, deadline=None)
settings.register_profile("fuzz", max_examples=20_000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
