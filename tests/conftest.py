"""Hypothesis profiles. ``HYPOTHESIS_PROFILE=ci`` makes every property test
draw the same examples on every run and keep no example database, so a
rare counterexample cannot fail one CI run and pass the next; local runs
stay random and keep their database."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
