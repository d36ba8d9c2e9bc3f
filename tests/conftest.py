"""Hypothesis profiles. The `ci` profile draws the same examples on every run
and prints a reproduction blob for each failure, so a failure seen in CI
replays locally with `HYPOTHESIS_PROFILE=ci`."""

from __future__ import annotations

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
