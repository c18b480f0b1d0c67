"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` runs every property test on
the same examples each time (``derandomize=True``); without it the default
profile, with random examples, is used."""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
