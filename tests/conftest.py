import os

from hypothesis import settings

# CI selects the reproducible profile with HYPOTHESIS_PROFILE=ci; local runs
# keep hypothesis' default (randomized) profile.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
