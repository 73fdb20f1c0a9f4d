"""Test-suite settings shared by every test module."""

from hypothesis import settings

# Property tests draw the same examples on every run, so two runs of the
# suite (say, before and after a change) test exactly the same inputs.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
