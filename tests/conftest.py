"""Hypothesis profiles: `--hypothesis-profile=ci` runs more examples for
the tests that leave `max_examples` to the profile."""

from hypothesis import settings

settings.register_profile("ci", max_examples=400)
