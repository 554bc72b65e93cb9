"""Test-session settings.

Property tests run under one deterministic ``hypothesis`` profile: the
examples are derived from each test's source rather than drawn at random,
no wall-clock deadline applies (host speed varies), and failing examples
are not saved between runs.
"""

from hypothesis import settings

settings.register_profile("pairgee", derandomize=True, deadline=None,
                          max_examples=25, database=None)
settings.load_profile("pairgee")
