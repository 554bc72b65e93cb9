"""Test-session settings.

Property tests run under one deterministic ``hypothesis`` profile: the
examples are derived from each test's source rather than drawn at random,
no wall-clock deadline applies (host speed varies), and failing examples
are not saved between runs.
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("pairgee", derandomize=True, deadline=None,
                          max_examples=25, database=None)
settings.load_profile("pairgee")


@pytest.fixture
def limit_cpus(monkeypatch):
    """``limit_cpus(k)`` makes ``os.sched_getaffinity`` report the first k of
    this process's usable CPUs (fewer when it has fewer), so a test can set
    how many processes ``run_monte_carlo`` starts without exceeding them."""
    usable = sorted(os.sched_getaffinity(0))

    def limit(k):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(usable[:k]))

    return limit
