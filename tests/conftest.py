"""Test-session settings.

Property tests run under one deterministic ``hypothesis`` profile: the
examples are derived from each test's source rather than drawn at random,
no wall-clock deadline applies (host speed varies), and failing examples
are not saved between runs.

``--fork-pairs N`` (N >= 2) sets ``ustat.FORK_PAIRS`` to N for the session,
so that every fit over more than one chunk (and at least N pairs) runs its
passes on a forked worker set; tests that set it themselves still do.
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("pairgee", derandomize=True, deadline=None,
                          max_examples=25, database=None)
settings.load_profile("pairgee")


def pytest_addoption(parser):
    parser.addoption("--fork-pairs", type=int, metavar="N",
                     help="set pairgee.ustat.FORK_PAIRS to N (at least 2) for the session")


@pytest.fixture(autouse=True, scope="session")
def fork_pairs(request):
    n = request.config.getoption("--fork-pairs")
    if n is None:
        yield
        return
    if n < 2:
        raise pytest.UsageError("--fork-pairs needs N >= 2")
    import pairgee.ustat

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pairgee.ustat, "FORK_PAIRS", n)
        yield


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


@pytest.fixture
def chunk_pairs(monkeypatch):
    """``chunk_pairs(k)`` sets ``ustat.CHUNK_PAIRS``, the one pair chunk size
    that every pairgee pass reads when it runs, to k."""
    import pairgee.ustat

    def set_chunk(k):
        monkeypatch.setattr(pairgee.ustat, "CHUNK_PAIRS", k)

    return set_chunk
