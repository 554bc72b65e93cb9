"""Reductions split across forked processes (``ustat.pass_workers``), and
items shared by forked processes (``ustat.spread``).

Each test sets ``ustat.FORK_PAIRS`` low and a small chunk size, so that
small datasets span many chunks and every fit or bare ``pass_workers``
pass forks its worker set, and compares with the loop of one process at
the same chunk size.  After each test no child process is left, not even
an unreaped one.
"""

import errno
import os
import pickle
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pairgee.ustat
from pairgee import (EvaluationError, FitConfig, FrmModel, Kernel, NonConvergence,
                     PairCovariate, PairData, SingularInformation, SubjectRecord,
                     WorkingVariance, adaptive_fit, assemble_ugee, build_pairs,
                     enumerate_pairs, estimate_nuisance, fit_icc, gen_icc_ratings,
                     gen_mww_probit, gen_nb_scenario, make_rng, nb_working_mle,
                     sandwich_variance, solve_ugee)
from pairgee.simulate import mww_pair_data
from pairgee.ustat import pair_indices, pass_workers, spread

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forking(monkeypatch, chunk_pairs):
    """``forking(w)`` makes every reduction of more than one 50-pair chunk
    fork onto w workers; ``forking(None)`` keeps reductions in-process at
    the same chunk size."""
    chunk_pairs(50)

    def set_workers(w):
        monkeypatch.setattr(pairgee.ustat, "FORK_PAIRS", 2 if w else 1 << 62)
        monkeypatch.setattr(pairgee.ustat, "_usable_cpus", lambda: w or 1)

    return set_workers


def _nb_model(wv, **kw):
    return FrmModel(link="exp", working_variance=WorkingVariance(wv, **kw),
                    intercept=True)


def _onehot_data():
    rng = make_rng(71)
    n = 40
    levels = rng.integers(1, 5, size=n).astype(float)
    y = rng.poisson(2.0 + levels).astype(float)
    subjects = [SubjectRecord(k, y=[y[k]], x=[levels[k]]) for k in range(n)]
    return build_pairs(subjects, Kernel.sqhalfdiff(),
                       PairCovariate("onehot", levels=4))


def _fit_case(case):
    nb = gen_nb_scenario(40, 7)
    mww = mww_pair_data(gen_mww_probit(40, make_rng(5, 0), beta=[1.0, -0.5]))
    cases = {
        "nb": (_nb_model("nb"), nb),
        "propmean": (_nb_model("propmean"), nb),
        "constant": (_nb_model("constant"), nb),
        "poisson": (_nb_model("poisson"), nb),   # one cold solve: its start pass and steps
        "userfixed": (_nb_model("userfixed", per_pair=np.linspace(
            0.5, 2.0, nb.n_pairs)), nb),
        "mww-probitc-constant": (FrmModel(link="probitc", intercept=False,
                                          working_variance=WorkingVariance("constant")),
                                 mww),
        "mww-probitc-bernoulli": (FrmModel(link="probitc", intercept=False,
                                           working_variance=WorkingVariance("bernoulli")),
                                  mww),
        "onehot-k4": (FrmModel(link="identity", intercept=False,
                               working_variance=WorkingVariance("constant")),
                      _onehot_data()),
        "mle-nb": (None, nb),   # the working MLE, nb_working_mle
        # the one pass of the moment statistics, 780 pairs in 16 chunks
        "fit_icc": ("fit_icc", gen_icc_ratings(40, 4, 12).ratings),
    }
    return cases[case]


def _reduce(fn, n_items):
    """The one pass of a ``pass_workers`` set whose chunk function is ``fn``."""
    with pass_workers(lambda: fn, n_items) as workers:
        return workers.reduce()


def _fit_bytes(model, data, config=None):
    """The bytes of ``adaptive_fit``'s estimates under ``config``, with no
    model those of the working MLE's, and with "fit_icc" those of
    ``fit_icc`` of the ratings."""
    if model == "fit_icc":
        res = fit_icc(data)
    elif model is None:
        res = nb_working_mle(data)
        return [np.asarray(a).tobytes() for a in (res.beta, res.cov_beta, res.tau,
                                                  res.loglik)]
    else:
        res = adaptive_fit(model, data, config)
    return [a.tobytes() for a in (res.beta, res.cov_beta, res.sigma_u, res.b_matrix)]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", ["nb", "propmean", "constant", "poisson", "userfixed",
                                  "mww-probitc-constant", "mww-probitc-bernoulli",
                                  "onehot-k4", "mle-nb", "fit_icc"])
def test_forked_fits_equal_the_serial_fit_byte_for_byte(forking, case, workers):
    model, data = _fit_case(case)
    forking(None)
    serial = _fit_bytes(model, data)
    forking(workers)
    assert _fit_bytes(model, data) == serial


@pytest.mark.parametrize("workers", [2, 3])
def test_a_warm_nb_fit_on_forked_workers_equals_the_serial_fit(forking, forks, monkeypatch,
                                                                workers):
    # the subsample's binding and the full fit's each fork their own set
    monkeypatch.setattr(pairgee.fit, "WARM_PAIRS", 1)
    monkeypatch.setattr(pairgee.fit, "WARM_SUBJECTS", 20)
    model, data = _fit_case("nb")
    forking(None)
    serial = _fit_bytes(model, data)
    forking(workers)
    assert _fit_bytes(model, data) == serial
    assert len(forks) == 2 * (workers - 1)


@pytest.mark.parametrize("workers", [2, 3])
def test_single_pass_functions_equal_the_serial_bytes(forking, forks, workers):
    # each call binds the model once and forks its own set, ended on return
    model, data = _nb_model("nb", value=4.0), gen_nb_scenario(40, 7)
    beta = np.array([3.0, 3.0])
    calls = {
        "assemble_ugee": lambda: assemble_ugee(model, data, beta),
        "sandwich_variance": lambda: sandwich_variance(model, data, beta),
        "estimate_nuisance": lambda: (estimate_nuisance(model, data, beta),),
    }

    def run():
        return {name: [np.asarray(a).tobytes() for a in call()]
                for name, call in calls.items()}

    forking(None)
    serial = run()
    forking(workers)
    assert run() == serial
    assert len(forks) == len(calls) * (workers - 1)


_BLAS_SCRIPT = """
import sys
import numpy as np
import pairgee.ustat as ustat
from pairgee import FrmModel, WorkingVariance, adaptive_fit, gen_nb_scenario

# a threaded BLAS splits each chunk's dot product by thread; the reduction
# returns each chunk's dot in its own component, so no rounding hides it
rng = np.random.default_rng(4)
K = 20
a, b = rng.random(K * ustat.CHUNK_PAIRS), rng.random(K * ustat.CHUNK_PAIRS)


def dot(sl):
    out = np.zeros(K)
    out[sl.start // ustat.CHUNK_PAIRS] = a[sl] @ b[sl]
    return (out,)


model = FrmModel(link="exp", working_variance=WorkingVariance("nb"), intercept=True)
data = gen_nb_scenario(300, 3)   # 44,850 pairs: three chunks of the default size
out = []
for fork_pairs in (1 << 62, 2):
    ustat.FORK_PAIRS = fork_pairs
    ustat._usable_cpus = lambda: 2
    with ustat.pass_workers(lambda: dot, len(a)) as workers:
        dots = workers.reduce()
    res = adaptive_fit(model, data)
    out.append(b"".join(np.asarray(v).tobytes() for v in (
        *dots, res.beta, res.cov_beta, res.sigma_u, res.b_matrix)))
sys.stdout.write(out[0].hex() + " " + out[1].hex())
"""


def test_forked_fits_do_not_depend_on_the_hosts_blas_threads():
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", _BLAS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        serial, forked = done.stdout.split()
        assert forked == serial
        digests.append(serial)
    assert digests[0] == digests[1]


def _wide(k):
    """nb data whose identity-link mean overflows to inf on pair k alone."""
    data = gen_nb_scenario(40, 5)
    x = data.x.copy()
    x[k, 0] = 1e300
    return PairData(n=data.n, x=x, f=data.f)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("k", [130, 170], ids=["parent-chunk", "child-chunk"])
def test_an_evaluation_error_names_the_serial_pair(forking, k):
    # with 50-pair chunks and 2 workers, chunk 2 (pairs 100-149) is the
    # parent's and chunk 3 (pairs 150-199) the child's
    model = FrmModel(link="identity", working_variance=WorkingVariance("propmean"),
                     intercept=False)
    errors = []
    for workers in (None, 2):
        forking(workers)
        with pytest.raises(EvaluationError) as err:
            estimate_nuisance(model, _wide(k), np.array([1e10]))
        errors.append((str(err.value), err.value.pair))
    assert errors[0] == errors[1]
    assert errors[0][1] == tuple(int(i[0]) for i in pair_indices(40, k, k + 1))


def test_the_first_error_in_chunk_order_is_raised(forking):
    def part(sl):
        if sl.start >= 150:   # chunks 3 (a child's) and 4 (the parent's) raise
            raise ValueError(f"chunk at {sl.start}")
        return (np.ones(2),)

    for workers in (None, 2):
        forking(workers)
        with pytest.raises(ValueError, match="chunk at 150$"):
            _reduce(part, 1000)


def test_a_runtime_warning_in_a_child_is_raised_as_in_one_process(forking):
    def part(sl):
        return (np.float64(1e300) * (1e10 if sl.start == 150 else 1.0),)

    for workers in (None, 2):
        forking(workers)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="overflow"):
                _reduce(part, 1000)


def test_a_child_that_dies_is_an_error_not_a_hang(forking):
    def part(sl):
        if sl.start == 150 and os.getpid() != parent:
            os._exit(3)
        return (1.0,)

    parent = os.getpid()
    forking(2)
    with pytest.raises(RuntimeError, match="ended before sending the part of chunk 3"):
        _reduce(part, 1000)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children that ``os.fork`` makes while the test runs."""
    made = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return made


def test_a_reduction_forks_one_child_per_further_usable_cpu(monkeypatch, chunk_pairs,
                                                            forks):
    # the CPU helper is not patched: on one usable CPU nothing is forked
    chunk_pairs(50)
    monkeypatch.setattr(pairgee.ustat, "FORK_PAIRS", 2)
    total = _reduce(lambda sl: (np.arange(sl.start, sl.stop).sum(),), 1000)
    assert total == (sum(range(1000)),)
    assert len(forks) == min(pairgee.ustat._usable_cpus(), 20) - 1


def test_each_worker_takes_at_least_half_the_fork_threshold(monkeypatch, chunk_pairs,
                                                            forks):
    chunk_pairs(50)
    monkeypatch.setattr(pairgee.ustat, "FORK_PAIRS", 200)
    monkeypatch.setattr(pairgee.ustat, "_usable_cpus", lambda: 8)
    for n_items, workers in [(199, 1), (200, 2), (450, 4), (5000, 8)]:
        forks.clear()
        total = _reduce(lambda sl: (np.arange(sl.start, sl.stop).sum(),), n_items)
        assert total == (sum(range(n_items)),)
        assert len(forks) == workers - 1


@pytest.mark.parametrize("every", [1, 2], ids=["no-child", "one-child"])
def test_a_fork_that_fails_leaves_its_chunks_to_the_parent(forking, monkeypatch, every):
    # with 3 workers, every=2 lets the first fork of each reduction through
    # and fails the second
    model, data = _fit_case("nb")
    forking(None)
    serial = _fit_bytes(model, data)
    forking(3)
    calls = []
    fork = os.fork

    def failing():
        calls.append(None)
        if len(calls) % every == 0:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", failing)
    fds = sorted(os.listdir("/proc/self/fd"))
    assert _fit_bytes(model, data) == serial
    assert sorted(os.listdir("/proc/self/fd")) == fds
    assert len(calls) >= 2


def test_nothing_is_forked_without_the_bundled_openblas(forking, monkeypatch, forks):
    forking(2)
    monkeypatch.setattr(pairgee.ustat, "_openblas", lambda: None)
    assert _reduce(lambda sl: (1.0,), 1000) == (20.0,)
    assert forks == []


def test_a_blas_thread_count_of_one_is_left_alone(monkeypatch):
    # setting the count starts a spinning BLAS thread in a forked process,
    # such as a worker of a Monte Carlo study, whose count is one already
    calls = []
    for count in (1, 2):
        calls.clear()
        monkeypatch.setattr(pairgee.ustat, "_openblas",
                            lambda: (lambda: count, calls.append))
        assert _reduce(lambda sl: (1.0,), 10) == (1.0,)
        assert calls == ([] if count == 1 else [1, 2])


@pytest.fixture
def passes(monkeypatch):
    """The names of the chunk functions of the passes that fits make in this
    process, in order."""
    kinds = []
    pass_chunks = pairgee.fit._pass_chunks
    parent = os.getpid()

    def recording(model, data, part, beta, value):
        if os.getpid() == parent:
            kinds.append(part.__name__)
        return pass_chunks(model, data, part, beta, value)

    monkeypatch.setattr(pairgee.fit, "_pass_chunks", recording)
    return kinds


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


def test_an_nb_fit_forks_its_workers_once(forking, forks, passes):
    model, data = _fit_case("nb")
    forking(None)
    serial = _fit_bytes(model, data)
    forking(3)
    passes.clear()
    assert _fit_bytes(model, data) == serial
    assert len(forks) == 2 and len(passes) > 2 * len(forks)


def test_fit_icc_forks_its_statistics_workers_once(forking, forks):
    # the moment fit's one pass over pairs runs on a worker set of its own
    ratings = _fit_case("fit_icc")[1]
    forking(3)
    fit_icc(ratings)
    assert len(forks) == 2


class Injected(Exception):
    pass


def _vanishing_gradient_case():
    # f near -400 with a constant covariate: the first step goes to
    # eta = -401, where h' = exp(-401) squares to 0 and J is exactly zero
    rng = make_rng(1, 0)
    i1, i2 = enumerate_pairs(12).T
    f = -400.0 + 0.01 * rng.normal(size=len(i1))
    data = PairData(n=12, i1=i1, i2=i2, x=np.ones((len(i1), 1)), f=f)
    return FrmModel(link="exp", working_variance=WorkingVariance("constant", 1.0),
                    intercept=False), data


def _failing_fit(end, monkeypatch):
    if end == "NonConvergence":
        model, data = _fit_case("nb")
        return lambda: adaptive_fit(model, data, FitConfig(max_iter=1, tol_eq=1e-300))
    if end == "EvaluationError":   # at the start, on a child's chunk
        model = FrmModel(link="identity", intercept=False,
                         working_variance=WorkingVariance("propmean"))
        data = _wide(170)
        return lambda: adaptive_fit(model, data, FitConfig(init_beta=np.array([1e10])))
    if end == "SingularInformation":
        model, data = _vanishing_gradient_case()
        return lambda: solve_ugee(model, data, FitConfig(max_iter=2, tol_eq=1e-300))

    def injected(new, old):   # after the first nuisance pass
        raise Injected

    monkeypatch.setattr(pairgee.fit, "_nuisance_close", injected)
    model, data = _fit_case("nb")
    return lambda: adaptive_fit(model, data)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("end", [NonConvergence, EvaluationError, SingularInformation,
                                 Injected], ids=lambda e: e.__name__)
def test_a_fit_that_raises_leaves_no_child_and_no_descriptor(forking, forks, monkeypatch,
                                                             end):
    fit = _failing_fit(end.__name__, monkeypatch)
    forking(2)
    fds = _open_fds()
    with pytest.raises(end):
        fit()
    assert forks   # a worker set was running
    assert _open_fds() == fds
    # the autouse fixture checks that every child was reaped


def test_a_trial_step_that_raises_in_a_child_is_halved_as_in_one_process(forking, forks,
                                                                         chunk_pairs):
    # the first full step puts eta near 1600, past the exp link's range on
    # every pair with a covariate; chunk 0 (pairs 0-9, the parent's) has
    # none, so the first overflow in chunk order is raised in chunk 1, the
    # child's
    rng = make_rng(1, 0)
    i1, i2 = enumerate_pairs(12).T
    x = rng.uniform(0.4, 0.6, size=(len(i1), 1))
    x[:10] = 0.0
    data = PairData(n=12, i1=i1, i2=i2, x=x, f=500.0 * np.exp(2.0 * x[:, 0]))
    model = FrmModel(link="exp", working_variance=WorkingVariance("constant"),
                     intercept=False)
    fits = []
    for workers in (None, 2):
        forking(workers)
        chunk_pairs(10)
        # with RuntimeWarning an error, as in this suite, a child that did
        # not take the solver's silenced overflow from the pass would raise;
        # from beta = 0, as the exp link's own start takes no such step
        fits.append(_fit_bytes(model, data, FitConfig(init_beta=np.zeros(1))))
    assert fits[0] == fits[1]
    # only a raising pass ends a set before the fit does, and chunk 0 cannot
    # raise, so a child's chunk raised and the next trial step forked again
    assert len(forks) >= 2


def test_a_child_evaluates_a_trial_step_under_the_solvers_error_state(forking, forks,
                                                                      chunk_pairs):
    # from beta = 0 the first full step puts eta near 500 on the pairs of
    # chunks 1-6: within the exp link's range, but the residuals' squares
    # overflow.  The solver silences that for trial steps, and the child,
    # forked at the start pass, must take the silencing from the pass;
    # RuntimeWarning is an error in this suite
    rng = make_rng(1, 0)
    i1, i2 = enumerate_pairs(12).T
    x = rng.uniform(0.4, 0.6, size=(len(i1), 1))
    x[:10] = 0.0
    data = PairData(n=12, i1=i1, i2=i2, x=x, f=300.0 * (1.0 + x[:, 0]))
    model = FrmModel(link="exp", working_variance=WorkingVariance("constant"),
                     intercept=False)
    fits = []
    for workers in (None, 2):
        forking(workers)
        chunk_pairs(10)
        fits.append(_fit_bytes(model, data, FitConfig(init_beta=np.zeros(1))))
    assert fits[0] == fits[1] and len(forks) == 1


def test_a_worker_killed_between_passes_is_an_error_not_a_hang(forking, forks,
                                                              monkeypatch):
    model, data = _fit_case("nb")
    close = pairgee.fit._nuisance_close

    def killing(new, old):
        os.kill(forks[0], signal.SIGKILL)
        return close(new, old)

    monkeypatch.setattr(pairgee.fit, "_nuisance_close", killing)
    forking(2)
    fds = _open_fds()
    with pytest.raises(RuntimeError, match="ended before sending the part of chunk 1$"):
        adaptive_fit(model, data)
    assert len(forks) == 1 and _open_fds() == fds


def test_a_worker_that_ended_between_passes_is_named_and_the_next_pass_forks_afresh(
        forking, forks):
    # waited for but not reaped, the worker has closed its task pipe, so the
    # next task's send finds it broken; reading its first part names it
    def part(sl):
        return (np.arange(sl.start, sl.stop).sum(),)

    forking(2)
    with pass_workers(lambda: part, 1000) as workers:
        assert workers.reduce() == (sum(range(1000)),)
        child = forks[0]
        os.kill(child, signal.SIGKILL)
        os.waitid(os.P_PID, child, os.WEXITED | os.WNOWAIT)
        with pytest.raises(RuntimeError, match=f"^reduction worker {child} ended before "
                                               f"sending the part of chunk 1$"):
            workers.reduce()
        assert workers.reduce() == (sum(range(1000)),)
        assert len(forks) == 2


def test_a_pass_sends_its_workers_a_task_whose_size_does_not_grow_with_the_pairs(
        forking, monkeypatch):
    # a userfixed variance holds one value per pair; no pass sends them
    parent = os.getpid()
    sizes = []
    send = pairgee.ustat._send

    def recording(file, message):
        if os.getpid() == parent:
            sizes.append(len(pickle.dumps(message, pickle.HIGHEST_PROTOCOL)))
        send(file, message)

    monkeypatch.setattr(pairgee.ustat, "_send", recording)
    forking(2)
    largest = []
    for n in (40, 80):
        data = gen_nb_scenario(n, 7)
        sizes.clear()
        adaptive_fit(_nb_model("userfixed", per_pair=np.linspace(0.5, 2.0, data.n_pairs)),
                     data)
        assert len(sizes) > 2
        largest.append(max(sizes))
    assert largest[0] == largest[1] < 1024


# --------------------------------------------------------------------- spread

@pytest.mark.parametrize("workers", [1, 2, 3])
def test_spread_evaluates_item_k_on_worker_k_mod_w_and_forks_no_pass(forking, forks,
                                                                     workers):
    # each item runs a pass that would fork on its own: none does, neither
    # in this process nor in a child
    def item(k):
        made = len(forks)
        total = _reduce(lambda sl: (float(sl.stop - sl.start),), 1000)
        return k * k, os.getpid(), total, len(forks) - made

    forking(workers)
    parts = spread(item, 7)
    pids = [os.getpid(), *forks]
    assert len(pids) == workers
    assert parts == [(k * k, pids[k % workers], (1000.0,), 0) for k in range(7)]


@pytest.mark.parametrize("first", [3, 4], ids=["a-childs", "this-process's"])
def test_spread_raises_the_first_error_in_item_order(forking, first):
    def item(k):
        if k >= first:   # with two workers, odd items are the child's
            raise ValueError(f"item {k}")
        return k

    for workers in (None, 2):
        forking(workers)
        with pytest.raises(ValueError, match=f"item {first}$"):
            spread(item, 6)


def test_a_spread_child_that_dies_is_an_error_not_a_hang(forking):
    def item(k):
        if os.getpid() != parent:
            os._exit(3)
        return k

    parent = os.getpid()
    forking(2)
    with pytest.raises(RuntimeError, match="ended before sending the part of chunk 1$"):
        spread(item, 4)


def test_spread_of_no_items_is_empty(forking, forks):
    forking(2)
    assert spread(lambda k: 1 / 0, 0) == []
    assert forks == []
