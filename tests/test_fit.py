import dataclasses
import functools
import importlib
import inspect
import math
import pkgutil
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pairgee import (EvaluationError, FitConfig, FrmModel, IccModel, InputError,
                     Kernel, MeanVarianceModel, NonConvergence, PairCovariate,
                     PairData, PairScoreTable, SingularInformation, SubjectRecord,
                     WorkingVariance, adaptive_fit, assemble_ugee, build_pairs,
                     apply_pseudocount, enumerate_pairs, estimate_nuisance, fit_icc,
                     fit_mean_variance, gen_icc_ratings, gen_mww_probit,
                     gen_nb_scenario, hajek_scores, icc_pair_data, make_rng,
                     projection_variance, sandwich_variance, solve_ugee)

import pairgee
import pairgee.cli
import pairgee.fit
import pairgee.kernels
import pairgee.model
import pairgee.simulate
import pairgee.ustat
from pairgee.fit import _bind, _chunk_mean, _chunk_terms

from oracles import (brute_hajek, brute_pair_pass, brute_projection_variance,
                     full_array_subject_pairs, mean_and_gradient_by_hand,
                     nb_tau_quadratic, pairwise_least_squares)


def _model(link="identity", wv="constant", intercept=False, value=None):
    return FrmModel(link=link, working_variance=WorkingVariance(wv, value),
                    intercept=intercept)


def _random_pairs(rng, n, p=1, beta=None, link="identity", noise=1.0):
    pairs = enumerate_pairs(n)
    x = rng.normal(size=(len(pairs), p))
    eta = x @ (beta if beta is not None else np.ones(p))
    if link == "identity":
        f = eta + noise * rng.normal(size=len(pairs))
    else:
        f = np.exp(eta) + noise * rng.normal(size=len(pairs))
    return PairData(n=n, i1=pairs[:, 0], i2=pairs[:, 1], x=x, f=f)


def _score_table(model, data, beta):
    """The per-pair scores of a scalar model at ``beta``, evaluated as one chunk."""
    return PairScoreTable(data.n, _chunk_terms(model, data, beta, slice(0, data.n_pairs))[1].T)


# ------------------------------------------------------------- pair data

def test_pair_data_canonicalises_row_order():
    rng = np.random.default_rng(1)
    n = 6
    pairs = enumerate_pairs(n)
    x = rng.normal(size=(len(pairs), 2))
    f = rng.normal(size=len(pairs))
    perm = rng.permutation(len(pairs))
    data = PairData(n=n, i1=pairs[perm, 0], i2=pairs[perm, 1],
                    x=x[perm], f=f[perm])
    assert np.array_equal(data.i1, pairs[:, 0])
    assert np.array_equal(data.x, x)
    assert np.array_equal(data.f, f)


def test_pair_data_validation():
    with pytest.raises(InputError):
        PairData(n=3, i1=[0, 0], i2=[1, 2], x=np.zeros((2, 1)), f=[1.0, 2.0])
    with pytest.raises(InputError):
        PairData(n=3, i1=[0, 0, 1, 1], i2=[1, 2, 2, 2],
                 x=np.zeros((4, 1)), f=np.ones(4))
    with pytest.raises(InputError):
        PairData(n=3, i1=[1, 0, 1], i2=[0, 2, 2], x=np.zeros((3, 1)), f=np.ones(3))
    with pytest.raises(InputError, match="duplicate pair in dataset"):
        PairData(n=3, i1=[0, 1, 0], i2=[1, 2, 1], x=np.zeros((3, 1)), f=np.ones(3))


def test_pair_data_without_covariates_takes_an_empty_x():
    data = PairData(n=3, x=[], f=[1.0, 2.0, 3.0])
    assert data.x.shape == (3, 0)


def test_build_pairs_matches_manual_construction():
    rng = np.random.default_rng(3)
    subjects = [SubjectRecord(i, y=[float(v)], x=[float(u)])
                for i, (v, u) in enumerate(zip(rng.normal(size=5),
                                               rng.normal(size=5)))]
    data = build_pairs(subjects, Kernel.sqhalfdiff(),
                       PairCovariate("difference"))
    ys = np.array([s.y[0] for s in subjects])
    xs = np.array([s.x[0] for s in subjects])
    pairs = enumerate_pairs(5)
    assert np.allclose(data.f, 0.5 * (ys[pairs[:, 0]] - ys[pairs[:, 1]]) ** 2)
    assert np.allclose(data.x[:, 0], xs[pairs[:, 0]] - xs[pairs[:, 1]])


def _count_records(n=6, taxa=4, seed=2):
    counts = np.random.default_rng(seed).poisson(2.0, size=(n, taxa)).astype(float)
    counts[:, 0] += 1.0   # no all-zero row
    return [SubjectRecord(k, y=row) for k, row in enumerate(counts)]


@pytest.mark.parametrize("kernel", [Kernel.mww(), Kernel.sqhalfdiff(), Kernel.icc()],
                         ids=["mww", "sqhalfdiff", "icc"])
def test_build_pairs_takes_a_pseudocount_only_for_compositional_kernels(kernel):
    # icc closed each rater row and fitted the result
    ratings = [SubjectRecord(k, y=[k + 1.0, 2.0 * k + 1.0]) for k in range(5)]
    with pytest.raises(InputError, match=f"{kernel.kind} kernel takes no pseudocount"):
        build_pairs(ratings, kernel, pseudocount="half-min")


def test_build_pairs_rejects_a_pseudocount_on_one_outcome_column():
    # a matrix closure without the 2-component check gave all ones here
    records = [SubjectRecord(k, y=[k + 1.0]) for k in range(5)]
    with pytest.raises(InputError):
        build_pairs(records, Kernel.mww(), pseudocount="half-min")
    with pytest.raises(InputError, match="a composition needs at least 2 components"):
        build_pairs(records, Kernel.custom(lambda a, b: 0.0), pseudocount="half-min")


@pytest.mark.parametrize("pseudocount,message", [
    (None, "eps=0.5 needs pseudocount='additive'"),
    ("half-min", "half-min pseudocount takes no eps, got 0.5")], ids=["none", "half-min"])
def test_build_pairs_rejects_an_eps_that_no_policy_reads(pseudocount, message):
    # each was accepted and the eps ignored
    with pytest.raises(InputError, match=message):
        build_pairs(_count_records(), Kernel.aitchison(), pseudocount=pseudocount, eps=0.5)


def test_build_pairs_closes_counts_for_a_custom_kernel():
    records = _count_records()
    rows = np.vstack([apply_pseudocount(r.y, "additive", 0.5).values for r in records])
    data = build_pairs(records, Kernel.custom(lambda a, b: float(a @ b)),
                       pseudocount="additive", eps=0.5)
    i1, i2 = data.i1, data.i2
    assert np.array_equal(data.f, [float(rows[a] @ rows[b]) for a, b in zip(i1, i2)])


def test_build_pairs_memory_is_pair_arrays_plus_one_kernel_chunk(monkeypatch):
    # aitchison on 200 subjects x 100 taxa, evaluated 512 pairs at a time:
    # beyond the subject arrays, the peak holds pair-length arrays (the
    # responses) and a chunk's rows of clr differences, never a pair x
    # taxa array
    import tracemalloc
    n, taxa, chunk = 200, 100, 512
    monkeypatch.setattr(pairgee.ustat, "CHUNK_PAIRS", chunk)
    counts = make_rng(21, 0).poisson(3.0, size=(n, taxa)).astype(float)
    subjects = [SubjectRecord(k, y=counts[k]) for k in range(n)]
    n_pairs = n * (n - 1) // 2
    bound = 8 * (16 * n_pairs + 4 * chunk * taxa + 4 * n * taxa)   # 4.8 MB
    tracemalloc.start()
    try:
        data = build_pairs(subjects, Kernel.aitchison(), pseudocount="half-min")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.n_pairs == n_pairs
    # one all-pairs array of clr differences alone would be 15.9 MB
    assert peak < bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"


_KERNELS = {"aitchison": Kernel.aitchison(), "mww": Kernel.mww(),
            "mww-midrank": Kernel.mww("midrank"), "sqhalfdiff": Kernel.sqhalfdiff(),
            "icc": Kernel.icc()}
_PAIR_COVARIATES = {"none": None, "difference": PairCovariate("difference"),
                    "sum": PairCovariate("sum"),
                    "concatenate": PairCovariate("concatenate"),
                    "onehot": PairCovariate("onehot", levels=3)}


def _same_bytes(data, x, f):
    return (data.x.shape == x.shape and data.f.shape == f.shape
            and data.x.tobytes() == x.tobytes() and data.f.tobytes() == f.tobytes())


@pytest.mark.parametrize("chunk", [7, None], ids=["chunk7", "default"])
@pytest.mark.parametrize("covariate", list(_PAIR_COVARIATES))
@pytest.mark.parametrize("kernel", list(_KERNELS))
def test_build_pairs_matches_the_full_array_oracle(kernel, covariate, chunk,
                                                  chunk_pairs):
    if chunk is not None:
        chunk_pairs(chunk)
    rng = make_rng(61)
    n = 23
    Y = (rng.uniform(0.5, 2.0, size=(n, 4)) if kernel == "aitchison"
         else rng.normal(size=(n, 3)) if kernel == "icc"
         else rng.integers(0, 6, size=(n, 1)).astype(float))   # with ties
    X = (rng.integers(1, 4, size=(n, 1)).astype(float) if covariate == "onehot"
         else rng.normal(size=(n, 2)))
    subjects = [SubjectRecord(k, y=Y[k], x=X[k]) for k in range(n)]
    data = build_pairs(subjects, _KERNELS[kernel], _PAIR_COVARIATES[covariate])
    assert _same_bytes(data, *full_array_subject_pairs(
        _KERNELS[kernel], Y, X, _PAIR_COVARIATES[covariate]))


@pytest.mark.parametrize("chunk", [7, None], ids=["chunk7", "default"])
def test_icc_pair_data_matches_the_full_array_oracle(chunk, chunk_pairs):
    if chunk is not None:
        chunk_pairs(chunk)
    ratings = gen_icc_ratings(190, 4, 8).ratings   # 17,955 pairs: 2 default chunks
    assert _same_bytes(icc_pair_data(ratings),
                       *full_array_subject_pairs(Kernel.icc(), ratings))


@pytest.mark.parametrize("i1,i2,ids,message", [
    ([0, 0], [1, 2], None, "incomplete dataset: 2 of 3 pairs for n=3"),
    ([0, 0, 1, 1], [1, 2, 2, 2], None, "incomplete dataset: 4 of 3 pairs for n=3"),
    ([0, 1, 0], [1, 2, 1], None, "duplicate pair in dataset"),
    ([1, 0, 1], [0, 2, 2], None, "pair indices must satisfy 0 <= i1 < i2 < n"),
    ([0, 0, 1], [1, 1, 2], None, "duplicate pair in dataset"),
    ([0, 0, 2], [1, 2, 2], None, "pair indices must satisfy 0 <= i1 < i2 < n"),
    ([0, 0, 1], [1, 3, 2], None, "pair indices must satisfy 0 <= i1 < i2 < n"),
    ([-1, 0, 1], [1, 2, 2], None, "pair indices must satisfy 0 <= i1 < i2 < n"),
    ([0, 0], [1, 5], None, "pair indices must satisfy 0 <= i1 < i2 < n"),   # range first
    ([0, 0, 1], [1, 2], None, "pair arrays have inconsistent lengths"),
    # one id for three subjects, and a repeated id, were accepted
    ([0, 0, 1], [1, 2, 2], ("a",), "1 subject ids for n=3"),
    ([0, 0, 1], [1, 2, 2], ("a", "a", "b"), "duplicate subject ids in dataset"),
], ids=["incomplete", "too-many", "duplicate", "i1>i2", "duplicate-first-row",
        "i1==i2", "i2>=n", "i1<0", "range-before-count", "lengths", "subject-ids",
        "repeated-subject-id"])
def test_pair_data_rejects_index_faults_with_their_message(i1, i2, ids, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        PairData(n=3, i1=i1, i2=i2, x=np.zeros((len(i1), 1)), f=np.ones(len(i1)),
                 subject_ids=ids)


def test_pair_data_checks_in_order_and_without_indices():
    def error(**kw):
        with pytest.raises(InputError) as err:
            PairData(**kw)
        return str(err.value)

    # lengths before the subject count, the subject count before the pairs
    assert error(n=1, i1=[0], i2=[1, 2], x=np.zeros((1, 1)), f=[1.0]) == \
        "pair arrays have inconsistent lengths"
    assert error(n=1, i1=[0], i2=[1], x=np.zeros((1, 1)), f=[1.0]) == \
        "need at least 2 subjects"
    assert error(n=3, i1=[0, 0, 1], i2=[1, 2, 2], x=np.zeros((3, 1)),
                 f=[1.0, np.inf, 0.0]) == "pair data must be finite"
    # without i1 and i2 the rows are the canonical pairs, so only a count
    # can be wrong
    assert error(n=3, x=np.zeros((2, 1)), f=[1.0, 2.0]) == \
        "incomplete dataset: 2 of 3 pairs for n=3"
    assert error(n=3, x=np.zeros((3, 1)), f=[1.0, 2.0]) == \
        "pair arrays have inconsistent lengths"
    assert error(n=3, i1=[0, 0, 1], x=np.zeros((3, 1)), f=np.ones(3)) == \
        "give both i1 and i2, or neither"


def test_pair_data_keeps_canonical_rows_and_permutes_others():
    rng = make_rng(62)
    n = 40   # 780 pairs: 112 comparison chunks of 7
    pairs = enumerate_pairs(n)
    x, f = rng.normal(size=(len(pairs), 2)), rng.normal(size=len(pairs))
    canonical = PairData(n=n, i1=pairs[:, 0], i2=pairs[:, 1], x=x, f=f)
    assert np.shares_memory(canonical.x, x) and np.shares_memory(canonical.f, f)
    bare = PairData(n=n, x=x, f=f)
    assert np.shares_memory(bare.x, x) and np.shares_memory(bare.f, f)
    # one swapped pair of rows in the last chunk is found and undone
    perm = np.arange(len(pairs))
    perm[[-1, -3]] = perm[[-3, -1]]
    swapped = PairData(n=n, i1=pairs[perm, 0], i2=pairs[perm, 1], x=x[perm], f=f[perm])
    assert np.array_equal(swapped.x, x) and np.array_equal(swapped.f, f)
    for data in (canonical, bare, swapped):
        assert np.array_equal(data.i1, pairs[:, 0])
        assert np.array_equal(data.i2, pairs[:, 1])
        assert data.n_pairs == len(pairs)
    assert [fld.name for fld in dataclasses.fields(PairData)] == \
        ["n", "x", "f", "subject_ids"]


def test_pair_data_arrays_cannot_be_written_through():
    data = gen_nb_scenario(12, 3)
    given = PairData(n=data.n, i1=data.i1, i2=data.i2, x=data.x.copy(),
                     f=data.f.copy())
    for d in (data, given, dataclasses.replace(data, f=data.f + 1.0),
              build_pairs([SubjectRecord(k, y=[float(k % 3)], x=[float(k)])
                           for k in range(6)], Kernel.mww(),
                          PairCovariate("difference"))):
        for name in ("x", "f", "i1", "i2"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(d, name)[0] = 0
    assert np.array_equal(dataclasses.replace(data, f=data.f + 1.0).i2, data.i2)


@pytest.mark.parametrize("k", [6, 7, 13, 14, 21, 189])
def test_check_pairs_names_the_canonical_pair_across_chunks(k, chunk_pairs):
    # pair k of 190 is the only one whose identity-link mean overflows;
    # with 7-pair chunks the pairs 6/7, 13/14 and 20/21 sit on chunk
    # boundaries and 18/19 on a row boundary of n = 20
    chunk_pairs(7)
    data = gen_nb_scenario(20, 5)
    x = data.x.copy()
    x[k, 0] = 1e300
    wide = PairData(n=data.n, x=x, f=data.f)
    with pytest.raises(EvaluationError, match="non-finite mean") as err, \
            np.errstate(over="ignore"):
        estimate_nuisance(_model(wv="propmean"), wide, np.array([1e10]))
    assert err.value.pair == tuple(enumerate_pairs(20)[k].tolist())


def test_no_pass_or_builder_enumerates_all_pairs(monkeypatch, tmp_path):
    # the pair order is decoded from n chunk by chunk; a call to the
    # all-pairs index array anywhere in these paths fails the test
    def refuse(n):
        raise AssertionError("enumerate_pairs called")

    for module in (pairgee, pairgee.cli, pairgee.fit, pairgee.kernels,
                   pairgee.model, pairgee.simulate, pairgee.ustat):
        if hasattr(module, "enumerate_pairs"):
            monkeypatch.setattr(module, "enumerate_pairs", refuse)
    nb = gen_nb_scenario(30, 2)
    adaptive_fit(FrmModel(link="exp", working_variance=WorkingVariance("nb"),
                          intercept=True), nb)
    fit_icc(gen_icc_ratings(20, 3, 2).ratings)
    mww = gen_mww_probit(25, 3)
    build_pairs([SubjectRecord(k, y=[mww.y[k]], x=mww.x[k]) for k in range(25)],
                Kernel.mww(), PairCovariate("difference"))
    pairgee.simulate.mww_pair_data(mww)
    pairgee.simulate.linear_pair_data(pairgee.simulate.gen_linear_exogenous(20, 4))
    hajek_scores(PairScoreTable(9, np.ones(36)))
    pairgee.ustatistic_mean(Kernel.sqhalfdiff(), np.arange(9.0))
    path = tmp_path / "ab.csv"
    path.write_text("id,t1,t2\na,1,3\nb,2,2\nc,5,1\n")
    for full in ([], ["--full"]):
        assert pairgee.cli.main(["distance", "--data", str(path),
                                 "--out", str(tmp_path / "d.csv")] + full) == 0


def test_ustat_chunk_size_alone_sets_every_pass_over_pairs(monkeypatch, tmp_path):
    # with only ustat.CHUNK_PAIRS patched, the per-chunk work of each pass
    # (means, kernel and covariate rows, count draws) gets at most 7 pairs
    monkeypatch.setattr(pairgee.ustat, "CHUNK_PAIRS", 7)
    sizes = []

    def recording(fn, pairs_of):
        def wrapper(*args, **kwargs):
            sizes.append(pairs_of(*args, **kwargs))
            return fn(*args, **kwargs)
        return wrapper

    class RecordingRng:
        def __init__(self, seed):
            self.rng = make_rng(seed)
            self.uniform = self.rng.uniform
            self.gamma = recording(self.rng.gamma, lambda shape, scale: len(scale))
            self.poisson = recording(self.rng.poisson, len)

    def recording_kernel(setup):
        # the kernel is set up once per call; its evaluations are recorded
        return lambda kernel, Y: recording(setup(kernel, Y), lambda i1, i2: len(i1))

    for owner, name, pairs_of in [
            (pairgee.fit, "link_mean_deriv", lambda kind, eta: len(eta)),
            (pairgee.fit, "pair_covariate_matrix", lambda s, X, i1, i2: len(i1))]:
        monkeypatch.setattr(owner, name, recording(getattr(owner, name), pairs_of))
    for owner in (pairgee.fit, pairgee.kernels, pairgee.cli):
        monkeypatch.setattr(owner, "_responses_of", recording_kernel(owner._responses_of))
    nb = gen_nb_scenario(30, 2)
    model = FrmModel(link="exp", working_variance=WorkingVariance("nb", 4.0),
                     intercept=True)
    beta = np.array([3.0, 3.0])

    def evaluate():
        with _bind(model, nb, beta) as bound:
            return bound.evaluate(bound.beta, sandwich=True)

    mww = gen_mww_probit(25, 3)
    ratings = gen_icc_ratings(20, 3, 2).ratings
    monkeypatch.setattr(pairgee.simulate, "_rng", RecordingRng)
    path = tmp_path / "ab.csv"
    path.write_text("id,t1,t2\n" + "".join(f"s{k},{k + 1},{9 - k}\n" for k in range(8)))
    passes = {
        "gen_nb_scenario": lambda: gen_nb_scenario(30, 2),
        "build_pairs": lambda: build_pairs(
            [SubjectRecord(k, y=[mww.y[k]], x=mww.x[k]) for k in range(25)],
            Kernel.mww(), PairCovariate("difference")),
        "evaluate": evaluate,
        "fit_icc": lambda: fit_icc(ratings),
        "estimate_nuisance": lambda: estimate_nuisance(model, nb, beta),
        "ustatistic_mean": lambda: pairgee.ustatistic_mean(Kernel.sqhalfdiff(),
                                                           np.arange(9.0)),
        "distance": lambda: pairgee.cli.main(["distance", "--data", str(path),
                                              "--out", str(tmp_path / "d.csv")]),
    }
    largest = {}
    for name, run in passes.items():
        sizes.clear()
        run()
        largest[name] = max(sizes, default=0)
    assert largest == dict.fromkeys(passes, 7)


def test_only_ustat_holds_the_chunk_size():
    modules = [importlib.import_module(f"pairgee.{m.name}")
               for m in pkgutil.iter_modules(pairgee.__path__)]
    assert [m.__name__ for m in modules if "CHUNK_PAIRS" in vars(m)] == ["pairgee.ustat"]


def test_pair_builders_hold_little_beyond_their_result():
    # tracemalloc peak of each builder against the bytes of its x and f:
    # with the rows filled one chunk at a time and no index arrays kept,
    # a builder holds its result plus O(chunk) temporaries (1.07-1.13 x at
    # n = 1500), where sorting and copying full index and row arrays took
    # 4.6-5.1 x
    import tracemalloc
    n = 1500
    mww = gen_mww_probit(n, 3)
    subjects = [SubjectRecord(k, y=[mww.y[k]], x=mww.x[k]) for k in range(n)]
    ratings = gen_icc_ratings(n, 4, 3).ratings
    builders = {
        "build_pairs": lambda: build_pairs(subjects, Kernel.mww(),
                                           PairCovariate("difference")),
        "icc_pair_data": lambda: icc_pair_data(ratings),
        "gen_nb_scenario": lambda: gen_nb_scenario(n, 11),
    }
    for name, build in builders.items():
        tracemalloc.start()
        try:
            data = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ratio = peak / (data.x.nbytes + data.f.nbytes)
        assert ratio < 1.25, f"{name}: peak {ratio:.2f} x its x and f"


# ---------------------------------------------------------------- assembly

def test_assemble_identity_matches_direct_algebra():
    rng = np.random.default_rng(5)
    data = _random_pairs(rng, 7)
    beta = np.array([0.3])
    U, J = assemble_ugee(_model(), data, beta)
    x, f = data.x[:, 0], data.f
    assert U[0] == pytest.approx(np.sum(x * (f - x * beta[0])), rel=1e-12)
    assert J[0, 0] == pytest.approx(np.sum(x * x), rel=1e-12)


def test_assemble_is_zero_on_exact_model_data():
    rng = np.random.default_rng(6)
    n = 9
    pairs = enumerate_pairs(n)
    x = rng.normal(size=(len(pairs), 2))
    beta_star = np.array([0.5, -1.0])
    data = PairData(n=n, i1=pairs[:, 0], i2=pairs[:, 1], x=x, f=x @ beta_star)
    U, _ = assemble_ugee(_model(), data, beta_star)
    assert np.max(np.abs(U)) < 1e-12 * len(pairs)


def test_assemble_rejects_nonpositive_variance_with_pair():
    # identity link with Bernoulli variance: h outside (0,1) gives V <= 0
    rng = np.random.default_rng(7)
    data = _random_pairs(rng, 5)
    with pytest.raises(EvaluationError) as err:
        assemble_ugee(_model(wv="bernoulli"), data, np.array([2.0]))
    assert err.value.pair is not None


def test_assemble_chunking_matches_one_chunk(monkeypatch):
    rng = np.random.default_rng(8)
    data = _random_pairs(rng, 60)  # 1770 pairs: crosses a chunk boundary
    beta = np.array([0.7])
    monkeypatch.setattr(pairgee.ustat, "CHUNK_PAIRS", 1024)
    U1, J1 = assemble_ugee(_model(), data, beta)
    monkeypatch.setattr(pairgee.ustat, "CHUNK_PAIRS", data.n_pairs)
    U0, J0 = assemble_ugee(_model(), data, beta)
    assert np.allclose(U0, U1, rtol=1e-10)
    assert np.allclose(J0, J1, rtol=1e-10)


@pytest.mark.parametrize("link,wv,value", [
    ("identity", "constant", 2.5), ("exp", "poisson", None),
    ("exp", "propmean", 1.7), ("exp", "nb", 4.0), ("exp", "nb", None),
    ("expit", "bernoulli", None), ("exp", "userfixed", None)])
def test_merit_gradient_equals_estimating_equations(link, wv, value, monkeypatch):
    # the line-search merit is the quasi-likelihood whose gradient is U
    rng = np.random.default_rng(20)
    n = 30
    pairs = enumerate_pairs(n)
    x = rng.uniform(-1.0, 1.0, size=(len(pairs), 1))
    beta = np.array([0.3, 0.8])
    if link == "expit":
        f = (rng.random(len(pairs)) < 0.5).astype(float)
    else:
        f = rng.poisson(np.exp(1.0 + x[:, 0])).astype(float)
    data = PairData(n=n, i1=pairs[:, 0], i2=pairs[:, 1], x=x, f=f)
    per_pair = rng.uniform(0.5, 2.0, len(pairs)) if wv == "userfixed" else None
    model = FrmModel(link=link, working_variance=WorkingVariance(
        wv, value, per_pair=per_pair), intercept=True)
    monkeypatch.setattr(pairgee.ustat, "CHUNK_PAIRS", 128)  # several chunks
    with _bind(model, data) as bound:
        _check_merit_gradient(bound.evaluate, beta)


def _check_merit_gradient(evaluate, beta):
    _, U, _ = evaluate(beta)
    step = 1e-6
    grad = [(evaluate(beta + step * e)[0] - evaluate(beta - step * e)[0]) / (2 * step)
            for e in np.eye(len(beta))]
    assert np.allclose(grad, U, rtol=1e-6, atol=1e-6 * np.max(np.abs(U)))


@pytest.mark.parametrize("name", ["icc", "mean-variance"])
def test_moment_merit_gradient_equals_estimating_equations(name, monkeypatch):
    # the closed-form merit of a moment model is the quasi-likelihood whose
    # gradient is its closed-form U
    monkeypatch.setattr(pairgee.ustat, "CHUNK_PAIRS", 128)  # several chunks
    if name == "icc":
        model, data = IccModel(raters=4), icc_pair_data(gen_icc_ratings(30, 4, 20).ratings)
        beta = np.array([1.2, 0.4])
    else:
        model, data, beta = MeanVarianceModel(), gen_nb_scenario(30, 20), np.array([9.0, 40.0])
    with _bind(model, data) as bound:
        _check_merit_gradient(bound.evaluate, beta)


def _pass_case(name):
    """(model, data, beta) of one pair-pass oracle case; 1225 pairs each."""
    rng = np.random.default_rng(21)
    n = 50
    if name == "icc":
        return (IccModel(raters=4), icc_pair_data(gen_icc_ratings(n, 4, 22).ratings),
                np.array([1.2, 0.4]))
    if name == "identity-const":
        data = _random_pairs(rng, n, p=2, beta=np.array([0.5, -1.0]))
        return (_model(wv="constant", value=2.5, intercept=True), data,
                np.array([0.2, 0.4, -0.7]))
    if name == "exp-nb":
        return (_model("exp", "nb", intercept=True, value=4.0),
                gen_nb_scenario(n, 23), np.array([2.9, 3.2]))
    pairs = enumerate_pairs(n)
    if name == "probitc-bernoulli":
        data = PairData(n=n, i1=pairs[:, 0], i2=pairs[:, 1],
                        x=rng.normal(size=(len(pairs), 2)),
                        f=(rng.random(len(pairs)) < 0.4).astype(float))
        return _model("probitc", "bernoulli"), data, np.array([0.6, -0.3])
    data = PairData(n=n, i1=pairs[:, 0], i2=pairs[:, 1],   # intercept only
                    x=np.empty((len(pairs), 0)), f=rng.normal(1.0, 2.0, len(pairs)))
    return _model(intercept=True), data, np.array([0.8])


PASS_CASES = ("identity-const", "exp-nb", "probitc-bernoulli", "intercept-only",
              "icc")


@functools.cache
def _pass_oracle(name):
    model, data, beta = _pass_case(name)
    return model, data, beta, brute_pair_pass(model, data, beta)


def _check_pass_against_oracle(name):
    model, data, beta, want = _pass_oracle(name)
    with _bind(model, data, beta) as bound:
        got = bound.evaluate(bound.beta, sandwich=True)
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


@pytest.mark.parametrize("chunk", [1, 7, 1024, 1225])
@pytest.mark.parametrize("name", PASS_CASES)
def test_pair_pass_matches_the_per_pair_loop(name, chunk, monkeypatch):
    monkeypatch.setattr(pairgee.ustat, "CHUNK_PAIRS", chunk)
    _check_pass_against_oracle(name)


@given(name=st.sampled_from(PASS_CASES), chunk=st.integers(1, 1500))
def test_pair_pass_matches_the_per_pair_loop_at_any_chunk_size(name, chunk):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pairgee.ustat, "CHUNK_PAIRS", chunk)
        _check_pass_against_oracle(name)


def _mww_fit_bytes(data):
    """The bytes of a probitc rank fit's estimates, or its error."""
    model = FrmModel("probitc", WorkingVariance("bernoulli"), intercept=False)
    try:
        res = adaptive_fit(model, data)
    except (EvaluationError, NonConvergence, SingularInformation) as exc:
        return repr(exc)
    return [a.tobytes() for a in (res.beta, res.cov_beta, res.sigma_u, res.b_matrix)]


@given(n=st.integers(4, 40), seed=st.integers(0, 2**32 - 1))
def test_mww_tie_conventions_agree_on_tie_free_outcomes(n, seed):
    # the conventions differ on tied outcomes alone, where "le" counts 1
    # and "midrank" 1/2
    d = gen_mww_probit(n, seed, beta=[1.0, -0.5])
    assert len(np.unique(d.y)) == n
    subjects = [SubjectRecord(k, y=[d.y[k]], x=d.x[k]) for k in range(n)]
    le, midrank = (build_pairs(subjects, Kernel.mww(ties), PairCovariate("difference"))
                   for ties in ("le", "midrank"))
    assert le.f.tobytes() == midrank.f.tobytes()
    assert _mww_fit_bytes(le) == _mww_fit_bytes(midrank)


def test_intercept_only_identity_fit_is_the_mean_response():
    model, data, _ = _pass_case("intercept-only")
    res = adaptive_fit(model, data)
    assert res.beta == pytest.approx([np.mean(data.f)], rel=1e-12)


def test_one_pair_mean_and_gradient_is_a_row_of_the_chunk_pass():
    # q = 1, no intercept: the (1, N) design of the pass and the one-pair
    # design of the loop oracle hold the same covariate
    data = gen_nb_scenario(20, 25)
    model = _model("exp", "poisson")
    beta = np.array([3.1])
    everything = slice(0, data.n_pairs)
    _, _, h, _ = _chunk_mean(model, data, beta, everything)
    scores = _chunk_terms(model, data, beta, everything)[1]
    assert scores.shape == (1, data.n_pairs)
    for k in (0, 7, data.n_pairs - 1):
        hk, D = mean_and_gradient_by_hand("exp", False, data.x[k], beta)
        assert h[k] == pytest.approx(hk, rel=1e-15)
        assert np.array(D) * (data.f[k] - hk) / hk == pytest.approx(scores[:, k],
                                                                    rel=1e-14)


# ------------------------------------------------------------------ solver

# a tol_eq of inf took the start as converged after 0 iterations; nan
# never converged
@pytest.mark.parametrize("field,value", [("tol_eq", 0.0), ("max_iter", 0),
                                         ("tol_eq", math.inf), ("tol_eq", math.nan)])
def test_fit_config_rejects_a_setting_that_stops_nothing(field, value):
    with pytest.raises(InputError):
        FitConfig(**{field: value})


def test_solver_equals_pairwise_least_squares():
    rng = np.random.default_rng(9)
    for trial in range(5):
        n = int(rng.integers(5, 31))
        p = int(rng.integers(1, 3))
        data = _random_pairs(rng, n, p=p, beta=rng.normal(size=p))
        for intercept in (False, True):
            model = _model(intercept=intercept)
            res = solve_ugee(model, data)
            oracle = pairwise_least_squares(data.x, data.f, intercept)
            assert np.max(np.abs(res.beta - oracle)) < 1e-10
            assert res.converged and res.eq_norm <= 1e-8


def test_solver_exact_model_converges_immediately():
    rng = np.random.default_rng(10)
    n = 8
    pairs = enumerate_pairs(n)
    x = rng.normal(size=(len(pairs), 1))
    beta_star = np.array([1.25])
    data = PairData(n=n, i1=pairs[:, 0], i2=pairs[:, 1], x=x, f=x @ beta_star)
    res = solve_ugee(_model(), data)
    assert res.iterations <= 2
    assert np.allclose(res.beta, beta_star, atol=1e-12)


def test_solver_collinear_column_with_intercept_rejected():
    rng = np.random.default_rng(11)
    n = 6
    pairs = enumerate_pairs(n)
    x = np.column_stack([np.full(len(pairs), 2.0),
                         rng.normal(size=len(pairs))])
    data = PairData(n=n, i1=pairs[:, 0], i2=pairs[:, 1], x=x,
                    f=rng.normal(size=len(pairs)))
    with pytest.raises(SingularInformation):
        solve_ugee(_model(intercept=True), data)


def test_solver_requires_enough_subjects():
    data = _random_pairs(np.random.default_rng(0), 3, p=2)
    with pytest.raises(InputError):
        solve_ugee(FrmModel(link="identity",
                            working_variance=WorkingVariance("constant"),
                            intercept=True), data)


def test_solver_nonconvergence_carries_result():
    data = gen_nb_scenario(30, 123)
    model = FrmModel(link="exp", working_variance=WorkingVariance("poisson"),
                     intercept=True)
    with pytest.raises(NonConvergence) as err:
        solve_ugee(model, data, FitConfig(max_iter=1))
    assert err.value.result is not None
    assert not err.value.result.converged
    assert err.value.eq_norm > 0


def test_a_model_without_parameters_is_an_input_error():
    data = PairData(n=3, x=np.empty((3, 0)), f=[1.0, 2.0, 3.0])
    model = FrmModel("identity", WorkingVariance("constant"), intercept=False)
    with pytest.raises(InputError, match="model has no parameters"):
        solve_ugee(model, data)


def test_an_exp_fit_on_onehot_slots_without_intercept_starts_at_each_slots_irls_step():
    # one IRLS step from mu0 = f + fbar / 100 with W = mu0: on onehot slots
    # each slot's start is its mu0-weighted mean of log mu0
    x = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    data = PairData(n=3, x=x, f=[2.0, 3.0, 7.0])
    model = FrmModel("exp", WorkingVariance("poisson"), intercept=False)
    mu0 = np.array([2.04, 3.04, 7.04])
    with _bind(model, data) as bound:
        np.testing.assert_allclose(bound.beta, [np.log(2.04), mu0[1:] @ np.log(mu0[1:])
                                                / mu0[1:].sum()], rtol=1e-15)
    assert np.allclose(np.exp(solve_ugee(model, data).beta), [2.0, 5.0])


def _start_of(model, data):
    with _bind(model, data) as bound:
        return bound.beta


def test_an_exp_start_with_a_negative_response_is_log_fbar_on_the_intercept():
    # mu0 = f + fbar / 100 of a negative f may be nonpositive, so no IRLS step
    rng = make_rng(3, 0)
    f = rng.uniform(1.0, 5.0, size=66)
    f[7] = -0.5
    data = PairData(n=12, x=rng.uniform(size=(66, 1)), f=f)
    start = _start_of(_model("exp", "constant", intercept=True), data)
    np.testing.assert_array_equal(start, [np.log(np.mean(f)), 0.0])


def test_a_singular_start_matrix_falls_back_to_log_fbar_and_the_solve_stops_there():
    # a duplicated covariate column makes X'WX singular, and J after it
    rng = make_rng(4, 0)
    x = rng.uniform(size=(66, 1))
    data = PairData(n=12, x=np.hstack([x, x]), f=rng.uniform(1.0, 5.0, size=66))
    model = _model("exp", "constant", intercept=True)
    np.testing.assert_array_equal(_start_of(model, data), [np.log(np.mean(data.f)), 0.0, 0.0])
    with pytest.raises(SingularInformation, match="^scoring matrix is numerically singular"):
        solve_ugee(model, data)


def _onehot_counts(seed, levels=3, n=12):
    """Counts on a complete onehot design of ``levels`` groups, every slot taken."""
    rng = make_rng(seed, 0)
    groups = np.arange(n) % levels + 1.0
    subjects = [SubjectRecord(k, y=[rng.poisson(5.0 + 3.0 * groups[k])], x=[groups[k]])
                for k in range(n)]
    data = build_pairs(subjects, Kernel.sqhalfdiff(), PairCovariate("onehot", levels=levels))
    return dataclasses.replace(data, f=np.round(data.f))


@given(design=st.sampled_from(["intercept", "onehot"]), k=st.integers(-30, 30),
       seed=st.integers(0, 2**32 - 1))
def test_the_exp_link_start_is_scale_equivariant(design, k, seed):
    # mu0 = f + fbar / 100 and W = mu0 scale with f, and z = log mu0 moves
    # by log c: scaling f by c = 2^k moves the intercept (every slot of a
    # saturated onehot design) by k log 2 and no slope
    if design == "intercept":
        model, data = _model("exp", "poisson", intercept=True), gen_nb_scenario(15, seed)
        shift = np.array([1.0, 0.0])
    else:
        model, data = _model("exp", "poisson"), _onehot_counts(seed)
        shift = np.ones(data.x.shape[1])
    start = _start_of(model, data)
    scaled = _start_of(model, dataclasses.replace(data, f=data.f * 2.0 ** k))
    np.testing.assert_allclose(scaled, start + k * math.log(2.0) * shift, rtol=0, atol=1e-12)


@pytest.mark.parametrize("wv", ["nb", "poisson", "propmean", "constant"])
def test_exp_fits_from_the_default_start_land_on_a_tight_root(wv):
    """Each fit's beta is within 1e-7 relative of the root at tol_eq = 1e-11.

    The stopping rule max|U| / N <= tol_eq is absolute (ROADMAP item 3), so
    it stops the constant fit, whose U carries 1 / var(f), furthest from
    the root: 4.2e-8 from the one-IRLS-step start, against 1.7e-9 from
    (log fbar, 0).  The others land within 1e-10.
    """
    model, data = _model("exp", wv, intercept=True), gen_nb_scenario(300, 11)
    res = adaptive_fit(model, data)
    ref = adaptive_fit(model, data, FitConfig(tol_eq=1e-11))
    assert res.converged and ref.converged
    np.testing.assert_allclose(res.beta, ref.beta, rtol=1e-7, atol=0)


def _relabelling_subjects(case, seed):
    """30 subjects: compositions in 3 groups, or a scalar outcome whose
    spread grows with a scalar covariate."""
    rng = make_rng(seed, 0)
    if case == "aitchison-onehot":
        groups = np.arange(30) % 3 + 1.0
        return [SubjectRecord(k, y=rng.dirichlet(np.full(4, 2.0 + groups[k])), x=[groups[k]])
                for k in range(30)]
    x = rng.uniform(size=30)
    y = rng.normal(size=30) * np.exp(0.5 + 0.5 * x)
    return [SubjectRecord(k, y=[y[k]], x=[x[k]]) for k in range(30)]


_RELABELLING_CASES = {
    "sqhalfdiff-sum-constant": (Kernel.sqhalfdiff(), PairCovariate("sum"),
                                _model("identity", "constant", intercept=True)),
    "sqhalfdiff-sum-nb": (Kernel.sqhalfdiff(), PairCovariate("sum"),
                          _model("exp", "nb", intercept=True)),
    "aitchison-onehot": (Kernel.aitchison(), PairCovariate("onehot", levels=3),
                         _model("identity", "constant")),
}


@given(case=st.sampled_from(sorted(_RELABELLING_CASES)), seed=st.integers(0, 2**32 - 1),
       perm=st.permutations(range(30)))
def test_relabelling_subjects_leaves_the_fit_unchanged(case, seed, perm):
    # a symmetric kernel and pair covariate give every pair the same row
    # under any subject order; only the order of the sums moves
    kernel, covariate, model = _RELABELLING_CASES[case]
    subjects = _relabelling_subjects(case, seed)
    res = adaptive_fit(model, build_pairs(subjects, kernel, covariate))
    relabelled = adaptive_fit(model, build_pairs([subjects[k] for k in perm],
                                                 kernel, covariate))
    assert res.converged and relabelled.converged
    for got, want in ((relabelled.beta, res.beta), (relabelled.cov_beta, res.cov_beta)):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@given(levels=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_every_working_variance_gives_the_slot_log_means_on_a_saturated_design(levels, seed):
    """Without an intercept each onehot slot has its own equation, whose root
    is the log of the slot's mean response whatever the working variance.

    The fits solve to tol_eq = 1e-12: at the default tol_eq the absolute
    stopping rule (ROADMAP item 3) stops the constant fit, whose U carries
    1 / var(f), up to about 1e-7 from the root on these designs, an
    iteration before the others.
    """
    data = _onehot_counts(seed, levels, n=30)
    slot_log_means = np.log((data.x.T @ data.f) / data.x.sum(axis=0))
    for wv in ("constant", "poisson", "propmean", "nb"):
        res = adaptive_fit(_model("exp", wv), data, FitConfig(tol_eq=1e-12))
        assert res.converged
        assert np.max(np.abs(res.beta - slot_log_means)) <= 1e-10 * np.max(np.abs(slot_log_means))


def _equation_norms(model, data, config, monkeypatch):
    """max|U| / N of every pass that ``solve_ugee`` makes, in order."""
    norms = []
    terms_part = pairgee.fit._terms_part

    def recording(model, data, beta, sandwich, newton, sl):
        part = terms_part(model, data, beta, sandwich, newton, sl)
        norms.append(float(np.max(np.abs(part[1]))) / data.n_pairs)
        return part

    monkeypatch.setattr(pairgee.fit, "_terms_part", recording)
    res = solve_ugee(model, data, config)
    return res, norms


def test_nb_solves_step_with_the_observed_information(monkeypatch):
    # Newton's equation norms fall quadratically, e_k+1 <= 0.1 e_k^2 while
    # above the rounding floor (0.05 e_k^2 here), where scoring's fall by a
    # constant factor; the bread is still D'V^-1 D, as a fresh sandwich's
    data = gen_nb_scenario(40, 7)
    model = _model("exp", "nb", intercept=True, value=10.0)
    res, norms = _equation_norms(model, data, FitConfig(tol_eq=1e-12), monkeypatch)
    steps = [(a, b) for a, b in zip(norms, norms[1:]) if a > 1e-7]
    assert res.converged and len(steps) >= 2
    assert all(b <= 0.1 * a * a for a, b in steps)
    assert _sandwich_bytes(res) == [a.tobytes() for a in sandwich_variance(
        model, data, res.beta)]
    h = np.exp(res.beta[0] + res.beta[1] * data.x[:, 0])
    X = np.column_stack([np.ones(data.n_pairs), data.x])
    np.testing.assert_allclose(res.b_matrix, (X * (10.0 * h / (10.0 + h))[:, None]).T @ X
                               / data.n_pairs, rtol=1e-12)


def test_nb_under_another_link_keeps_its_scoring_steps():
    # the observed information of the Newton steps is the log link's
    data, beta = gen_nb_scenario(40, 7), np.array([20.0, 30.0])
    with _bind(_model("identity", "nb", True, 10.0), data, beta) as bound:
        terms, sandwich = bound.evaluate(beta), bound.evaluate(beta, sandwich=True)
    assert terms[2].tobytes() == sandwich[2].tobytes()


def test_an_nb_pair_below_minus_tau_keeps_its_scoring_weight():
    # its observed-information weight h tau (tau + f) / (tau + h)^2 is
    # negative, and large enough here to make that J indefinite
    tau, beta = 2.0, np.array([1.0, 0.5])
    x = np.linspace(0.0, 1.0, 15)[:, None]
    f = np.arange(15.0)
    f[3] = -1e4
    data = PairData(n=6, x=x, f=f)
    with _bind(_model("exp", "nb", True, tau), data, beta) as bound:
        J = bound.evaluate(beta)[2]
    h = np.exp(beta[0] + beta[1] * x[:, 0])
    w = h * tau * (tau + f) / (tau + h) ** 2
    w[3] = h[3] * tau / (tau + h[3])
    X = np.column_stack([np.ones(15), x])
    np.testing.assert_allclose(J, (X * w[:, None]).T @ X, rtol=1e-12)
    assert np.linalg.eigvalsh(J).min() > 0
    w[3] = h[3] * tau * (tau + f[3]) / (tau + h[3]) ** 2
    assert np.linalg.eigvalsh((X * w[:, None]).T @ X).min() < 0


def test_solver_exp_link_recovers_log_linear_mean():
    data = gen_nb_scenario(80, 42)
    model = FrmModel(link="exp", working_variance=WorkingVariance("poisson"),
                     intercept=True)
    res = solve_ugee(model, data)
    assert res.converged
    assert np.allclose(res.beta, [3.0, 3.0], atol=0.25)


# ---------------------------------------------------------------- sandwich

def test_sandwich_zero_residuals_gives_zero_covariance():
    rng = np.random.default_rng(12)
    n = 10
    pairs = enumerate_pairs(n)
    x = rng.normal(size=(len(pairs), 1))
    data = PairData(n=n, i1=pairs[:, 0], i2=pairs[:, 1], x=x, f=x[:, 0] * 2.0)
    cov, B, Su = sandwich_variance(_model(), data, np.array([2.0]))
    assert np.allclose(Su, 0.0, atol=1e-22)
    assert np.allclose(cov, 0.0, atol=1e-22)


def test_sandwich_streaming_matches_table_path_exactly():
    # n small enough that all pairs fit one chunk: bit-identical paths
    rng = np.random.default_rng(13)
    data = _random_pairs(rng, 40)
    model = _model()
    res = solve_ugee(model, data)
    table = _score_table(model, data, res.beta)
    su_table = projection_variance(hajek_scores(table))
    assert np.array_equal(res.sigma_u, su_table)
    brute = brute_projection_variance(brute_hajek(data.n, table.scores))
    assert np.array_equal(res.sigma_u, brute)


def test_sandwich_streaming_matches_brute_force_across_chunks(monkeypatch):
    rng = np.random.default_rng(14)
    data = _random_pairs(rng, 70)  # 2415 pairs: several chunks
    model = _model()
    monkeypatch.setattr(pairgee.ustat, "CHUNK_PAIRS", 1024)
    res = solve_ugee(model, data)
    table = _score_table(model, data, res.beta)
    brute = brute_projection_variance(brute_hajek(data.n, table.scores))
    assert np.allclose(res.sigma_u, brute, rtol=1e-12, atol=1e-15)


def test_sandwich_reweighting_invariance():
    rng = np.random.default_rng(15)
    data = _random_pairs(rng, 25)
    base_model = _model(wv="constant", value=1.0)
    res1 = solve_ugee(base_model, data)
    c = 7.3
    scaled = FrmModel(link="identity",
                      working_variance=WorkingVariance(
                          "userfixed", per_pair=np.full(data.n_pairs, c)),
                      intercept=False)
    res2 = solve_ugee(scaled, data)
    assert np.max(np.abs(res1.beta - res2.beta)) < 1e-10
    assert np.max(np.abs(res1.cov_beta - res2.cov_beta)) < 1e-10 * max(
        1.0, np.max(np.abs(res1.cov_beta)))


@pytest.mark.parametrize("count", [12, 19])
def test_userfixed_variances_must_match_the_pairs(count):
    data = _random_pairs(np.random.default_rng(16), 6)  # 15 pairs
    model = FrmModel(link="identity", intercept=False,
                     working_variance=WorkingVariance(
                         "userfixed", per_pair=np.ones(count)))
    with pytest.raises(InputError, match=f"{count} per-pair values for 15 pairs"):
        solve_ugee(model, data)


def test_sandwich_reported_covariances_are_psd():
    rng = np.random.default_rng(16)
    for trial in range(10):
        data = _random_pairs(rng, 15, p=2, beta=np.array([0.5, -0.5]))
        res = solve_ugee(_model(intercept=True), data)
        eig = np.linalg.eigvalsh(res.cov_beta)
        assert eig.min() >= -1e-12 * max(np.trace(res.cov_beta), 1e-30)


def test_sandwich_correction_can_be_disabled():
    rng = np.random.default_rng(17)
    data = _random_pairs(rng, 30)
    model = _model()
    res = solve_ugee(model, data)
    cov_plain, B, Su = sandwich_variance(model, data, res.beta, corrected=False)
    cov_corr, _, _ = sandwich_variance(model, data, res.beta, corrected=True)
    Binv = np.linalg.inv(B)
    assert np.allclose(cov_plain, Binv @ Su @ Binv / data.n, rtol=1e-12)
    assert np.array_equal(res.cov_beta, cov_corr)
    # corrected = PSD projection part + per-pair floor, so it dominates the floor
    table = _score_table(model, data, res.beta)
    Z2hat = table.scores.T @ table.scores / data.n_pairs
    floor = Binv @ Z2hat @ Binv / data.n_pairs
    gap_eigs = np.linalg.eigvalsh(cov_corr - floor)
    assert gap_eigs.min() >= -1e-12 * max(np.trace(cov_corr), 1e-30)


# ----------------------------------------------------------- nuisance + adaptive

def test_estimate_nuisance_propmean_unit_when_squared_residuals_equal_mean():
    rng = np.random.default_rng(18)
    n = 12
    pairs = enumerate_pairs(n)
    x = rng.uniform(0.1, 1.0, size=(len(pairs), 1))
    beta = np.array([1.0])
    h = np.exp(x @ beta)
    signs = np.where(rng.random(len(pairs)) < 0.5, -1.0, 1.0)
    f = h + signs * np.sqrt(h)  # residual^2 == h exactly
    data = PairData(n=n, i1=pairs[:, 0], i2=pairs[:, 1], x=x, f=f)
    model = _model(link="exp", wv="propmean")
    tau2 = estimate_nuisance(model, data, beta)
    assert tau2 == pytest.approx(1.0, rel=1e-12)


def test_estimate_nuisance_nb_matches_quadratic_oracle():
    data = gen_nb_scenario(60, 21)
    model = FrmModel(link="exp", working_variance=WorkingVariance("nb"),
                     intercept=True)
    beta = np.array([3.0, 3.0])
    tau = estimate_nuisance(model, data, beta)
    h = np.exp(beta[0] + beta[1] * data.x[:, 0])
    oracle = nb_tau_quadratic((data.f - h) ** 2, h)
    assert tau == pytest.approx(oracle, rel=1e-12)


def test_estimate_nuisance_nb_consistency():
    data = gen_nb_scenario(500, 99, tau=10.0)
    model = FrmModel(link="exp", working_variance=WorkingVariance("nb"),
                     intercept=True)
    res = adaptive_fit(model, data)
    assert abs(res.nuisance - 10.0) <= 2.0  # within 20%


def test_estimate_nuisance_nb_underdispersed_data_hits_sentinel():
    # squared residuals sit below the mean everywhere: no overdispersion
    # signal, so the least-squares 1/tau is not positive
    rng = make_rng(7)
    n = 40
    pairs = enumerate_pairs(n)
    x = rng.uniform(0, 1, size=n)
    xp = x[pairs[:, 0]] + x[pairs[:, 1]]
    mu = np.exp(1.0 + 0.5 * xp)
    f = np.round(mu)
    data = PairData(n=n, i1=pairs[:, 0], i2=pairs[:, 1], x=xp[:, None], f=f)
    model = FrmModel(link="exp", working_variance=WorkingVariance("nb"),
                     intercept=True)
    res = solve_ugee(FrmModel(link="exp",
                              working_variance=WorkingVariance("poisson"),
                              intercept=True), data)
    tau = estimate_nuisance(model, data, res.beta)
    assert np.isinf(tau)


def test_estimate_nuisance_constant_is_sample_variance():
    data = gen_nb_scenario(30, 5)
    model = _model(link="exp", wv="constant", intercept=False)
    assert estimate_nuisance(model, data, np.zeros(1)) == pytest.approx(
        np.var(data.f, ddof=1), rel=1e-14)


def _one_pair():
    return PairData(n=2, i1=[0], i2=[1], x=np.empty((1, 0)), f=[1.5])


def _equal_responses():
    data = gen_nb_scenario(20, 5)
    return dataclasses.replace(data, f=np.full(data.n_pairs, 2.0))


@pytest.mark.parametrize("data,cause", [
    (_equal_responses, "which is zero"), (_one_pair, "undefined for one pair")],
    ids=["equal-responses", "one-pair"])
def test_constant_nuisance_of_degenerate_responses_names_its_cause(data, cause):
    # c = var(f) is zero for equal responses and undefined for one pair;
    # neither is a user-set parameter nor a per-pair variance failure
    data = data()
    model = _model(wv="constant", intercept=True)
    message = ("degenerate pairwise responses: the constant working variance "
               "needs their sample variance, " + cause)
    with pytest.raises(EvaluationError, match=message):
        adaptive_fit(model, data)
    beta = np.zeros(1 + data.x.shape[1])
    with pytest.raises(EvaluationError, match=message):
        estimate_nuisance(model, data, beta)


def test_estimate_nuisance_rejects_kinds_without_nuisance():
    data = gen_nb_scenario(20, 5)
    with pytest.raises(InputError):
        estimate_nuisance(_model(wv="poisson"), data, np.zeros(1))


@pytest.mark.parametrize("wv", ["propmean", "nb"])
def test_estimate_nuisance_rejects_all_zero_means(wv):
    data = gen_nb_scenario(20, 5)
    with pytest.raises(EvaluationError, match="fitted means are all zero"):
        estimate_nuisance(_model(wv=wv), data, np.zeros(1))


_NB = FrmModel(link="exp", working_variance=WorkingVariance("nb"), intercept=True)
_ENTRY_POINTS = {
    "assemble_ugee": lambda data, beta: assemble_ugee(_NB, data, beta),
    "sandwich_variance": lambda data, beta: sandwich_variance(_NB, data, beta),
    "estimate_nuisance": lambda data, beta: estimate_nuisance(_NB, data, beta),
    "solve_ugee": lambda data, beta: solve_ugee(_NB, data, FitConfig(init_beta=beta)),
    "adaptive_fit": lambda data, beta: adaptive_fit(_NB, data, FitConfig(init_beta=beta)),
}


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_every_entry_point_checks_beta_in_one_place(entry):
    # the nb model has 2 parameters: a short, a long and a NaN beta are
    # rejected by the same check before any pass over pairs
    data = gen_nb_scenario(30, 4)
    for beta in ([3.0], [3.0, 3.0, 0.0], [np.nan, 3.0]):
        with pytest.raises(InputError, match="beta must hold 2 finite values"):
            _ENTRY_POINTS[entry](data, np.array(beta))


def test_estimate_nuisance_rejects_the_moment_models():
    data = icc_pair_data(gen_icc_ratings(20, 4, 3).ratings)
    with pytest.raises(InputError, match="IccModel has no working-variance nuisance"):
        estimate_nuisance(IccModel(4), data, np.array([1.0, 0.3]))


def test_only_the_binding_tells_the_model_kinds_apart():
    # the moment models declare that they have no working variance, so no
    # code of fit probes a model for one
    assert IccModel(3).working_variance is None
    assert MeanVarianceModel().working_variance is None
    source = inspect.getsource(pairgee.fit)
    assert not re.search(r"isinstance\(model|getattr\(model", source)
    data = icc_pair_data(gen_icc_ratings(20, 4, 3).ratings)
    assert adaptive_fit(IccModel(4), data).beta.tobytes() == \
        solve_ugee(IccModel(4), data).beta.tobytes()


def test_estimate_nuisance_runs_the_solver_model_checks():
    data = gen_nb_scenario(20, 5)
    constant = PairData(n=data.n, i1=data.i1, i2=data.i2,
                        x=np.ones_like(data.x), f=data.f)
    with pytest.raises(SingularInformation, match="collinear with the intercept"):
        estimate_nuisance(_NB, constant, np.array([3.0, 0.0]))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_estimate_nuisance_names_the_pair_of_a_non_finite_mean():
    data = gen_nb_scenario(20, 5)
    x = data.x.copy()
    x[7, 0] = 1e300       # the identity-link mean overflows to inf here only
    wide = PairData(n=data.n, i1=data.i1, i2=data.i2, x=x, f=data.f)
    with pytest.raises(EvaluationError, match="non-finite mean") as err:
        estimate_nuisance(_model(wv="propmean"), wide, np.array([1e10]))
    assert err.value.pair == (int(data.i1[7]), int(data.i2[7]))


def test_pair_passes_see_one_chunk_at_a_time(monkeypatch):
    # every evaluation of the model over pairs, in the solver and in the
    # nuisance estimate, builds the design of one chunk only
    data = gen_nb_scenario(60, 3)  # 1770 pairs: two chunks of 1024
    models = {wv: FrmModel(link="exp", working_variance=WorkingVariance(wv),
                           intercept=True) for wv in ("propmean", "nb")}
    beta = np.array([3.0, 3.0])
    monkeypatch.setattr(pairgee.ustat, "CHUNK_PAIRS", data.n_pairs)
    one_chunk = {wv: estimate_nuisance(m, data, beta) for wv, m in models.items()}
    rows = []

    def recording(fn, arg):
        def wrapper(*args, **kwargs):
            rows.append(len(args[arg]))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pairgee.fit, "augment", recording(pairgee.fit.augment, 0))
    monkeypatch.setattr(pairgee.fit, "link_mean_deriv",
                        recording(pairgee.fit.link_mean_deriv, 1))
    monkeypatch.setattr(pairgee.ustat, "CHUNK_PAIRS", 1024)
    adaptive_fit(models["nb"], data)
    for wv, model in models.items():
        assert estimate_nuisance(model, data, beta) == pytest.approx(
            one_chunk[wv], rel=1e-12)
    assert rows and max(rows) <= 1024


def test_adaptive_poisson_runs_zero_rounds():
    data = gen_nb_scenario(40, 31)
    model = FrmModel(link="exp", working_variance=WorkingVariance("poisson"),
                     intercept=True)
    res = adaptive_fit(model, data)
    assert res.nuisance is None and res.nuisance_rounds == 0


def test_adaptive_constant_settles_in_one_round():
    data = gen_nb_scenario(40, 32)
    model = FrmModel(link="exp", working_variance=WorkingVariance("constant"),
                     intercept=True)
    res = adaptive_fit(model, data)
    assert res.nuisance_rounds == 1
    assert res.nuisance == pytest.approx(np.var(data.f, ddof=1), rel=1e-14)


def test_adaptive_propmean_is_poisson_in_one_round():
    # tau2 scales U, J and the scores alike, so it cancels from beta and
    # from the sandwich
    data = gen_nb_scenario(100, make_rng(11, 0))
    prop = adaptive_fit(FrmModel(link="exp", working_variance=WorkingVariance(
        "propmean"), intercept=True), data)
    pois = solve_ugee(FrmModel(link="exp", working_variance=WorkingVariance(
        "poisson"), intercept=True), data)
    assert prop.nuisance_rounds == 1
    assert prop.beta.tobytes() == pois.beta.tobytes()
    assert np.allclose(prop.cov_beta, pois.cov_beta, rtol=1e-12, atol=0.0)


def test_adaptive_nb_iterations_sum_over_rounds(monkeypatch):
    import pairgee.fit as fit_module
    data = gen_nb_scenario(40, 33)
    model = FrmModel(link="exp", working_variance=WorkingVariance("nb"),
                     intercept=True)
    per_round = []
    original = fit_module._solve

    def recording(*args, **kwargs):
        res, sums = original(*args, **kwargs)
        per_round.append(res.iterations)
        return res, sums

    monkeypatch.setattr(fit_module, "_solve", recording)
    res = adaptive_fit(model, data)
    assert len(per_round) == res.nuisance_rounds + 1
    assert res.iterations > 0 and res.iterations == sum(per_round)


def test_adaptive_fit_builds_the_sandwich_once(monkeypatch):
    import pairgee.fit as fit_module
    data = gen_nb_scenario(40, 33)
    model = FrmModel(link="exp", working_variance=WorkingVariance("nb"),
                     intercept=True)
    calls = {"_sandwich": 0, "_bind": 0, "_collinearity_check": 0}

    def counting(name):
        original = getattr(fit_module, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return count

    for name in calls:
        monkeypatch.setattr(fit_module, name, counting(name))
    res = adaptive_fit(model, data)
    # the data checks of _bind run once for all rounds and the sandwich
    assert res.nuisance_rounds >= 2
    assert calls == {"_sandwich": 1, "_bind": 1, "_collinearity_check": 1}
    final = solve_ugee(fit_module._with_nuisance(model, res.nuisance), data,
                       FitConfig(init_beta=res.beta))
    assert np.array_equal(res.cov_beta, final.cov_beta)


def test_adaptive_nonconvergence_in_a_round_carries_a_result():
    data = gen_nb_scenario(40, 34)
    model = FrmModel(link="exp", working_variance=WorkingVariance("nb"),
                     intercept=True)
    with pytest.raises(NonConvergence) as err:
        adaptive_fit(model, data, FitConfig(max_iter=1))
    assert err.value.result is not None
    assert np.all(np.isfinite(err.value.result.cov_beta))


def test_adaptive_nb_beats_poisson_on_overdispersed_data():
    data = gen_nb_scenario(150, 77, tau=10.0)
    nb = adaptive_fit(FrmModel(link="exp",
                               working_variance=WorkingVariance("nb"),
                               intercept=True), data)
    pois = adaptive_fit(FrmModel(link="exp",
                                 working_variance=WorkingVariance("poisson"),
                                 intercept=True), data)
    assert nb.cov_beta[1, 1] < pois.cov_beta[1, 1]
    assert nb.nuisance == pytest.approx(10.0, abs=4.0)


# --------------------------------------------------- two-dimensional models

def test_fit_icc_matches_closed_form():
    d = gen_icc_ratings(60, 4, 8)
    res = fit_icc(d.ratings)
    pairs = enumerate_pairs(60)
    m = d.ratings.mean(axis=1)
    f1 = 0.5 * (m[pairs[:, 0]] - m[pairs[:, 1]]) ** 2
    f2 = 0.5 * np.mean((d.ratings[pairs[:, 0]] - d.ratings[pairs[:, 1]]) ** 2,
                       axis=1)
    tau2 = f2.mean()
    rho = (4.0 * f1.mean() / tau2 - 1.0) / 3.0
    assert abs(res.beta[0] - tau2) < 1e-10
    assert abs(res.beta[1] - rho) < 1e-10
    assert res.param_names == ("tau2", "rho")


def test_fit_icc_invariant_to_rater_effects():
    base = gen_icc_ratings(50, 3, 15)
    res1 = fit_icc(base.ratings)
    gamma = np.array([1.0, -2.0, 1.0])
    res2 = fit_icc(base.ratings + gamma[None, :])
    assert np.allclose(res1.beta, res2.beta, atol=1e-12)


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_fit_icc_equals_the_pair_data_fit_bit_for_bit(chunk, monkeypatch):
    # the streamed fit and the fit on icc_pair_data feed the same chunks
    # to the same sufficient statistics
    if chunk is not None:
        monkeypatch.setattr(pairgee.ustat, "CHUNK_PAIRS", chunk)
    ratings = gen_icc_ratings(30, 4, 12).ratings
    streamed = fit_icc(ratings)
    stored = solve_ugee(IccModel(raters=4), icc_pair_data(ratings))
    for field in ("beta", "cov_beta", "sigma_u", "b_matrix"):
        assert getattr(streamed, field).tobytes() == getattr(stored, field).tobytes()
    assert (streamed.iterations, streamed.n_pairs) == (stored.iterations, stored.n_pairs)


def test_fit_icc_holds_no_pair_arrays():
    # n = 1500 has 1,124,250 pairs: the (N, 2) responses alone would take
    # 18 MB, while the fit holds O(n) statistics and one chunk's rows
    import tracemalloc
    ratings = gen_icc_ratings(1500, 4, make_rng(11, 1)).ratings
    tracemalloc.start()
    try:
        res = fit_icc(ratings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged
    assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"


_RATINGS = gen_icc_ratings(6, 3, 1).ratings
_NAN_RATINGS = _RATINGS.copy()
_NAN_RATINGS[2, 1] = np.nan


@pytest.mark.parametrize("ratings,error,message", [
    (_NAN_RATINGS, InputError, "pair data must be finite"),
    (_RATINGS[:, 0], InputError, "ratings must be an (n, K>=2) matrix"),
    (_RATINGS[:, :1], InputError, "ratings must be an (n, K>=2) matrix"),
    (_RATINGS[:2], EvaluationError, "degenerate pairwise responses: the moment "
     "model needs their sample variance, undefined for one pair"),
    (np.ones((6, 3)), EvaluationError, "degenerate pairwise responses: the moment "
     "model needs their sample variance, which is zero"),
    (_RATINGS[:1], InputError, "need at least 2 subjects to form pairs, got 1"),
], ids=["nan", "1-d", "one-rater", "n=2", "constant", "n=1"])
def test_fit_icc_rejects_what_the_pair_data_fit_rejects(ratings, error, message):
    # q = 2, so n < q + 1 subjects leave at most one pair
    with pytest.raises(error) as err:
        fit_icc(ratings)
    assert str(err.value) == message


_HUGE = np.random.default_rng(1).normal(size=(20, 3)) * 1e160


@pytest.mark.parametrize("call", [
    lambda: fit_icc(_HUGE), lambda: icc_pair_data(_HUGE),
    lambda: build_pairs([SubjectRecord(k, y=[v]) for k, v in enumerate(_HUGE[:, 0])],
                        Kernel.sqhalfdiff())],
    ids=["fit_icc", "icc_pair_data", "build_pairs"])
def test_kernel_responses_that_overflow_are_non_finite_pair_data(call):
    # numpy's overflow warning came first, an error under the suite's filter
    with pytest.raises(InputError, match="^pair data must be finite$"):
        call()


@pytest.mark.parametrize("name", ["icc", "mean-variance"])
def test_a_moment_fit_reads_its_responses_once(name, monkeypatch):
    # the solve and the sandwich share one pass of sufficient statistics;
    # it stays in this process, the only one whose chunks are recorded
    monkeypatch.setattr(pairgee.ustat, "CHUNK_PAIRS", 7)
    monkeypatch.setattr(pairgee.ustat, "FORK_PAIRS", 1 << 62)
    if name == "icc":
        model, data = IccModel(raters=3), icc_pair_data(gen_icc_ratings(20, 3, 4).ratings)
    else:
        model, data = MeanVarianceModel(), gen_nb_scenario(20, 4)
    chunks = []
    responses = type(model).responses

    def recording(self, f):
        chunks.append(len(f))
        return responses(self, f)

    monkeypatch.setattr(type(model), "responses", recording)
    res = solve_ugee(model, data, FitConfig(init_beta=np.array([1.0, 0.5])))
    assert res.converged and res.iterations > 1
    assert sum(chunks) == data.n_pairs and max(chunks) == 7


def test_fit_icc_chunked_matches_one_chunk(monkeypatch):
    ratings = gen_icc_ratings(40, 4, 9).ratings  # 780 pairs: 112 chunks of 7
    one = fit_icc(ratings)
    monkeypatch.setattr(pairgee.ustat, "CHUNK_PAIRS", 7)
    chunked = fit_icc(ratings)
    assert np.allclose(chunked.beta, one.beta, rtol=1e-12, atol=0.0)
    assert np.allclose(chunked.cov_beta, one.cov_beta, rtol=1e-12, atol=0.0)


def test_fit_mean_variance_closed_form():
    data = gen_nb_scenario(40, 4)
    res = fit_mean_variance(data)
    mu = data.f.mean()
    sigma2 = np.mean((data.f - mu) ** 2)
    assert abs(res.beta[0] - mu) < 1e-10 * max(1.0, abs(mu))
    assert abs(res.beta[1] - sigma2) < 1e-10 * max(1.0, sigma2)
    assert res.param_names == ("mu", "sigma2")


def test_moment_model_rejects_degenerate_responses():
    pairs = enumerate_pairs(5)
    data = PairData(n=5, i1=pairs[:, 0], i2=pairs[:, 1],
                    x=np.empty((len(pairs), 0)), f=np.full(len(pairs), 2.0))
    with pytest.raises(EvaluationError):
        solve_ugee(MeanVarianceModel(), data)
    with pytest.raises(EvaluationError, match="undefined for one pair"):
        fit_mean_variance(_one_pair())


def test_solver_expit_link_with_binary_working_variance():
    rng = make_rng(41)
    n = 90
    pairs = enumerate_pairs(n)
    x = rng.normal(size=(len(pairs), 1))
    prob = 1.0 / (1.0 + np.exp(-(0.8 * x[:, 0])))
    f = (rng.random(len(pairs)) < prob).astype(float)
    data = PairData(n=n, i1=pairs[:, 0], i2=pairs[:, 1], x=x, f=f)
    model = FrmModel(link="expit", working_variance=WorkingVariance("bernoulli"),
                     intercept=False)
    res = solve_ugee(model, data)
    assert res.converged
    assert res.beta[0] == pytest.approx(0.8, abs=0.25)


@pytest.mark.parametrize("n,beta,expected", [
    (200, (3.0, -1.5), (2.92, -1.42)), (60, 5.0, (4.83,))])
def test_probitc_bernoulli_fit_with_saturated_means(n, beta, expected):
    # |eta| > 8.3 on some pairs: the probitc mean rounds to 1 there, and
    # the bernoulli variance must take 1 - h from eta, not from h
    d = gen_mww_probit(n, make_rng(1, 0), beta=beta)
    subjects = [SubjectRecord(k, y=[d.y[k]], x=d.x[k]) for k in range(n)]
    data = build_pairs(subjects, Kernel.mww(), PairCovariate("difference"))
    model = FrmModel("probitc", WorkingVariance("bernoulli"), intercept=False)
    res = adaptive_fit(model, data)
    assert res.converged
    assert np.allclose(res.beta, expected, atol=0.01)
    assert np.all(np.isfinite(res.se) & (res.se > 0))


def test_init_beta_override_is_respected():
    rng = np.random.default_rng(19)
    data = _random_pairs(rng, 10)
    res = solve_ugee(_model(), data, FitConfig(init_beta=np.array([5.0])))
    oracle = pairwise_least_squares(data.x, data.f, False)
    assert np.allclose(res.beta, oracle, atol=1e-10)


def test_nonfinite_init_beta_is_an_input_error():
    rng = np.random.default_rng(20)
    with pytest.raises(InputError, match="finite"):
        solve_ugee(_model(), _random_pairs(rng, 10),
                   FitConfig(init_beta=np.array([np.nan])))
    with pytest.raises(InputError, match="finite"):
        fit_icc(gen_icc_ratings(20, 3, 5).ratings,
                FitConfig(init_beta=np.array([np.nan, 0.5])))


def test_fit_result_wald_z_and_p():
    res = pairgee.fit.FitResult(
        beta=np.array([1.0, 2.0, -3.0, 30.0]), cov_beta=np.diag([4.0, 0.0, 1.0, 1.0]),
        b_matrix=np.eye(4), sigma_u=np.eye(4), eq_norm=0.0, iterations=1,
        converged=True, n_subjects=3, n_pairs=3, param_names=("a", "b", "c", "d"))
    assert res.z[[0, 2, 3]].tolist() == [0.5, -3.0, 30.0]
    assert np.isnan(res.z[1]) and np.isnan(res.p[1])
    # two-sided: erfc(|z| / sqrt 2) = 2 Phi(-|z|), also far in the tail
    assert res.p[[0, 2, 3]] == pytest.approx(
        [0.6170750774519738, 0.0026997960632601866, 9.813427854295816e-198],
        rel=1e-12, abs=0.0)


# ---------------------------------------------------- scoring-loop branches

# the start of the scoring-loop cases below: from the exp link's own start,
# one IRLS step, the first full step lands near the root and takes none of
# the branches that these tests drive
_FROM_ZERO = FitConfig(init_beta=np.zeros(1))


def _exp_constant_case(f_of_x, x=None, seed=1):
    """An exp-link, constant-variance (c = 1) model without intercept on 12
    subjects, with one covariate in [0.4, 0.6] (or ``x``) per pair and the
    response ``f_of_x(x)``.  With ``_FROM_ZERO`` the scoring loop starts at
    beta = 0."""
    rng = make_rng(seed, 0)
    i1, i2 = enumerate_pairs(12).T
    x = rng.uniform(0.4, 0.6, size=(len(i1), 1)) if x is None else x
    f = f_of_x(x[:, 0], rng)
    return _model("exp", "constant", value=1.0), PairData(n=12, i1=i1, i2=i2, x=x, f=f)


def _overshooting_case():
    # the first full step puts eta near 1600: an exp-link overflow, then a
    # non-finite quasi-objective, before a halved step improves it
    return _exp_constant_case(lambda x, rng: 500.0 * np.exp(2.0 * x))


def test_solver_halves_past_evaluation_errors(monkeypatch):
    model, data = _overshooting_case()
    seen = []
    chunk_terms = pairgee.fit._chunk_terms

    def recording(model, data, beta, sl, newton=False):
        try:
            out = chunk_terms(model, data, beta, sl, newton)
        except EvaluationError as exc:
            seen.append(exc)
            raise
        seen.append(out[0])
        return out

    monkeypatch.setattr(pairgee.fit, "_chunk_terms", recording)
    with np.errstate(over="ignore"):
        res = solve_ugee(model, data, _FROM_ZERO)
    assert res.converged and res.flagged_steps == 0
    assert "exp-link overflow" in str(seen[1]) and seen[1].eta > 700
    assert -np.inf in seen   # a finite candidate whose quasi-objective is not
    near = solve_ugee(model, data, FitConfig(init_beta=np.array([13.0])))
    assert res.beta == pytest.approx(near.beta, rel=1e-8)


def test_an_overflowing_trial_step_emits_no_warning():
    # the same overshooting start, now with warnings as errors and no
    # errstate: the solver evaluates trial steps with overflow silenced
    model, data = _overshooting_case()
    with np.errstate(all="ignore"):
        expected = solve_ugee(model, data, _FROM_ZERO)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = solve_ugee(model, data, _FROM_ZERO)
    assert res.converged
    assert res.beta.tobytes() == expected.beta.tobytes()


def test_evaluation_error_of_the_last_halving_is_raised(monkeypatch):
    monkeypatch.setattr(pairgee.fit, "MAX_HALVINGS", 0)
    model, data = _overshooting_case()
    with pytest.raises(EvaluationError, match="exp-link overflow") as err:
        solve_ugee(model, data, _FROM_ZERO)
    assert err.value.eta > 700


def test_a_step_that_lowers_the_quasi_objective_is_flagged(monkeypatch):
    # the full first step lands at eta near 9 for responses near 10, a
    # worse fit than the start; without halvings it is taken and counted
    model, data = _exp_constant_case(lambda x, rng: 10.0 * np.exp(0.1 * rng.normal(size=len(x))))
    reference = solve_ugee(model, data, _FROM_ZERO)
    monkeypatch.setattr(pairgee.fit, "MAX_HALVINGS", 0)
    res = solve_ugee(model, data, _FROM_ZERO)
    assert reference.flagged_steps == 0 and res.flagged_steps == 1
    assert res.converged and res.iterations > reference.iterations
    assert res.beta == pytest.approx(reference.beta, rel=1e-8)


def test_a_non_finite_step_fails_halving(monkeypatch):
    # scores overflowing to inf give a step without a finite candidate
    model, data = _overshooting_case()
    chunk_terms = pairgee.fit._chunk_terms
    calls = []

    def infinite_scores(model, data, beta, sl, newton=False):
        calls.append(beta)
        merit, s, J = chunk_terms(model, data, beta, sl, newton)
        return merit, np.full_like(s, np.inf), J

    monkeypatch.setattr(pairgee.fit, "_chunk_terms", infinite_scores)
    with pytest.raises(EvaluationError, match="step halving failed"):
        solve_ugee(model, data, _FROM_ZERO)
    assert len(calls) == 1   # the start; no candidate was evaluated


def test_a_non_finite_quasi_objective_at_the_start_is_an_evaluation_error():
    # finite residuals of 1e200 whose squares overflow
    _, data = _exp_constant_case(lambda x, rng: np.full(len(x), 1e200))
    with pytest.raises(EvaluationError, match="quasi-objective is not finite"), \
            np.errstate(over="ignore"):
        solve_ugee(_model("identity", "constant", value=1.0), data)


def _overflowing_responses():
    # responses up to exp(500): the exp-link start's scoring matrix squares
    # the mean past the float range
    return PairData(4, x=np.arange(6.0)[:, None], f=np.exp(100.0 * np.arange(6.0)))


@pytest.mark.parametrize("wv", ["poisson", "nb", "propmean"])
def test_a_non_finite_scoring_matrix_at_the_start_is_an_evaluation_error(wv):
    with pytest.raises(EvaluationError, match="^scoring matrix is not finite$"):
        adaptive_fit(_model("exp", wv, intercept=True), _overflowing_responses())


def test_a_constant_variance_that_overflows_is_not_finite_not_zero():
    with pytest.raises(EvaluationError, match="sample variance, which is not finite$"):
        adaptive_fit(_model("exp", "constant", intercept=True), _overflowing_responses())


def test_a_trial_step_with_a_non_finite_scoring_matrix_is_halved(monkeypatch):
    # the full step raises the quasi-objective, so only its J can reject it
    model, data = _exp_constant_case(lambda x, rng: np.exp(0.5 * x))
    chunk_terms = pairgee.fit._chunk_terms
    calls = []

    def infinite_first_trial(model, data, beta, sl, newton=False):
        calls.append(beta)
        merit, s, J = chunk_terms(model, data, beta, sl, newton)
        return merit, s, J * np.inf if len(calls) == 2 else J

    monkeypatch.setattr(pairgee.fit, "_chunk_terms", infinite_first_trial)
    res = solve_ugee(model, data, _FROM_ZERO)
    assert res.converged and res.flagged_steps == 0
    start, full, half = calls[:3]
    assert np.array_equal(half, start + 0.5 * (full - start))


def test_n_equal_to_q_plus_one_fits_with_a_finite_psd_covariance():
    # 3 subjects, 3 pairs, an intercept and one covariate: the fewest subjects
    data = PairData(3, x=np.array([[0.1], [0.5], [0.9]]), f=np.array([1.0, 2.0, 2.5]))
    res = adaptive_fit(_model("identity", "constant", intercept=True), data)
    assert res.converged and res.n_subjects == 3 and res.n_pairs == 3
    assert np.all(np.isfinite(res.cov_beta))
    assert np.linalg.eigvalsh(res.cov_beta).min() >= 0.0


def test_an_intercept_with_a_nearly_collinear_covariate_is_singular():
    # the covariate's spread is not zero, so only the scoring matrix tells
    rng = make_rng(4, 0)
    i1, i2 = enumerate_pairs(12).T
    x = 1.0 + 1e-13 * np.arange(len(i1), dtype=float)[:, None]
    data = PairData(n=12, i1=i1, i2=i2, x=x, f=rng.normal(size=len(i1)))
    with pytest.raises(SingularInformation, match="scoring matrix is numerically singular"):
        solve_ugee(_model("identity", "constant", intercept=True, value=1.0), data)


@pytest.mark.parametrize("entry", [solve_ugee, adaptive_fit, estimate_nuisance])
def test_a_scalar_model_on_two_component_responses_is_an_input_error(entry):
    data = icc_pair_data(gen_icc_ratings(6, 3, 1).ratings)
    args = (np.zeros(1),) if entry is estimate_nuisance else ()
    with pytest.raises(InputError, match="one response per pair; the data have 2 "
                                         "components"):
        entry(_model("identity", "constant", intercept=True, value=1.0), data, *args)


def _vanishing_gradient_case():
    # one constant covariate and f near -400: the first step goes to
    # eta = -401, where h' = exp(-401) squares to 0, so J and the bread
    # there are exactly zero although the start is well conditioned
    return _exp_constant_case(lambda x, rng: -400.0 + 0.01 * rng.normal(size=len(x)),
                              x=np.ones((66, 1)))


def test_a_singular_scoring_matrix_stops_the_solver():
    model, data = _vanishing_gradient_case()
    with pytest.raises(SingularInformation, match="scoring matrix") as err:
        solve_ugee(model, data, FitConfig(max_iter=2, tol_eq=1e-300))
    assert err.value.cond == np.inf


def test_a_singular_bread_matrix_stops_the_sandwich():
    model, data = _vanishing_gradient_case()
    with pytest.raises(SingularInformation, match="bread matrix") as err:
        sandwich_variance(model, data, np.array([-401.0]))
    assert err.value.cond == np.inf


@pytest.mark.parametrize("M", [np.zeros((2, 2)), np.diag([1.0, 0.0]), np.ones((3, 3))],
                         ids=["zero", "rank-1-diagonal", "rank-1"])
def test_a_singular_matrix_raises_without_a_runtime_warning(M):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularInformation, match="^test matrix is numerically "
                                                      "singular") as err:
            pairgee.fit._check_conditioning(M, "test matrix")
    assert err.value.cond > pairgee.fit.COND_LIMIT


@pytest.mark.parametrize("M", [np.array([[2.0, 0.3], [0.3, 1e-3]]),
                               np.diag([1.0, 1e-13]), np.zeros((2, 2)), np.ones((3, 3)),
                               np.array([[np.inf, 1.0], [1.0, 1.0]]),
                               np.array([[np.nan, 1.0], [1.0, 1.0]])],
                         ids=["spd", "near-singular", "zero", "rank-1", "inf", "nan"])
def test_the_condition_number_is_that_of_np_linalg_cond(M, monkeypatch):
    # with every matrix over the limit, each raises with its number
    monkeypatch.setattr(pairgee.fit, "COND_LIMIT", -1.0)
    try:
        expect = np.linalg.cond(M)
    except np.linalg.LinAlgError:   # a NaN entry: the SVD does not converge
        with pytest.raises(np.linalg.LinAlgError):
            pairgee.fit._check_conditioning(M, "test matrix")
        return
    with pytest.raises(SingularInformation) as err:
        pairgee.fit._check_conditioning(M, "test matrix")
    assert np.float64(err.value.cond).tobytes() == np.float64(expect).tobytes()


def test_nonconvergence_without_a_sandwich_carries_no_result():
    model, data = _vanishing_gradient_case()
    with pytest.raises(NonConvergence) as err:
        solve_ugee(model, data, FitConfig(max_iter=1, tol_eq=1e-300))
    assert err.value.result is None
    assert 0 < err.value.eq_norm < 1e-100


def test_adaptive_nb_loop_that_does_not_settle_raises(monkeypatch):
    monkeypatch.setattr(pairgee.fit, "ADAPTIVE_MAX_ROUNDS", 1)
    data = gen_nb_scenario(40, 34)
    model = _model("exp", "nb", intercept=True)
    with pytest.raises(NonConvergence, match="did not settle in 1 rounds") as err:
        adaptive_fit(model, data)
    start, tau = err.value.trace
    assert start == np.inf and np.isfinite(tau)
    # the result is the second solve, warm-started at the first, with its sandwich
    first = solve_ugee(_model("exp", "nb", True, np.inf), data)
    again = solve_ugee(_model("exp", "nb", True, tau), data, FitConfig(init_beta=first.beta))
    res = err.value.result
    assert np.array_equal(res.beta, again.beta)
    assert np.array_equal(res.cov_beta, again.cov_beta)


def test_the_last_nb_round_reuses_its_start_pass_for_the_sandwich(monkeypatch):
    # the last round's solve takes no step, so the sandwich sums come from
    # that round's one pass, evaluated with them, and equal a fresh sandwich
    kinds = []
    pass_chunks = pairgee.fit._pass_chunks

    def recording(model, data, kind, beta, value):
        kinds.append(kind)
        return pass_chunks(model, data, kind, beta, value)

    monkeypatch.setattr(pairgee.fit, "_pass_chunks", recording)
    data = gen_nb_scenario(40, 7)
    res = adaptive_fit(_model("exp", "nb", intercept=True), data)
    # the start pass, 4 nuisance passes, 13 solve passes and the sandwich,
    # one of which is the last solve's start, where 19 passes were made
    # before the reuse
    assert len(kinds) == 18 and kinds[0] == "start"
    assert kinds.count("nuisance") == res.nuisance_rounds == 4
    assert kinds[-2:] == ["nuisance", "sandwich"] and kinds.count("sandwich") == 1
    fresh = sandwich_variance(_model("exp", "nb", True, res.nuisance), data, res.beta)
    assert [a.tobytes() for a in fresh] == [
        a.tobytes() for a in (res.cov_beta, res.b_matrix, res.sigma_u)]


def test_a_last_nb_round_that_steps_takes_a_fresh_sandwich(monkeypatch):
    # when the last solve moves beta, the start's sandwich sums are dropped
    kinds = []
    pass_chunks = pairgee.fit._pass_chunks
    monkeypatch.setattr(pairgee.fit, "_nuisance_close", lambda new, old: True)

    def recording(model, data, kind, beta, value):
        kinds.append(kind)
        return pass_chunks(model, data, kind, beta, value)

    monkeypatch.setattr(pairgee.fit, "_pass_chunks", recording)
    data = gen_nb_scenario(40, 7)
    res = adaptive_fit(_model("exp", "nb", intercept=True), data)
    assert res.nuisance_rounds == 1 and kinds.count("sandwich") == 2
    assert kinds[-1] == "sandwich" and kinds[-2] != "nuisance"
    fresh = sandwich_variance(_model("exp", "nb", True, res.nuisance), data, res.beta)
    assert [a.tobytes() for a in fresh] == [
        a.tobytes() for a in (res.cov_beta, res.b_matrix, res.sigma_u)]


def _fresh_sandwich_bytes(model, data, res):
    value = res.nuisance if model.working_variance.has_nuisance else None
    model = _model(model.link, model.working_variance.kind, model.intercept, value)
    return [a.tobytes() for a in sandwich_variance(model, data, res.beta)]


def _sandwich_bytes(res):
    return [a.tobytes() for a in (res.cov_beta, res.b_matrix, res.sigma_u)]


def _log_mean_start(data):
    """(log fbar, 0): the start of the cases below, from which their solves
    take the steps the tests drive; the exp link's own start, one IRLS step
    further on, lands where poisson's last step is not predicted."""
    return FitConfig(init_beta=np.array([np.log(np.mean(data.f)), 0.0]))


_LAST_STEP_FITS = {
    "solve_ugee": lambda data: (_model("exp", "poisson", True), data),
    "adaptive-constant": lambda data: (_model("exp", "constant", True), data),
}


@pytest.mark.parametrize("fit", list(_LAST_STEP_FITS))
def test_a_last_step_predicted_to_converge_ends_in_the_sandwich(fit, passes):
    # its pass is the sandwich pass, so no sandwich pass trails the solve
    model, data = _LAST_STEP_FITS[fit](gen_nb_scenario(40, 7))
    res = adaptive_fit(model, data, _log_mean_start(data))
    assert [kind for kind, _ in passes] == ["terms"] * res.iterations + ["sandwich"]
    assert res.iterations > 1 and _sandwich_bytes(res) == _fresh_sandwich_bytes(
        model, data, res)


@pytest.mark.parametrize("fit", list(_LAST_STEP_FITS))
def test_a_missed_prediction_costs_the_sandwich_extras_only(fit, passes, monkeypatch):
    # the first step predicted to converge lowers the quasi-objective here,
    # so it is halved: the solve goes on past its sandwich pass
    pass_chunks = pairgee.fit._pass_chunks
    missed = []

    def lowered(model, data, kind, beta, value):
        fn = pass_chunks(model, data, kind, beta, value)
        if kind != "sandwich" or missed:
            return fn
        missed.append(beta)
        return lambda sl: (fn(sl)[0] - 1e6, *fn(sl)[1:])

    monkeypatch.setattr(pairgee.fit, "_pass_chunks", lowered)
    model, data = _LAST_STEP_FITS[fit](gen_nb_scenario(40, 7))
    res = adaptive_fit(model, data, _log_mean_start(data))
    kinds = [kind for kind, _ in passes]
    first = kinds.index("sandwich")
    assert missed and kinds[first + 1] == "terms"
    # the start, one pass per step, the halved candidate and, as without the
    # prediction, a sandwich pass after the solve: here the step after the
    # halving is not predicted to converge
    assert len(kinds) == res.iterations + 3 and kinds[-2:] == ["terms", "sandwich"]
    assert _sandwich_bytes(res) == _fresh_sandwich_bytes(model, data, res)


def test_a_last_nb_round_that_steps_ends_in_the_sandwich(passes, monkeypatch):
    # the settled round starts from its sandwich sums and its last step,
    # predicted to converge, makes them again at the solution
    monkeypatch.setattr(pairgee.fit, "_nuisance_close", lambda new, old: True)
    model, data = _model("exp", "nb", True), gen_nb_scenario(40, 7)
    res = adaptive_fit(model, data)
    kinds = [kind for kind, _ in passes]
    last_round = kinds[kinds.index("nuisance") + 1:]
    steps = len(last_round) - 1
    assert steps > 1 and last_round == ["sandwich"] + ["terms"] * (steps - 1) + ["sandwich"]
    assert _sandwich_bytes(res) == _fresh_sandwich_bytes(model, data, res)


# ------------------------------------------------------------- warm start

@pytest.fixture
def passes(monkeypatch):
    """The (kind, pair count) of every pass that fits make, in order."""
    made = []
    pass_chunks = pairgee.fit._pass_chunks

    def recording(model, data, kind, beta, value):
        made.append((kind, data.n_pairs))
        return pass_chunks(model, data, kind, beta, value)

    monkeypatch.setattr(pairgee.fit, "_pass_chunks", recording)
    return made


@pytest.fixture(scope="module")
def nb_2000():
    return gen_nb_scenario(2000, 11)


def _nb_bytes(res):
    return [a.tobytes() for a in (res.beta, res.cov_beta, res.sigma_u, res.b_matrix,
                                  np.array([res.nuisance, res.eq_norm]))]


def test_a_warm_nb_fit_makes_half_the_full_data_passes(nb_2000, passes, monkeypatch):
    model = _model("exp", "nb", intercept=True)
    assert nb_2000.n_pairs >= pairgee.fit.WARM_PAIRS
    warm = adaptive_fit(model, nb_2000)
    full = [kind for kind, n_pairs in passes if n_pairs == nb_2000.n_pairs]
    sub = [kind for kind, n_pairs in passes if n_pairs != nb_2000.n_pairs]
    assert full == ["terms"] * 3 + ["nuisance"] + ["terms"] * 2 + ["nuisance", "sandwich"]
    # the subsample settles its rounds but takes no sandwich pass
    assert sub and "sandwich" not in sub
    assert {n_pairs for _, n_pairs in passes if n_pairs != nb_2000.n_pairs} == {
        pairgee.ustat.pair_count(pairgee.fit.WARM_SUBJECTS)}
    # the counts cover the full data only
    assert (warm.iterations, warm.nuisance_rounds) == (3, 2) and warm.converged
    passes.clear()
    monkeypatch.setattr(pairgee.fit, "WARM_PAIRS", 1 << 62)
    cold = adaptive_fit(model, nb_2000)
    assert len(passes) == 14 and all(n == nb_2000.n_pairs for _, n in passes)
    assert passes[0][0] == "start"
    assert cold.converged and (cold.iterations, cold.nuisance_rounds) == (6, 3)
    np.testing.assert_allclose(warm.beta, cold.beta, rtol=1e-9)
    np.testing.assert_allclose(warm.se, cold.se, rtol=1e-9)


def test_two_warm_nb_fits_are_byte_identical(nb_2000):
    model = _model("exp", "nb", intercept=True)
    assert _nb_bytes(adaptive_fit(model, nb_2000)) == _nb_bytes(adaptive_fit(model, nb_2000))


def test_the_warm_subsample_is_the_complete_design_of_its_subjects(monkeypatch):
    monkeypatch.setattr(pairgee.fit, "WARM_SUBJECTS", 12)
    data = gen_nb_scenario(30, 3)
    sub = pairgee.fit._subsample(data)
    subjects = np.sort(np.random.default_rng(pairgee.fit.WARM_SEED).choice(
        30, 12, replace=False))
    keep = np.isin(data.i1, subjects) & np.isin(data.i2, subjects)
    assert sub.n == 12 and sub.n_pairs == 66
    assert np.array_equal(sub.x, data.x[keep]) and np.array_equal(sub.f, data.f[keep])
    # the subjects depend on n alone, not on the data
    other = gen_nb_scenario(30, 4)
    assert np.array_equal(pairgee.fit._subsample(other).f, other.f[keep])


def _small_warm(monkeypatch):
    """A 40-subject nb case whose fits start warm from 20 subjects."""
    monkeypatch.setattr(pairgee.fit, "WARM_PAIRS", 1)
    monkeypatch.setattr(pairgee.fit, "WARM_SUBJECTS", 20)
    return _model("exp", "nb", intercept=True), gen_nb_scenario(40, 7)


@pytest.mark.parametrize("error", [EvaluationError, SingularInformation, NonConvergence])
def test_a_failing_warm_subsample_gives_the_cold_fit(error, monkeypatch, passes):
    model, data = _small_warm(monkeypatch)
    adaptive_fit(model, data)
    assert any(n_pairs == 190 for _, n_pairs in passes)   # it starts warm
    monkeypatch.setattr(pairgee.fit, "WARM_PAIRS", 1 << 62)
    cold = _nb_bytes(adaptive_fit(model, data))
    monkeypatch.setattr(pairgee.fit, "WARM_PAIRS", 1)
    pass_chunks = pairgee.fit._pass_chunks

    def failing(model, sub, kind, beta, value):
        if sub.n_pairs == 190:
            raise error("subsample")
        return pass_chunks(model, sub, kind, beta, value)

    monkeypatch.setattr(pairgee.fit, "_pass_chunks", failing)
    assert _nb_bytes(adaptive_fit(model, data)) == cold


def test_a_warm_subsample_that_does_not_settle_gives_the_cold_fit(monkeypatch):
    model, data = _small_warm(monkeypatch)
    nuisance = pairgee.fit._nuisance
    fresh = []   # the subsample's rounds, each with a tau that is not close

    def unsettled(kind, bound, beta):
        if bound.n == data.n:
            return nuisance(kind, bound, beta)
        fresh.append(float(len(fresh) + 1))
        return fresh[-1]

    monkeypatch.setattr(pairgee.fit, "_nuisance", unsettled)
    warm = _nb_bytes(adaptive_fit(model, data))
    assert len(fresh) == pairgee.fit.ADAPTIVE_MAX_ROUNDS
    monkeypatch.setattr(pairgee.fit, "WARM_PAIRS", 1 << 62)
    assert warm == _nb_bytes(adaptive_fit(model, data))


def test_a_given_init_beta_skips_the_warm_start(monkeypatch, passes):
    model, data = _small_warm(monkeypatch)
    config = FitConfig(init_beta=np.array([2.0, 1.0]))
    given = _nb_bytes(adaptive_fit(model, data, config))
    assert all(n_pairs == data.n_pairs for _, n_pairs in passes)
    monkeypatch.setattr(pairgee.fit, "WARM_PAIRS", 1 << 62)
    assert _nb_bytes(adaptive_fit(model, data, config)) == given


def test_a_warm_nb_fit_counts_and_traces_the_full_data_only(monkeypatch):
    model, data = _small_warm(monkeypatch)
    start = pairgee.fit._warm_start(model, data, FitConfig())
    assert np.isfinite(start[0])
    # a full fit from that start that does not settle in one round
    monkeypatch.setattr(pairgee.fit, "_warm_start", lambda *args: start)
    monkeypatch.setattr(pairgee.fit, "ADAPTIVE_MAX_ROUNDS", 1)
    monkeypatch.setattr(pairgee.fit, "_nuisance_close", lambda new, old: False)
    with pytest.raises(NonConvergence, match="did not settle") as err:
        adaptive_fit(model, data)
    assert len(err.value.trace) == 2 and err.value.trace[0] == start[0]


def test_an_nb_fit_at_600_subjects_never_starts_warm_with_any_fork_threshold(monkeypatch, passes):
    # the warm-start threshold is its own constant, so lowering FORK_PAIRS
    # (as ``--fork-pairs 2`` does) moves no small nb fit onto the warm path
    assert pairgee.ustat.pair_count(600) < pairgee.fit.WARM_PAIRS
    monkeypatch.setattr(pairgee.ustat, "FORK_PAIRS", 2)
    model, data = _model("exp", "nb", intercept=True), gen_nb_scenario(600, 5)
    res = _nb_bytes(adaptive_fit(model, data))
    assert all(n_pairs == data.n_pairs for _, n_pairs in passes)
    monkeypatch.setattr(pairgee.fit, "WARM_PAIRS", 1 << 62)
    assert _nb_bytes(adaptive_fit(model, data)) == res
