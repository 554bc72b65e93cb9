import math

import numpy as np
import pytest

from pairgee import (EvaluationError, FrmModel, IccModel, InputError, Kernel,
                     PairCovariate, PairData, SubjectRecord, WorkingVariance,
                     build_pairs, icc_mean_map, link_mean_deriv, meanvar_mean_map,
                     onehot_pair_labels, stack_subjects)
from pairgee.fit import _chunk_mean
from pairgee.links import link_complement
from pairgee.model import augment, pair_covariate_matrix, variance_eval

from oracles import (central_diff, mean_and_gradient_by_hand, pair_covariate_by_hand,
                     pair_sums_gathered)


# ------------------------------------------------------------------ links

@pytest.mark.parametrize("kind,lo,hi", [
    ("identity", -5.0, 5.0),
    ("exp", -5.0, 5.0),
    ("expit", -8.0, 8.0),
    ("probitc", -6.0, 6.0),
])
def test_link_derivative_matches_finite_differences(kind, lo, hi):
    rng = np.random.default_rng(42)
    etas = rng.uniform(lo, hi, size=10)
    h, dh = link_mean_deriv(kind, etas)
    for eta, d in zip(etas, dh):
        fd = central_diff(lambda e: link_mean_deriv(kind, np.array([e]))[0][0],
                          eta, step=1e-5)
        assert abs(d - fd) <= 1e-6 * max(1.0, abs(fd))


def test_link_output_ranges():
    # ranges over which float64 can still represent the open interval
    assert np.all(link_mean_deriv("exp", np.linspace(-30, 5, 50))[0] > 0)
    h, _ = link_mean_deriv("expit", np.linspace(-30, 30, 101))
    assert np.all((h > 0) & (h < 1))
    h, _ = link_mean_deriv("probitc", np.linspace(-8, 8, 101))
    assert np.all((h > 0) & (h < 1))


@pytest.mark.parametrize("kind,far", [("expit", 40.0), ("probitc", 30.0)])
def test_link_complement_survives_a_mean_that_rounds_to_one(kind, far):
    # 1 - h(eta) = h(-eta) for both links; at |eta| = far one side of h
    # rounds to 1, where 1 - h would be exactly zero
    eta = np.array([-far, -9.0, -0.5, 0.5, 9.0, far])
    h, _ = link_mean_deriv(kind, eta)
    assert np.any(h == 1.0)
    comp = link_complement(kind, eta, h)
    assert np.array_equal(comp, link_mean_deriv(kind, -eta)[0])
    assert np.all(comp > 0)


@pytest.mark.parametrize("eta", [36.0, 37.0, 40.0, -40.0])
def test_expit_derivative_keeps_its_complement(eta):
    # h' = h (1 - h) = e^-|eta| / (1 + e^-|eta|)^2; 1 - h rounds to 0 for
    # eta >= 37, so the derivative must not be formed from it
    t = math.exp(-abs(eta))
    exact = t / (1.0 + t) ** 2
    _, dh = link_mean_deriv("expit", np.array([eta]))
    assert abs(dh[0] - exact) <= 1e-12 * exact


def test_probitc_values():
    h, dh = link_mean_deriv("probitc", np.array([0.0]))
    assert h[0] == pytest.approx(0.5, abs=1e-15)
    assert dh[0] == pytest.approx(-1.0 / math.sqrt(2 * math.pi), abs=1e-15)
    # symmetry of the normal CDF
    h1, _ = link_mean_deriv("probitc", np.array([1.3]))
    h2, _ = link_mean_deriv("probitc", np.array([-1.3]))
    assert h1[0] + h2[0] == pytest.approx(1.0, abs=1e-14)


def test_exp_overflow_raises_with_eta():
    with pytest.raises(EvaluationError) as err:
        link_mean_deriv("exp", np.array([0.0, 701.0]))
    assert err.value.eta == pytest.approx(701.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_exp_link_rejects_a_non_finite_linear_predictor(bad):
    with pytest.raises(EvaluationError, match="non-finite linear predictor"):
        link_mean_deriv("exp", np.array([0.0, bad]))


def test_unknown_link_rejected():
    with pytest.raises(InputError):
        link_mean_deriv("logit", np.array([0.0]))


# ------------------------------------------------------------ onehot pairs

def _onehot_rows(levels, X, i1, i2):
    return pair_covariate_matrix(PairCovariate("onehot", levels=levels),
                                 np.asarray(X, dtype=float)[:, None],
                                 np.asarray(i1), np.asarray(i2))


def test_onehot_binary_mixed_pair():
    # levels 1 and 2 of a binary covariate: slot order (11), (12), (22)
    rows = _onehot_rows(2, [1, 2], [0, 0, 1], [1, 0, 1])
    assert np.array_equal(rows, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def test_onehot_three_levels():
    rows = _onehot_rows(3, [1, 1], [0], [1])
    assert rows.shape == (1, 6)
    assert np.array_equal(rows[0], [1, 0, 0, 0, 0, 0])


def test_onehot_unordered_and_length():
    for K in (2, 3, 5):
        assert len(onehot_pair_labels(K)) == K + K * (K - 1) // 2
        # every ordered pair of the levels 1..K, self-pairs included
        i1, i2 = np.divmod(np.arange(K * K), K)
        rows = _onehot_rows(K, np.arange(1, K + 1), i1, i2)
        assert rows.shape == (K * K, len(onehot_pair_labels(K)))
        assert np.array_equal(rows.sum(axis=1), np.ones(K * K))
        assert np.array_equal(rows, _onehot_rows(K, np.arange(1, K + 1), i2, i1))


def test_onehot_out_of_range():
    # 1e30 and -1e30 are integer-valued floats outside the int64 range
    for level in (0.0, 3.0, 1e30, -1e30, np.inf):
        with pytest.raises(InputError, match=r"categorical level outside 1\.\.2"):
            _onehot_rows(2, [1.0, level], [0], [1])
    for level in (1.5, np.nan):
        with pytest.raises(InputError, match="non-integer levels"):
            _onehot_rows(2, [1.0, level], [0], [1])


def test_onehot_slots_are_a_bijection_onto_level_pairs():
    # counts accumulated through the encoding equal direct combinatorial counts
    rng = np.random.default_rng(3)
    K, n = 4, 40
    levels = rng.integers(1, K + 1, size=n)
    i1, i2 = np.triu_indices(n, k=1)
    counts = _onehot_rows(K, levels, i1, i2).sum(axis=0)
    direct = {}
    for a in range(n):
        for b in range(a + 1, n):
            key = (min(levels[a], levels[b]), max(levels[a], levels[b]))
            direct[key] = direct.get(key, 0) + 1
    labels = onehot_pair_labels(K)
    assert counts.sum() == n * (n - 1) / 2
    for slot, label in enumerate(labels):
        assert counts[slot] == direct.get(label, 0)


# ----------------------------------------------------- pair covariates

def test_pair_covariate_sum_and_difference():
    one = np.array([0]), np.array([1])
    spec = PairCovariate("sum")
    assert pair_covariate_matrix(spec, np.array([[0.2], [0.5]]), *one) \
        == pytest.approx(np.array([[0.7]]))
    diff = PairCovariate("difference")
    X = np.array([[1.5, -2.0], [0.0, 0.0]])
    rows = pair_covariate_matrix(diff, X, np.array([0, 0]), np.array([0, 1]))
    assert np.array_equal(rows, [[0.0, 0.0], [1.5, -2.0]])


def test_pair_covariate_concat_and_onehot():
    concat = PairCovariate("concatenate")
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = pair_covariate_matrix(concat, X, np.array([0]), np.array([1]))
    assert np.array_equal(out, [[1, 2, 3, 4]])
    assert np.array_equal(_onehot_rows(2, [2, 1], [0], [1]),
                          _onehot_rows(2, [2, 1], [1], [0]))


def test_pair_covariate_dim_mismatch():
    # onehot reads one categorical covariate: a second column is an error
    X = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(InputError, match="single categorical covariate"):
        pair_covariate_matrix(PairCovariate("onehot", levels=2), X,
                              np.array([0]), np.array([1]))


def test_pair_covariate_matrix_matches_per_pair():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(6, 3))
    i1, i2 = np.array([0, 0, 2, 5]), np.array([1, 3, 5, 2])
    for transform in ("difference", "sum", "concatenate"):
        mat = pair_covariate_matrix(PairCovariate(transform), X, i1, i2)
        for k in range(len(i1)):
            assert np.array_equal(mat[k], pair_covariate_by_hand(
                transform, X[i1[k]], X[i2[k]]))
    levels = rng.integers(1, 4, size=(6, 1)).astype(float)
    mat = pair_covariate_matrix(PairCovariate("onehot", levels=3), levels, i1, i2)
    for k in range(len(i1)):
        assert np.array_equal(mat[k], pair_covariate_by_hand(
            "onehot", levels[i1[k]], levels[i2[k]], levels=3))


@pytest.mark.parametrize("chunk", [1, 7, None], ids=["chunk1", "chunk7", "chunkN"])
@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("transform", ["difference", "sum"])
def test_difference_and_sum_equal_the_row_gathers_byte_for_byte(transform, p, chunk,
                                                                 chunk_pairs):
    # one gather per covariate column gives the bits of gathering whole rows
    rng = np.random.default_rng(p)
    X = rng.normal(size=(23, p)) * 10.0 ** rng.integers(-3, 4, size=p)
    i1, i2 = np.triu_indices(23, k=1)
    chunk_pairs(chunk or len(i1))
    expect = pair_sums_gathered(transform, X, i1, i2)
    out = pair_covariate_matrix(PairCovariate(transform), X, i1, i2)
    assert out.shape == expect.shape and out.tobytes() == expect.tobytes()
    subjects = [SubjectRecord(k, y=[float(k % 5)], x=X[k]) for k in range(23)]
    data = build_pairs(subjects, Kernel.mww(), PairCovariate(transform))
    assert data.x.tobytes() == expect.tobytes()


# ------------------------------------------------------ mean and gradient

def _model(link="identity", intercept=True, wv="constant"):
    return FrmModel(link=link, working_variance=WorkingVariance(wv),
                    intercept=intercept)


def test_augment_returns_the_design_one_row_per_parameter():
    x = np.arange(6.0).reshape(3, 2)       # 3 pairs, 2 covariates
    assert np.array_equal(augment(x, False), x.T)
    design = augment(x, True)
    assert np.array_equal(design, [[1, 1, 1], [0, 2, 4], [1, 3, 5]])
    assert design.flags.c_contiguous
    assert np.array_equal(augment(np.empty((3, 0)), True), np.ones((1, 3)))


def _mean_and_gradient(model, x, beta):
    """h and D of the one pair of a 2-subject dataset with covariate x, as
    the chunk pass of a fit evaluates them."""
    data = PairData(2, x=np.atleast_2d(x), f=np.zeros(1))
    xt, _, h, g = _chunk_mean(model, data, np.asarray(beta, dtype=float), slice(0, 1))
    return h[0], g[0] * xt[:, 0]


def test_mean_and_gradient_exp_with_intercept():
    h, D = _mean_and_gradient(_model("exp"), np.array([1.0]), np.array([3.0, 3.0]))
    assert h == pytest.approx(math.exp(6.0), rel=1e-12)
    assert h == pytest.approx(403.4288, abs=1e-4)
    assert np.allclose(D, math.exp(6.0) * np.array([1.0, 1.0]), rtol=1e-12)


def test_mean_and_gradient_expit_at_zero():
    x = np.array([0.4, -1.0])
    h, D = _mean_and_gradient(_model("expit", intercept=False), x, np.zeros(2))
    assert h == pytest.approx(0.5)
    assert np.allclose(D, 0.25 * x, rtol=1e-12)


def test_mean_and_gradient_probitc_at_zero():
    h, _ = _mean_and_gradient(_model("probitc", intercept=False),
                              np.array([1.0]), np.array([0.0]))
    assert h == pytest.approx(0.5, abs=1e-15)


def test_mean_and_gradient_is_pure():
    model = _model("expit")
    x, beta = np.array([0.3, 0.7]), np.array([0.1, -0.2, 0.5])
    h1, D1 = _mean_and_gradient(model, x, beta)
    h2, D2 = _mean_and_gradient(model, x, beta)
    assert h1 == h2
    assert np.array_equal(D1, D2)
    assert np.array_equal(beta, [0.1, -0.2, 0.5])


def test_mean_and_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    for link in ("identity", "exp", "expit", "probitc"):
        model = _model(link)
        x = rng.normal(size=2) * 0.5
        beta = rng.normal(size=3) * 0.5
        h, D = _mean_and_gradient(model, x, beta)
        want_h, want_D = mean_and_gradient_by_hand(link, True, x, beta)
        assert h == pytest.approx(want_h, rel=1e-14)
        assert D == pytest.approx(want_D, rel=1e-14)
        for j in range(3):
            def h_of(bj, j=j):
                b = beta.copy()
                b[j] = bj
                return _mean_and_gradient(model, x, b)[0]
            fd = central_diff(h_of, beta[j])
            assert D[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


# -------------------------------------------------------------- icc map

def test_icc_mean_map_examples():
    h, _ = icc_mean_map((2.0, 0.0), 4)
    assert np.allclose(h, [0.5, 2.0])
    for K in (2, 3, 7):
        h, _ = icc_mean_map((1.7, 1.0), K)
        assert h[0] == pytest.approx(1.7)
    h, _ = icc_mean_map((1.0, 0.5), 3)
    assert h[0] == pytest.approx(2.0 / 3.0)


def test_icc_mean_map_rejects_nonpositive_tau2():
    with pytest.raises(InputError):
        icc_mean_map((0.0, 0.3), 4)


def test_icc_mean_map_jacobian_matches_finite_differences():
    theta = np.array([1.3, 0.25])
    _, jac = icc_mean_map(theta, 5)
    for a in range(2):
        for b in range(2):
            def h_of(t, a=a, b=b):
                th = theta.copy()
                th[b] = t
                return icc_mean_map(th, 5)[0][a]
            assert jac[a, b] == pytest.approx(central_diff(h_of, theta[b]),
                                              rel=1e-7, abs=1e-9)


def test_meanvar_map_jacobian_matches_finite_differences():
    theta = np.array([2.5, 1.2])
    _, jac = meanvar_mean_map(theta)
    for a in range(2):
        for b in range(2):
            def h_of(t, a=a, b=b):
                th = theta.copy()
                th[b] = t
                return meanvar_mean_map(th)[0][a]
            assert jac[a, b] == pytest.approx(central_diff(h_of, theta[b]),
                                              rel=1e-7, abs=1e-9)


# ------------------------------------------------------- records and wv

def test_subject_record_validation():
    with pytest.raises(InputError):
        SubjectRecord(id="a", y=np.array([1.0, np.inf]))
    with pytest.raises(InputError):
        SubjectRecord(id="a", y=np.array([1.0]), x=np.array([np.nan]))


def test_stack_subjects_enforces_homogeneity_and_unique_ids():
    recs = [SubjectRecord("a", [1.0, 2.0], [0.5]),
            SubjectRecord("b", [3.0, 4.0], [0.2])]
    ids, Y, X = stack_subjects(recs)
    assert ids == ["a", "b"] and Y.shape == (2, 2) and X.shape == (2, 1)
    with pytest.raises(InputError):
        stack_subjects(recs + [SubjectRecord("c", [1.0], [0.1])])
    with pytest.raises(InputError):
        stack_subjects(recs + [SubjectRecord("a", [1.0, 1.0], [0.1])])


@pytest.mark.parametrize("make,message", [
    (lambda: SubjectRecord("a", y=[]), "y must be a nonempty vector"),
    (lambda: stack_subjects([]), "empty subject dataset"),
    (lambda: PairCovariate("product"), "unknown pair transform 'product'"),
    (lambda: PairCovariate("onehot"), "onehot transform requires levels >= 1"),
    (lambda: WorkingVariance("userfixed"), "needs per-pair values"),
    (lambda: FrmModel("logit", WorkingVariance("constant")), "unknown link kind 'logit'"),
    (lambda: FrmModel("exp", None), "must be a WorkingVariance, got None"),
    (lambda: FrmModel("exp", "nb"), "must be a WorkingVariance, got 'nb'"),
    (lambda: icc_mean_map([1.0, 0.2], raters=1), "needs at least 2 raters"),
    (lambda: IccModel(raters=1), "^rater-agreement model needs at least 2 raters$"),
    (lambda: IccModel(3).responses(np.ones(4)), "needs two-component responses")],
    ids=["empty-y", "no-records", "transform", "levels", "per-pair", "link",
         "no-working-variance", "working-variance-name", "raters", "icc-model-raters",
         "responses"])
def test_model_pieces_reject_a_malformed_value(make, message):
    with pytest.raises(InputError, match=message):
        make()


def test_working_variance_forms():
    h = np.array([0.2, 2.0, 5.0])
    assert np.allclose(variance_eval(WorkingVariance("poisson"), h), h)
    assert np.allclose(variance_eval(WorkingVariance("constant", 3.0), h), 3.0)
    assert np.allclose(variance_eval(WorkingVariance("propmean", 2.0), h), 2.0 * h)
    nb = variance_eval(WorkingVariance("nb", 10.0), h)
    assert np.allclose(nb, h * (1 + h / 10.0))
    # nb with tau -> inf degrades to variance-equals-mean
    assert np.allclose(variance_eval(WorkingVariance("nb"), h), h)
    bern = variance_eval(WorkingVariance("bernoulli"), np.array([0.25]))
    assert bern[0] == pytest.approx(0.1875)


@pytest.mark.parametrize("kind", ["constant", "propmean"])
def test_a_scale_working_variance_rejects_an_infinite_value(kind):
    # it was accepted, and the solver then named a nonpositive variance on a pair
    with pytest.raises(InputError, match=f"{kind} variance parameter must be "
                                         f"finite, got inf"):
        WorkingVariance(kind, value=float("inf"))
    assert WorkingVariance("nb", value=float("inf")).value == float("inf")


def test_working_variance_validation():
    with pytest.raises(InputError):
        WorkingVariance("gamma")
    with pytest.raises(InputError):
        WorkingVariance("nb", value=-1.0)
    with pytest.raises(InputError):
        WorkingVariance("userfixed", per_pair=np.array([1.0, 0.0]))
    assert WorkingVariance("userfixed", per_pair=np.array([1.0, 2.0])).has_nuisance \
        is False
    for kind in ("constant", "propmean", "nb"):   # nan <= 0 is false
        with pytest.raises(InputError, match="must be positive, got nan"):
            WorkingVariance(kind, value=float("nan"))


@pytest.mark.parametrize("make,field", [
    (lambda: WorkingVariance("poisson", 3.0), "value"),
    (lambda: WorkingVariance("bernoulli", per_pair=np.ones(3)), "per_pair"),
    (lambda: PairCovariate("difference", levels=3), "levels")],
    ids=["value", "per_pair", "levels"])
def test_a_value_object_rejects_a_field_its_kind_does_not_read(make, field):
    # each was accepted and the field silently ignored
    with pytest.raises(InputError, match=f"takes no {field}$"):
        make()
