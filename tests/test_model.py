import math

import numpy as np
import pytest

from pairgee import (EvaluationError, FrmModel, InputError, PairCovariate,
                     SubjectRecord, WorkingVariance, encode_pair_onehot,
                     icc_mean_map, link_mean_deriv, mean_and_gradient,
                     meanvar_mean_map, onehot_pair_labels, pair_covariate_eval,
                     stack_subjects)
from pairgee.links import link_complement
from pairgee.model import augment, pair_covariate_matrix, variance_eval

from oracles import central_diff


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


def test_unknown_link_rejected():
    with pytest.raises(InputError):
        link_mean_deriv("logit", np.array([0.0]))


# ------------------------------------------------------------ onehot pairs

def test_onehot_binary_mixed_pair():
    # levels 1 and 2 of a binary covariate: slot order (11), (12), (22)
    assert np.array_equal(encode_pair_onehot(1, 2, 2), [0.0, 1.0, 0.0])
    assert np.array_equal(encode_pair_onehot(1, 1, 2), [1.0, 0.0, 0.0])
    assert np.array_equal(encode_pair_onehot(2, 2, 2), [0.0, 0.0, 1.0])


def test_onehot_three_levels():
    vec = encode_pair_onehot(1, 1, 3)
    assert vec.shape == (6,)
    assert np.array_equal(vec, [1, 0, 0, 0, 0, 0])


def test_onehot_unordered_and_length():
    for K in (2, 3, 5):
        assert len(onehot_pair_labels(K)) == K + K * (K - 1) // 2
        for k1 in range(1, K + 1):
            for k2 in range(1, K + 1):
                assert np.array_equal(encode_pair_onehot(k1, k2, K),
                                      encode_pair_onehot(k2, k1, K))


def test_onehot_out_of_range():
    with pytest.raises(InputError):
        encode_pair_onehot(0, 1, 2)
    with pytest.raises(InputError):
        encode_pair_onehot(1, 3, 2)


def test_onehot_slots_are_a_bijection_onto_level_pairs():
    # counts accumulated through the encoding equal direct combinatorial counts
    rng = np.random.default_rng(3)
    K, n = 4, 40
    levels = rng.integers(1, K + 1, size=n)
    counts = np.zeros(K + K * (K - 1) // 2)
    direct = {}
    for a in range(n):
        for b in range(a + 1, n):
            counts += encode_pair_onehot(levels[a], levels[b], K)
            key = (min(levels[a], levels[b]), max(levels[a], levels[b]))
            direct[key] = direct.get(key, 0) + 1
    labels = onehot_pair_labels(K)
    assert counts.sum() == n * (n - 1) / 2
    for slot, label in enumerate(labels):
        assert counts[slot] == direct.get(label, 0)


# ----------------------------------------------------- pair covariates

def test_pair_covariate_sum_and_difference():
    spec = PairCovariate("sum")
    assert pair_covariate_eval(spec, [0.2], [0.5]) == pytest.approx([0.7])
    diff = PairCovariate("difference")
    x = np.array([1.5, -2.0])
    assert np.array_equal(pair_covariate_eval(diff, x, x), np.zeros(2))
    assert np.array_equal(pair_covariate_eval(diff, x, np.zeros(2)), x)


def test_pair_covariate_concat_and_onehot():
    concat = PairCovariate("concatenate")
    out = pair_covariate_eval(concat, [1.0, 2.0], [3.0, 4.0])
    assert np.array_equal(out, [1, 2, 3, 4])
    onehot = PairCovariate("onehot", levels=2)
    assert np.array_equal(pair_covariate_eval(onehot, [2], [1]),
                          pair_covariate_eval(onehot, [1], [2]))


def test_pair_covariate_dim_mismatch():
    with pytest.raises(InputError):
        pair_covariate_eval(PairCovariate("sum"), [1.0], [1.0, 2.0])


def test_pair_covariate_matrix_matches_per_pair():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(6, 3))
    i1, i2 = np.array([0, 0, 2]), np.array([1, 3, 5])
    for transform in ("difference", "sum", "concatenate"):
        spec = PairCovariate(transform)
        mat = pair_covariate_matrix(spec, X, i1, i2)
        for k in range(3):
            assert np.array_equal(mat[k],
                                  pair_covariate_eval(spec, X[i1[k]], X[i2[k]]))
    levels = rng.integers(1, 4, size=(6, 1)).astype(float)
    spec = PairCovariate("onehot", levels=3)
    mat = pair_covariate_matrix(spec, levels, i1, i2)
    for k in range(3):
        assert np.array_equal(mat[k],
                              pair_covariate_eval(spec, levels[i1[k]], levels[i2[k]]))


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


def test_mean_and_gradient_exp_with_intercept():
    h, D = mean_and_gradient(_model("exp"), np.array([1.0]), np.array([3.0, 3.0]))
    assert h == pytest.approx(math.exp(6.0), rel=1e-12)
    assert h == pytest.approx(403.4288, abs=1e-4)
    assert np.allclose(D, math.exp(6.0) * np.array([1.0, 1.0]), rtol=1e-12)


def test_mean_and_gradient_expit_at_zero():
    x = np.array([0.4, -1.0])
    h, D = mean_and_gradient(_model("expit", intercept=False), x, np.zeros(2))
    assert h == pytest.approx(0.5)
    assert np.allclose(D, 0.25 * x, rtol=1e-12)


def test_mean_and_gradient_probitc_at_zero():
    h, _ = mean_and_gradient(_model("probitc", intercept=False),
                             np.array([1.0]), np.array([0.0]))
    assert h == pytest.approx(0.5, abs=1e-15)


def test_mean_and_gradient_is_pure():
    model = _model("expit")
    x, beta = np.array([0.3, 0.7]), np.array([0.1, -0.2, 0.5])
    h1, D1 = mean_and_gradient(model, x, beta)
    h2, D2 = mean_and_gradient(model, x, beta)
    assert h1 == h2
    assert np.array_equal(D1, D2)


def test_mean_and_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    for link in ("identity", "exp", "expit", "probitc"):
        model = _model(link)
        x = rng.normal(size=2) * 0.5
        beta = rng.normal(size=3) * 0.5
        _, D = mean_and_gradient(model, x, beta)
        for j in range(3):
            def h_of(bj, j=j):
                b = beta.copy()
                b[j] = bj
                return mean_and_gradient(model, x, b)[0]
            fd = central_diff(h_of, beta[j])
            assert D[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_mean_and_gradient_validates_dims():
    with pytest.raises(InputError):
        mean_and_gradient(_model(), np.array([1.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(InputError):
        mean_and_gradient(_model(), np.array([1.0]), np.array([np.nan, 0.0]))


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


def test_working_variance_validation():
    with pytest.raises(InputError):
        WorkingVariance("gamma")
    with pytest.raises(InputError):
        WorkingVariance("nb", value=-1.0)
    with pytest.raises(InputError):
        WorkingVariance("userfixed", per_pair=np.array([1.0, 0.0]))
    assert WorkingVariance("userfixed", per_pair=np.array([1.0, 2.0])).has_nuisance \
        is False
