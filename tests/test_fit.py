import numpy as np
import pytest

from pairgee import (EvaluationError, FitConfig, FrmModel, IccModel, InputError,
                     Kernel, MeanVarianceModel, NonConvergence, PairCovariate,
                     PairData, PairScoreTable, SingularInformation, SubjectRecord,
                     WorkingVariance, adaptive_fit, assemble_ugee, build_pairs,
                     enumerate_pairs, estimate_nuisance, fit_icc,
                     fit_mean_variance, gen_icc_ratings, gen_mww_probit,
                     gen_nb_scenario, hajek_scores, icc_pair_data, make_rng,
                     projection_variance, sandwich_variance, solve_ugee)

import pairgee.fit
from pairgee.fit import _bind, _pair_pass

from oracles import (brute_hajek, brute_projection_variance, nb_tau_quadratic,
                     pairwise_least_squares)


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
    """The per-pair scores at ``beta``, evaluated as one chunk."""
    return PairScoreTable(data.n, _bind(model, data)[0](beta, slice(0, data.n_pairs))[1])


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
    monkeypatch.setattr(pairgee.fit, "CHUNK_PAIRS", 1024)
    U1, J1 = assemble_ugee(_model(), data, beta)
    monkeypatch.setattr(pairgee.fit, "CHUNK_PAIRS", data.n_pairs)
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
    terms, _, _ = _bind(model, data)
    monkeypatch.setattr(pairgee.fit, "CHUNK_PAIRS", 128)  # several chunks
    _, U, _ = _pair_pass(terms, data, beta)
    step = 1e-6
    grad = [(_pair_pass(terms, data, beta + step * e)[0]
             - _pair_pass(terms, data, beta - step * e)[0]) / (2 * step)
            for e in np.eye(2)]
    assert np.allclose(grad, U, rtol=1e-6, atol=1e-6 * np.max(np.abs(U)))


# ------------------------------------------------------------------ solver

@pytest.mark.parametrize("field,value", [("tol_eq", 0.0), ("max_iter", 0)])
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
    monkeypatch.setattr(pairgee.fit, "CHUNK_PAIRS", 1024)
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
    monkeypatch.setattr(pairgee.fit, "CHUNK_PAIRS", data.n_pairs)
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
    monkeypatch.setattr(pairgee.fit, "CHUNK_PAIRS", 1024)
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
        res = original(*args, **kwargs)
        per_round.append(res.iterations)
        return res

    monkeypatch.setattr(fit_module, "_solve", recording)
    res = adaptive_fit(model, data)
    assert len(per_round) == res.nuisance_rounds + 1
    assert res.iterations > 0 and res.iterations == sum(per_round)


def test_adaptive_fit_builds_the_sandwich_once(monkeypatch):
    import pairgee.fit as fit_module
    data = gen_nb_scenario(40, 33)
    model = FrmModel(link="exp", working_variance=WorkingVariance("nb"),
                     intercept=True)
    calls = []
    original = fit_module.sandwich_variance

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(fit_module, "sandwich_variance", counting)
    res = adaptive_fit(model, data)
    assert res.nuisance_rounds >= 2 and len(calls) == 1
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


def test_fit_icc_chunked_matches_one_chunk(monkeypatch):
    ratings = gen_icc_ratings(40, 4, 9).ratings  # 780 pairs: 112 chunks of 7
    one = fit_icc(ratings)
    monkeypatch.setattr(pairgee.fit, "CHUNK_PAIRS", 7)
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
