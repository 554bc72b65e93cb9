import dataclasses
import math
import multiprocessing
import os
import re

import numpy as np
import pytest
from scipy.special import ndtr

import pairgee.simulate
import pairgee.ustat
from pairgee import (EvaluationError, FitConfig, FrmModel, IccModel, InputError,
                     Kernel, McConfig, NonConvergence, PairCovariate, WorkingVariance,
                     assemble_ugee, gen_icc_ratings, gen_linear_exogenous,
                     gen_mww_probit, gen_nb_scenario, icc_mean_map, linear_pair_data,
                     make_rng, mww_pair_data, nb_working_mle, run_monte_carlo,
                     solve_ugee)
from pairgee.simulate import _profile_root

from oracles import (full_array_linear_pair_data, full_array_nb_scenario,
                     full_array_subject_pairs, nb_working_mle_bounded)


# ----------------------------------------------------------------- streams

def test_make_rng_reproducible_and_stream_independent():
    a = make_rng(12, 3).normal(size=5)
    b = make_rng(12, 3).normal(size=5)
    c = make_rng(12, 4).normal(size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# -------------------------------------------------------------- nb scenario

def test_gen_nb_mean_and_variance_at_fixed_covariate():
    # generator self-test: the gamma mixture has the advertised moments
    rng = make_rng(5)
    tau, mu, draws = 10.0, math.exp(6.0), 100_000
    f = rng.poisson(rng.gamma(shape=tau, scale=mu / tau, size=draws))
    var = mu * (1 + mu / tau)
    assert abs(f.mean() - mu) <= max(0.01 * mu, 3 * math.sqrt(var / draws))
    assert abs(f.var(ddof=1) - var) <= 5 * var * math.sqrt(2.0 / draws)


def test_gen_nb_scenario_shapes_and_mean_structure():
    data = gen_nb_scenario(50, 3)
    assert data.n_pairs == 50 * 49 // 2
    assert data.x.shape == (data.n_pairs, 1)
    assert np.all(data.x[:, 0] >= 0.0) and np.all(data.x[:, 0] <= 2.0)
    # crude regression check: log(mean in upper x half) > log(mean in lower)
    med = np.median(data.x[:, 0])
    assert data.f[data.x[:, 0] > med].mean() > data.f[data.x[:, 0] < med].mean()
    with pytest.raises(InputError):
        gen_nb_scenario(20, 0, tau=-1.0)


# ------------------------------------------------------------------ linear

def test_gen_linear_pairs_are_differences():
    d = gen_linear_exogenous(20, 9, beta=2.0, sigma_x=1.5, sigma_eps=0.5)
    pd = linear_pair_data(d)
    assert pd.n_pairs == 190
    assert np.allclose(pd.f, -(pd.f[::-1])[::-1] * 0 + pd.f)  # finite
    # reconstruct from subject arrays
    k = 0
    for a in range(20):
        for b in range(a + 1, 20):
            assert pd.f[k] == pytest.approx(d.y[a] - d.y[b])
            assert pd.x[k, 0] == pytest.approx(d.x[a] - d.x[b])
            k += 1


def test_gen_linear_null_slope_gives_uncorrelated_pairs():
    d = gen_linear_exogenous(400, 33, beta=0.0)
    pd = linear_pair_data(d)
    corr = np.corrcoef(pd.x[:, 0], pd.f)[0, 1]
    assert abs(corr) < 0.05


# --------------------------------------------------------------------- icc

def test_gen_icc_true_rho_formulas():
    assert gen_icc_ratings(12, 4, 1, sigma_bg2=0.0, sigma_e2=0.0).true_rho == 1.0
    assert gen_icc_ratings(12, 4, 1, sigma_b2=0.0, sigma_bg2=0.0).true_rho == 0.0
    d = gen_icc_ratings(12, 4, 1, sigma_b2=1.0, sigma_bg2=0.3, sigma_e2=0.7)
    assert d.true_rho == pytest.approx(0.45)


def test_gen_icc_interaction_rows_centered_with_nominal_variance():
    d = gen_icc_ratings(4000, 4, 77, mu=0.0, sigma_b2=0.0, sigma_bg2=0.3,
                        sigma_e2=0.0)
    # rows sum to zero and the marginal variance matches the nominal value
    assert np.allclose(d.ratings.sum(axis=1), 0.0, atol=1e-10)
    marg = d.ratings.var()
    assert marg == pytest.approx(0.3, rel=0.05)


def test_gen_icc_pairwise_kernel_means_match_model_means():
    # population check: pair-kernel averages converge to the model means
    d = gen_icc_ratings(400, 4, 13, sigma_b2=1.0, sigma_bg2=0.3, sigma_e2=0.7)
    from pairgee import icc_mean_map
    from pairgee.fit import icc_pair_data
    pd = icc_pair_data(d.ratings)
    h, _ = icc_mean_map((d.true_tau2, d.true_rho), 4)
    means = pd.f.mean(axis=0)
    assert means[0] == pytest.approx(h[0], rel=0.15)
    assert means[1] == pytest.approx(h[1], rel=0.10)


@pytest.mark.parametrize("generator,args,params", [
    (gen_nb_scenario, (20, 1), {"a": math.nan}),
    (gen_nb_scenario, (20, 1), {"tau": math.nan}),
    (gen_nb_scenario, (20, 1), {"beta1": math.inf}),
    (gen_linear_exogenous, (20, 1), {"sigma_x": math.inf}),
    (gen_linear_exogenous, (20, 1), {"beta": -math.inf}),
    (gen_icc_ratings, (20, 3, 1), {"sigma_b2": math.nan}),
    (gen_icc_ratings, (20, 3, 1), {"gamma": [math.nan, 0.0, 0.0]}),
    (gen_mww_probit, (20, 1), {"beta": [1.0, math.inf]}),
], ids=lambda v: "-".join(v) if isinstance(v, dict) else getattr(v, "__name__", ""))
def test_generators_reject_non_finite_parameters(generator, args, params):
    # they raised OverflowError or numpy's ValueError, or returned inf outcomes
    name = next(iter(params))
    with pytest.raises(InputError, match=f"^{name} must be finite, got "):
        generator(*args, **params)


@pytest.mark.parametrize("params,top", [
    ({"beta0": 1000.0}, "exp(1006)"),
    ({"beta0": 44.0, "beta1": 0.0}, "exp(44)"),
    ({"beta1": -30.0, "a": -1.0}, "exp(63)")])
def test_gen_nb_scenario_rejects_a_mean_beyond_the_count_draw(params, top):
    # numpy's Poisson draw raised ValueError("lam value too large")
    with pytest.raises(InputError, match=r"put the mean count exp\(beta0 \+ beta1 x\) "
                                         rf"at up to {re.escape(top)} "):
        gen_nb_scenario(20, 1, **params)


def test_gen_nb_scenario_rejects_a_gamma_rate_beyond_the_count_draw():
    # the mean is in range, but tau = 0.01 draws rates far above it
    with pytest.raises(InputError, match="gamma rate drawn with tau=0.01 is too large"):
        gen_nb_scenario(200, 1, tau=0.01, beta0=42.5, beta1=0.1)


def test_gen_nb_scenario_keeps_its_stream_below_the_mean_limit():
    # the check draws nothing: a large valid mean gives the unchecked draws
    data = gen_nb_scenario(20, 3, beta0=40.0, beta1=1.0)
    rng = make_rng(3)
    xs = rng.uniform(0.0, 1.0, size=20)
    rate = rng.gamma(shape=10.0, scale=np.exp(40.0 + data.x[:, 0]) / 10.0)
    assert np.array_equal(data.f, rng.poisson(rate))
    assert np.array_equal(data.x[:, 0], xs[data.i1] + xs[data.i2])


def test_gen_linear_rejects_a_nonpositive_scale():
    with pytest.raises(InputError, match="scale parameters must be positive"):
        gen_linear_exogenous(10, 0, sigma_x=0.0)


def test_gen_icc_validates_inputs():
    with pytest.raises(InputError):
        gen_icc_ratings(10, 1, 0)
    with pytest.raises(InputError):
        gen_icc_ratings(10, 3, 0, gamma=[1.0, 0.0, 1.0])
    with pytest.raises(InputError, match="variance components must be nonnegative"):
        gen_icc_ratings(10, 3, 0, sigma_e2=-1.0)


# --------------------------------------------------------------------- mww

def test_gen_mww_probit_law_at_fixed_covariates():
    # generator self-test: indicator frequency matches the probit curve
    rng = make_rng(42)
    beta, dx, draws = 1.0, 0.8, 100_000
    y1 = beta * 1.0 + rng.normal(0, math.sqrt(0.5), draws)
    y2 = beta * (1.0 - dx) + rng.normal(0, math.sqrt(0.5), draws)
    frac = float(np.mean(y1 <= y2))
    target = float(ndtr(-beta * dx))
    assert abs(frac - target) <= 3 * math.sqrt(target * (1 - target) / draws)


def test_gen_mww_null_beta_gives_half():
    d = gen_mww_probit(300, 8, beta=0.0)
    pd = mww_pair_data(d)
    assert pd.f.mean() == pytest.approx(0.5, abs=0.02)


def test_mww_pair_data_equal_covariates_probability_half():
    d = gen_mww_probit(100, 9, beta=1.0)
    # with x1 == x2 the indicator mean is exactly Phi(0) = 1/2
    assert float(ndtr(0.0)) == 0.5


# ------------------------------------------------- pair data chunk by chunk

@pytest.mark.parametrize("chunk", [1, 7, None], ids=["chunk1", "chunk7", "default"])
def test_pair_data_generators_match_the_full_array_oracle(chunk, chunk_pairs):
    # the rows are filled a chunk at a time, the nb draws included: the
    # bytes and the random stream equal drawing over all pairs at once
    if chunk is not None:
        chunk_pairs(chunk)

    def same(data, x, f):
        return (data.x.shape == x.shape and data.f.shape == f.shape
                and data.x.tobytes() == x.tobytes()
                and data.f.tobytes() == f.tobytes())

    # n = 190: 17,955 pairs, two default chunks
    assert same(gen_nb_scenario(190, 5, tau=3.0), *full_array_nb_scenario(190, 5, tau=3.0))
    assert same(gen_nb_scenario(41, 6, beta0=1.0, beta1=-2.0, a=-1.0),
                *full_array_nb_scenario(41, 6, beta0=1.0, beta1=-2.0, a=-1.0))
    d = gen_linear_exogenous(190, 7)
    assert same(linear_pair_data(d), *full_array_linear_pair_data(d))
    m = gen_mww_probit(190, 8, beta=[1.0, -0.5])
    assert same(mww_pair_data(m), *full_array_subject_pairs(
        Kernel.mww(), m.y[:, None], m.x, PairCovariate("difference")))


def test_pair_data_generators_need_two_subjects():
    for build in (lambda: gen_nb_scenario(1, 3),
                  lambda: linear_pair_data(gen_linear_exogenous(1, 3)),
                  lambda: mww_pair_data(gen_mww_probit(1, 3))):
        with pytest.raises(InputError, match="need at least 2 subjects to form "
                                             "pairs, got 1"):
            build()


# ----------------------------------------------------------- working MLE

def test_profile_root_bisects_where_a_newton_step_leaves_the_bracket():
    # a slope a fifth of the true one: from -3 the search widens to 0.1,
    # where the score turns negative, steps to 6.73 and then bisects
    points = []

    def score(u):
        points.append(u)
        return -math.atan(u - 1.0), -0.2 / (1.0 + (u - 1.0) ** 2)

    root = _profile_root(score, -3.0)
    assert abs(root - 1.0) <= 1e-5 and len(points) == 30
    np.testing.assert_allclose(points[:7], [-3.0, -2.9, -2.7, -2.3, -1.5, 0.1, 6.73],
                               atol=5e-3)
    midpoints = [0.5 * (points[5] + points[k]) for k in (6, 7, 8)]
    np.testing.assert_allclose(points[7:10], midpoints, rtol=1e-14)


def test_nb_working_mle_recovers_parameters():
    data = gen_nb_scenario(120, 55, tau=10.0)
    res = nb_working_mle(data)
    assert res.converged
    assert np.allclose(res.beta, [3.0, 3.0], atol=0.1)
    assert 5.0 < res.tau < 20.0
    assert np.all(res.se > 0)


def test_nb_working_mle_no_dispersion_signal_hits_sentinel():
    # deterministic counts at the mean: zero dispersion signal, so the
    # profile likelihood is maximised at the variance-equals-mean boundary
    rng = make_rng(3)
    n = 60
    from pairgee import PairData, enumerate_pairs
    pairs = enumerate_pairs(n)
    xs = rng.uniform(0, 1, size=n)
    xp = xs[pairs[:, 0]] + xs[pairs[:, 1]]
    f = np.round(np.exp(1.0 + 1.0 * xp))
    data = PairData(n=n, i1=pairs[:, 0], i2=pairs[:, 1], x=xp[:, None], f=f)
    res = nb_working_mle(data)
    assert np.isinf(res.tau)
    assert res.converged


@pytest.mark.parametrize("rep", [1, 18])
def test_nb_working_mle_weak_dispersion_signal_hits_sentinel(rep):
    # tau = 1e5 at n = 100: no tau beats the Poisson limit by 1e-3, which
    # only a pair-by-pair log-likelihood resolves near NB_TAU_MAX; on
    # replicate 18 the profile score's root is 1.7e6, inside the search
    # interval, with a gain of 7.3e-4
    res = nb_working_mle(gen_nb_scenario(100, make_rng(5, rep), tau=1e5))
    assert np.isinf(res.tau)
    assert res.converged


def test_nb_working_mle_flat_profile_keeps_its_interior_maximum():
    # the profile peaks at tau = 2.4e5 with a gain of 0.05 over the Poisson
    # limit; the score's sign must hold up between there and NB_TAU_MAX,
    # where a digamma difference is rounding noise (a bounded search of the
    # log-likelihood does not converge here in 200 rounds)
    res = nb_working_mle(gen_nb_scenario(100, make_rng(5, 13), tau=1e6))
    assert res.converged
    assert 2e5 < res.tau < 3e5


_MLE_DATASETS = ([(f"seed{s}-rep{r}", s, r, 10.0) for s in (11, 12) for r in range(40)]
                 + [(f"tau{t:g}", 5, 1, t) for t in (0.05, 0.5, 2.0, 1e3, 1e5)])


def test_nb_working_mle_matches_bounded_search_reference():
    # the profile-score root against a bounded search of the profile
    # log-likelihood from scratch in every round
    for name, seed, rep, tau in _MLE_DATASETS:
        data = gen_nb_scenario(100, make_rng(seed, rep), tau=tau)
        res = nb_working_mle(data)
        beta, ref_tau, loglik, _, converged = nb_working_mle_bounded(data.f, data.x)
        assert np.isinf(res.tau) == np.isinf(ref_tau), name
        assert res.loglik == pytest.approx(loglik, rel=1e-12), name
        assert np.max(np.abs(res.beta - beta)) <= 1e-8, name
        assert res.converged == converged, name


@pytest.mark.parametrize("rep", range(5))
def test_nb_working_mle_solves_the_ugee_nb_equations_at_its_tau(rep):
    # the likelihood's beta equations are the ugee:nb equations with an
    # intercept (Lawless 1987), so a tight solve of those at the MLE's tau
    # is its beta
    data = gen_nb_scenario(100, make_rng(11, rep))
    mle = nb_working_mle(data)
    model = FrmModel("exp", WorkingVariance("nb", value=mle.tau), intercept=True)
    beta = solve_ugee(model, data, FitConfig(tol_eq=1e-12)).beta
    assert np.max(np.abs(mle.beta - beta) / np.abs(beta)) <= 1e-10


@pytest.mark.parametrize("n,stream,tau,beta0", [
    (12, (77, 3), 0.05, -1.0), (12, (5, 12), 10.0, 14.0), (40, (5, 40), 1e6, 10.0)],
    ids=["slow-scoring", "cancelling-merit", "rounding-floor"])
def test_nb_working_mle_reaches_the_root_where_solving_is_hard(n, stream, tau, beta0):
    # 66 pairs whose tau estimate is 0.14, where each scoring step shrinks
    # the equations by about 0.85 only; mean counts up to 1e7 at tau = 10, where the two
    # sums of the nb quasi-likelihood cancel to rounding noise that the
    # line search must not read as a decrease; and up to 1e6 near the
    # Poisson limit, where the equations' rounding floor passes 1e-12 per
    # pair
    data = gen_nb_scenario(n, make_rng(*stream), tau=tau, beta0=beta0, beta1=2.0)
    res = nb_working_mle(data)
    model = FrmModel("exp", WorkingVariance("nb", value=res.tau), intercept=True)
    U, J = assemble_ugee(model, data, res.beta)
    assert res.converged and np.max(np.abs(np.linalg.solve(J, U))) <= 1e-10


def test_nb_working_mle_rejects_negative_counts():
    data = gen_nb_scenario(20, 1)
    bad = dataclasses.replace(data, f=data.f - 1000.0)
    with pytest.raises(InputError):
        nb_working_mle(bad)


def test_nb_working_mle_on_all_zero_counts_is_an_evaluation_error():
    # exp(-30) means draw no count at n = 10: the likelihood grows without
    # bound as beta0 falls, so there is no estimate to iterate towards
    data = gen_nb_scenario(10, make_rng(0, 0), beta0=-30.0, beta1=0.0)
    assert not data.f.any()
    with pytest.raises(EvaluationError, match="every count is zero"):
        nb_working_mle(data)


def test_nb_working_mle_on_a_separated_count_is_an_evaluation_error():
    # one count, on the pair with the largest covariate: the likelihood
    # rises as the slope grows, until the information matrix is singular
    data = gen_nb_scenario(10, make_rng(0, 0), beta0=-30.0, beta1=0.0)
    f = np.zeros(data.n_pairs)
    f[np.argmax(data.x[:, 0])] = 1.0
    with pytest.raises(EvaluationError, match="information matrix is singular"):
        nb_working_mle(dataclasses.replace(data, f=f))


def test_run_monte_carlo_counts_a_working_mle_that_does_not_converge(monkeypatch):
    monkeypatch.setattr(pairgee.simulate, "ADAPTIVE_MAX_ROUNDS", 1)
    config = McConfig(scenario="nb", n=20, replicates=1, seed=0, methods=("mle:nb",))
    report = run_monte_carlo(config)
    assert report.invalid and [row.failures for row in report.rows] == [1]


def test_run_monte_carlo_counts_all_zero_replicates_as_failures():
    config = McConfig(scenario="nb", n=10, replicates=3, seed=0,
                      methods=("mle:nb", "ugee:const"),
                      params={"beta0": -30.0, "beta1": 0.0})
    report = run_monte_carlo(config)
    assert report.invalid
    assert {row.method: row.failures for row in report.rows} == {
        "mle:nb": 3, "ugee:const": 3}


# ------------------------------------------------------------- monte carlo

def test_run_monte_carlo_reproducible():
    config = McConfig(scenario="nb", n=30, replicates=4, seed=11,
                      methods=("ugee:poisson", "ugee:nb"))
    r1 = run_monte_carlo(config)
    r2 = run_monte_carlo(config)
    assert r1 == r2


def test_run_monte_carlo_report_files_bytewise_identical(tmp_path):
    config = McConfig(scenario="nb", n=25, replicates=3, seed=2,
                      methods=("ugee:poisson",))
    report = run_monte_carlo(config)
    for ext, writer in (("csv", report.to_csv), ("json", report.to_json)):
        p1, p2 = tmp_path / f"a.{ext}", tmp_path / f"b.{ext}"
        writer(p1)
        run_monte_carlo(config).to_csv(p2) if ext == "csv" else \
            run_monte_carlo(config).to_json(p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_run_monte_carlo_single_replicate_has_no_empirical_variance():
    config = McConfig(scenario="nb", n=25, replicates=1, seed=3,
                      methods=("ugee:poisson",))
    report = run_monte_carlo(config)
    assert all(row.emp is None for row in report.rows)


def test_run_monte_carlo_counts_failures_and_flags_invalid():
    # bernoulli working variance cannot weight unbounded counts: h(1-h) < 0
    config = McConfig(scenario="nb", n=25, replicates=2, seed=4,
                      methods=("ugee:bernoulli",))
    report = run_monte_carlo(config)
    assert report.invalid
    assert report.rows[0].failures == 2


def test_run_monte_carlo_replicates_independent_of_execution_order():
    from pairgee.simulate import _scenario_dataset
    config = McConfig(scenario="nb", n=20, replicates=5, seed=9)
    d3 = _scenario_dataset(config, 3)
    # regenerating replicate 3 in isolation gives the same dataset
    d3_again = _scenario_dataset(config, 3)
    assert np.array_equal(d3.f, d3_again.f)
    assert np.array_equal(d3.x, d3_again.x)


def test_run_monte_carlo_linear_extras():
    config = McConfig(scenario="linear", n=40, replicates=5, seed=21)
    report = run_monte_carlo(config)
    assert "n_times_emp" in report.extras
    assert report.extras["reference_variance"] == pytest.approx(1.0)


def test_mc_config_validation():
    with pytest.raises(InputError):
        McConfig(scenario="weird", n=30, replicates=2, seed=0)
    with pytest.raises(InputError):
        McConfig(scenario="nb", n=5, replicates=2, seed=0)
    with pytest.raises(InputError):
        McConfig(scenario="nb", n=30, replicates=0, seed=0)


# each was truncated (seed 1.5 ran seed 1's stream, 3.9 raters drew 3) or
# failed inside the run with numpy's bare TypeError
@pytest.mark.parametrize("setting,make", [
    ("n", lambda: McConfig("nb", n=20.5, replicates=2, seed=1)),
    ("replicates", lambda: McConfig("nb", n=20, replicates=2.5, seed=1)),
    ("seed", lambda: McConfig("nb", n=20, replicates=2, seed=1.5)),
    ("max_iter", lambda: FitConfig(max_iter=2.5)),
    ("max_iter", lambda: FitConfig(max_iter=math.nan)),
    ("raters", lambda: gen_icc_ratings(5, 3.9, 0)),
    ("raters", lambda: IccModel(raters=2.5)),
    ("raters", lambda: icc_mean_map((1.0, 0.2), 2.5)),
], ids=["mc-n", "mc-replicates", "mc-seed", "max-iter", "max-iter-nan", "gen-icc-raters",
        "icc-model-raters", "icc-mean-map-raters"])
def test_an_integer_setting_that_is_not_an_integer_is_named(setting, make):
    with pytest.raises(InputError, match=f"^{setting} must be an integer, got "):
        make()


def test_integer_settings_accept_numpy_integers():
    config = McConfig("nb", n=np.int64(20), replicates=np.int32(2), seed=np.uint8(1))
    assert config.n == 20 and config.replicates == 2 and config.seed == 1
    assert FitConfig(max_iter=np.int64(5)).max_iter == 5
    assert gen_icc_ratings(5, np.int64(3), 0).ratings.shape == (5, 3)
    assert IccModel(np.int16(3)).mean_map((1.0, 0.5))[0].tolist() == [2.0 / 3.0, 1.0]


@pytest.mark.parametrize("scenario,method", [
    ("nb", "ugee:foo"), ("nb", "ugee:userfixed"), ("icc", "ugee:poisson"),
    ("nb", "icc"), ("linear", "icc"), ("icc", "mle:nb"), ("mww", "mle:nb"),
    ("nb", "foo")])
def test_mc_config_rejects_method_outside_its_scenario(scenario, method):
    with pytest.raises(InputError, match="does not apply"):
        McConfig(scenario=scenario, n=30, replicates=2, seed=0,
                 methods=(method,))


def test_mc_config_rejects_a_repeated_method():
    # its rows were reported twice
    with pytest.raises(InputError, match="method 'ugee:nb' is given twice"):
        McConfig(scenario="nb", n=20, replicates=3, seed=0,
                 methods=("ugee:nb", "mle:nb", "ugee:nb"))


@pytest.mark.parametrize("scenario,params", [
    ("linear", {"tau": 5.0}), ("nb", {"raters": 3}), ("icc", {"beta": 1.0}),
    ("mww", {"sigma_eps": 1.0})])
def test_mc_config_rejects_parameter_its_generator_does_not_take(scenario, params):
    with pytest.raises(InputError, match="takes no parameter"):
        McConfig(scenario=scenario, n=30, replicates=2, seed=0, params=params)


def test_run_monte_carlo_lets_programming_errors_propagate(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug inside a fit")

    monkeypatch.setattr(pairgee.simulate, "adaptive_fit", broken)
    config = McConfig(scenario="nb", n=20, replicates=2, seed=1,
                      methods=("ugee:poisson",))
    with pytest.raises(TypeError, match="bug inside a fit"):
        run_monte_carlo(config)


def test_run_monte_carlo_icc_true_rho_is_the_generators():
    params = {"raters": 3, "sigma_b2": 0.5, "sigma_bg2": 0.2, "sigma_e2": 0.9}
    report = run_monte_carlo(McConfig(scenario="icc", n=20, replicates=2,
                                      seed=6, params=params))
    expected = gen_icc_ratings(20, seed_or_rng=make_rng(6, 0), **params).true_rho
    assert report.extras == {"true_rho": expected}


# ------------------------------------------------------ replicates on a pool

@pytest.mark.parametrize("scenario", sorted(pairgee.simulate.SCENARIOS))
def test_run_monte_carlo_reports_do_not_depend_on_the_cpu_count(tmp_path,
                                                                limit_cpus,
                                                                scenario):
    config = McConfig(scenario=scenario, n=20, replicates=5, seed=8)
    files = []
    for cpus in (1, 2):
        limit_cpus(cpus)
        report = run_monte_carlo(config)
        report.to_json(tmp_path / f"c{cpus}.json")
        report.to_csv(tmp_path / f"c{cpus}.csv")
        files.append([(tmp_path / f"c{cpus}.{ext}").read_bytes()
                      for ext in ("json", "csv")])
    assert files[0] == files[1]
    assert multiprocessing.active_children() == []


def _failing_in(monkeypatch, config, rep, error_of_method):
    """Patch ``_fit_method`` to raise ``error_of_method[method]`` on replicate
    ``rep``'s data (told apart by its responses) and fit as usual elsewhere."""
    target = pairgee.simulate._scenario_dataset(config, rep).f
    fit_method = pairgee.simulate._fit_method

    def failing(method, data, row):
        if method in error_of_method and np.array_equal(data.f, target):
            raise error_of_method[method]
        return fit_method(method, data, row)

    monkeypatch.setattr(pairgee.simulate, "_fit_method", failing)


def test_run_monte_carlo_raises_a_workers_programming_error_as_is(monkeypatch,
                                                                  limit_cpus):
    limit_cpus(2)
    config = McConfig(scenario="nb", n=20, replicates=6, seed=1,
                      methods=("ugee:poisson",))
    _failing_in(monkeypatch, config, 3, {"ugee:poisson": TypeError("bug in a fit")})
    with pytest.raises(TypeError, match="bug in a fit"):
        run_monte_carlo(config)
    assert multiprocessing.active_children() == []


def test_run_monte_carlo_counts_a_workers_fit_failures(monkeypatch, limit_cpus):
    config = McConfig(scenario="nb", n=20, replicates=6, seed=1,
                      methods=("ugee:poisson", "ugee:nb", "ugee:const"))
    limit_cpus(1)
    reference = run_monte_carlo(config)
    limit_cpus(2)
    _failing_in(monkeypatch, config, 4, {
        "ugee:poisson": EvaluationError("overflow"),
        "ugee:nb": NonConvergence("budget exhausted")})
    report = run_monte_carlo(config)
    failures = {row.method: row.failures for row in report.rows}
    assert failures == {"ugee:poisson": 1, "ugee:nb": 1, "ugee:const": 0}
    assert report.details[4]["ugee:poisson"] is None
    assert report.details[4]["ugee:nb"] is None
    assert [row for row in report.rows if row.method == "ugee:const"] == \
        [row for row in reference.rows if row.method == "ugee:const"]
    assert multiprocessing.active_children() == []


def test_run_monte_carlo_runs_every_replicate_on_one_blas_thread(monkeypatch,
                                                                 limit_cpus):
    blas = pairgee.ustat._openblas()
    if blas is None:
        pytest.skip("numpy carries no bundled OpenBLAS")
    get, set_ = blas

    def reporting(method, data, row):
        # the thread count and process id come back as the "estimates",
        # from whichever process ran the replicate
        return ("threads", "pid"), np.array([get(), os.getpid()], float), \
            np.ones(2)

    monkeypatch.setattr(pairgee.simulate, "_fit_method", reporting)
    limit_cpus(2)
    before = get()
    set_(2)
    try:
        report = run_monte_carlo(McConfig(scenario="nb", n=20, replicates=5,
                                          seed=2, methods=("ugee:poisson",)))
        assert get() == 2
    finally:
        set_(before)
    threads, pids = zip(*(fits["ugee:poisson"][0] for fits in report.details))
    assert threads == (1.0,) * 5
    assert pids[0] == os.getpid()
    if len(os.sched_getaffinity(0)) >= 2:
        assert os.getpid() not in pids[1:]
    assert multiprocessing.active_children() == []


def test_pool_workers_keep_their_reductions_in_process(monkeypatch, limit_cpus,
                                                       chunk_pairs, tmp_path):
    # every reduction of more than one 16-pair chunk may fork, but only in
    # this process (replicate 0): a pool worker forks no grandchild
    config = McConfig(scenario="nb", n=20, replicates=5, seed=8)
    chunk_pairs(16)
    limit_cpus(1)
    reference = run_monte_carlo(config)
    reference.to_json(tmp_path / "serial.json")

    parent, fork = os.getpid(), os.fork
    forks, grandchildren = [], tmp_path / "grandchildren"

    def recording():
        if os.getpid() != parent:
            with open(grandchildren, "a") as fh:
                fh.write(f"{os.getpid()}\n")
        pid = fork()
        if pid and os.getpid() == parent:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    monkeypatch.setattr(pairgee.ustat, "FORK_PAIRS", 2)
    limit_cpus(2)
    report = run_monte_carlo(config)
    report.to_json(tmp_path / "forked.json")
    assert (tmp_path / "forked.json").read_bytes() == (tmp_path / "serial.json").read_bytes()
    assert not grandchildren.exists()
    if len(os.sched_getaffinity(0)) >= 2:
        assert len(forks) > 2   # the pool's two workers and replicate 0's reductions
    assert multiprocessing.active_children() == []
