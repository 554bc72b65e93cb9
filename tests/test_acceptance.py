"""End-to-end acceptance suite.

Each test prints a PASS/FAIL line (run with ``pytest -s`` to see them all)
and asserts the stated tolerance.  The heavier Monte Carlo studies run once
per session through module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from pairgee import (FrmModel, Kernel, McConfig, PairScoreTable,
                     WorkingVariance, enumerate_pairs, fit_mean_variance,
                     gen_nb_scenario, hajek_scores, link_mean_deriv, make_rng,
                     pair_count, projection_variance, run_monte_carlo,
                     solve_ugee, ustatistic_mean)
from pairgee.fit import PairData

from oracles import (aitchison_by_hand, brute_hajek, brute_projection_variance,
                     central_diff, pairwise_least_squares)

SEED = 20260809


def _verdict(num, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num}: {tag} - {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def nb_study():
    """Criterion 1 configuration; also feeds criterion 2."""
    config = McConfig(scenario="nb", n=100, replicates=200, seed=SEED,
                      methods=("mle:nb", "ugee:nb", "ugee:poisson",
                               "ugee:const"),
                      params={"tau": 10.0, "beta0": 3.0, "beta1": 3.0,
                              "a": 0.0, "b": 1.0})
    start = time.perf_counter()
    report = run_monte_carlo(config)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_01_overdispersed_count_study(nb_study):
    report, elapsed = nb_study
    rows = {(r.method, r.param): r for r in report.rows}
    ok = not report.invalid
    detail = [f"runtime {elapsed:.1f}s"]

    for method in ("mle:nb", "ugee:nb", "ugee:poisson", "ugee:const"):
        r = rows[(method, "beta1")]
        ok &= abs(r.est - 3.0) <= 0.01
        detail.append(f"{method} est {r.est:.4f}")

    windows = {"ugee:nb": (5e-5, 2e-4), "ugee:poisson": (2.5e-4, 1e-3),
               "ugee:const": (1.4e-3, 6e-3)}
    for method, (lo, hi) in windows.items():
        asy = rows[(method, "beta1")].asy
        ok &= lo <= asy <= hi
        detail.append(f"{method} asy {asy:.3g}")

    for method in ("mle:nb", "ugee:nb", "ugee:poisson", "ugee:const"):
        r = rows[(method, "beta1")]
        ratio = r.emp / r.asy
        ok &= 0.7 <= ratio <= 1.3
        detail.append(f"{method} emp/asy {ratio:.2f}")

    ok &= elapsed <= 120.0
    _verdict(1, "overdispersed-count study reproduces the reference table",
             ok, "; ".join(detail))


def test_criterion_02_efficiency_ordering(nb_study):
    report, _ = nb_study
    rows = {(r.method, r.param): r for r in report.rows}
    total = 0
    ordered = 0
    for det in report.details:
        fits = [det.get(m) for m in ("ugee:nb", "ugee:poisson", "ugee:const")]
        if any(f is None for f in fits):
            continue
        total += 1
        a_nb, a_po, a_ct = (f[1][1] for f in fits)
        ordered += bool(a_nb <= a_po <= a_ct)
    frac = ordered / total
    ratio = rows[("ugee:nb", "beta1")].asy / rows[("mle:nb", "beta1")].asy
    ok = frac >= 0.95 and abs(ratio - 1.0) <= 0.15
    _verdict(2, "variance ordering nb <= poisson <= constant and the "
                "likelihood benchmark agreement",
             ok, f"ordered {frac:.1%}; nb/mle asy ratio {ratio:.3f}")


def test_criterion_03_linear_reference_bound():
    config = McConfig(scenario="linear", n=200, replicates=500, seed=SEED + 3,
                      params={"beta": 1.0, "sigma_x": 1.0, "sigma_eps": 1.0})
    report = run_monte_carlo(config)
    row = report.rows[0]
    target = 1.0  # sigma_eps^2 / sigma_x^2
    scaled_emp = config.n * row.emp
    ok = abs(scaled_emp - target) <= 0.2 * target
    ok &= abs(row.asy / row.emp - 1.0) <= 0.2
    _verdict(3, "pairwise-difference slope attains the reference variance",
             ok, f"n*emp {scaled_emp:.3f} vs {target}; asy/emp "
                 f"{row.asy / row.emp:.3f}")


def test_criterion_04_closed_form_oracle():
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(5, 31))
        p = int(rng.integers(1, 4))
        intercept = bool(rng.integers(0, 2))
        pairs = enumerate_pairs(n)
        x = rng.normal(size=(len(pairs), p))
        f = x @ rng.normal(size=p) + rng.normal(size=len(pairs))
        data = PairData(n=n, i1=pairs[:, 0], i2=pairs[:, 1], x=x, f=f)
        model = FrmModel(link="identity",
                         working_variance=WorkingVariance("constant"),
                         intercept=intercept)
        res = solve_ugee(model, data)
        oracle = pairwise_least_squares(x, f, intercept)
        worst = max(worst, float(np.max(np.abs(res.beta - oracle))))
    _verdict(4, "identity-link solution equals pairwise least squares "
                "to 1e-10", worst <= 1e-10, f"max deviation {worst:.2e}")


def test_criterion_05_variance_identity():
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 40))
        y = rng.normal(scale=rng.uniform(0.5, 3.0), size=n)
        u = ustatistic_mean(Kernel.sqhalfdiff(), y[:, None])
        ref = float(np.var(y, ddof=1))
        worst = max(worst, abs(u - ref) / max(1.0, abs(ref)))
    _verdict(5, "half squared difference averages to the unbiased sample "
                "variance", worst <= 1e-12, f"max relative error {worst:.2e}")


@pytest.mark.parametrize("n", [2, 3, 5, 17])
def test_criterion_06_projection_oracle(n):
    rng = np.random.default_rng(SEED + 6 + n)
    scores = rng.normal(size=(pair_count(n), 2))
    table = PairScoreTable(n, scores)
    vt = hajek_scores(table)
    vt_brute = brute_hajek(n, scores)
    su = projection_variance(vt)
    su_brute = brute_projection_variance(vt_brute)
    ok = np.array_equal(vt, vt_brute) and np.array_equal(su, su_brute)
    _verdict(6, f"projected scores and their covariance match brute force "
                f"exactly (n={n})", ok)


def test_criterion_07_degenerate_kernel():
    rng = make_rng(SEED + 7)
    n = 2000
    z = rng.normal(1.0, 1.0, size=n)
    pairs = enumerate_pairs(n)
    scores = (1.0 - z[pairs[:, 0]]) * (1.0 - z[pairs[:, 1]])
    su = projection_variance(hajek_scores(PairScoreTable(n, scores)))
    pair_var = float(np.var(scores))
    ok = su[0, 0] <= 0.05 and pair_var > 0.5
    _verdict(7, "product kernel of centered normals projects to (near) zero",
             ok, f"projected variance {su[0, 0]:.4f}; pair variance "
                 f"{pair_var:.3f}")


def test_criterion_08_agreement_recovery():
    config = McConfig(scenario="icc", n=300, replicates=200, seed=SEED + 8,
                      params={"raters": 4, "sigma_b2": 1.0, "sigma_bg2": 0.3,
                              "sigma_e2": 0.7})
    report = run_monte_carlo(config)
    rows = {r.param: r for r in report.rows}
    est = rows["rho"].est
    ok = abs(est - 0.45) <= 0.03 and not report.invalid
    _verdict(8, "agreement index recovered from two-way ratings",
             ok, f"mean rho {est:.4f} vs 0.45")


def test_criterion_09_rank_regression_recovery():
    config = McConfig(scenario="mww", n=300, replicates=200, seed=SEED + 9,
                      params={"beta": 1.0})
    report = run_monte_carlo(config)
    row = report.rows[0]
    ok = abs(row.est - 1.0) <= 0.05 and not report.invalid
    _verdict(9, "rank-indicator regression recovers the slope with a "
                "binary working variance", ok, f"mean beta {row.est:.4f}")


def test_criterion_10_endogenous_closed_form():
    rng = np.random.default_rng(SEED + 10)
    worst = 0.0
    for trial in range(10):
        n = int(rng.integers(5, 25))
        pairs = enumerate_pairs(n)
        f = rng.gamma(shape=2.0, scale=1.5, size=len(pairs))
        data = PairData(n=n, i1=pairs[:, 0], i2=pairs[:, 1],
                        x=np.empty((len(pairs), 0)), f=f)
        res = fit_mean_variance(data)
        mu = float(f.mean())
        sigma2 = float(np.mean((f - mu) ** 2))
        scale = max(1.0, abs(mu), sigma2)
        worst = max(worst, float(max(abs(res.beta[0] - mu),
                                     abs(res.beta[1] - sigma2))) / scale)
    _verdict(10, "mean/variance model equals the closed-form pairwise "
                 "moments to 1e-10", worst <= 1e-10,
             f"max scaled deviation {worst:.2e}")


# --------------------------------------------------------------- criterion 11

def test_criterion_11a_link_gradients():
    rng = np.random.default_rng(SEED + 11)
    worst = 0.0
    for kind, lo, hi in (("identity", -5, 5), ("exp", -5, 5),
                         ("expit", -8, 8), ("probitc", -6, 6)):
        for eta in rng.uniform(lo, hi, size=10):
            _, dh = link_mean_deriv(kind, np.array([eta]))
            fd = central_diff(
                lambda e: link_mean_deriv(kind, np.array([e]))[0][0],
                eta, step=1e-5)
            worst = max(worst, abs(dh[0] - fd) / max(1.0, abs(fd)))
    _verdict("11a", "analytic link derivatives match finite differences",
             worst <= 1e-6, f"max relative error {worst:.2e}")


def test_criterion_11b_distance_metric_axioms():
    from pairgee import aitchison_distance
    rng = np.random.default_rng(SEED + 12)
    ok = True
    for _ in range(1000):
        a, b, c = rng.dirichlet(np.ones(5), size=3)
        dab = aitchison_distance(a, b)
        ok &= dab == aitchison_distance(b, a)
        ok &= dab >= 0.0
        ok &= dab <= aitchison_distance(a, c) + aitchison_distance(c, b) + 1e-10
    ok &= abs(aitchison_distance([0.5, 0.5], [0.8, 0.2])
              - aitchison_by_hand([0.5, 0.5], [0.8, 0.2])) < 1e-12
    _verdict("11b", "compositional distance satisfies the metric axioms", ok)


def test_criterion_11c_reweighting_invariance():
    rng = np.random.default_rng(SEED + 13)
    n = 25
    pairs = enumerate_pairs(n)
    x = rng.normal(size=(len(pairs), 2))
    f = x @ np.array([1.0, -0.5]) + rng.normal(size=len(pairs))
    data = PairData(n=n, i1=pairs[:, 0], i2=pairs[:, 1], x=x, f=f)
    res1 = solve_ugee(FrmModel(link="identity",
                               working_variance=WorkingVariance("constant", 1.0),
                               intercept=False), data)
    res2 = solve_ugee(FrmModel(link="identity",
                               working_variance=WorkingVariance(
                                   "userfixed",
                                   per_pair=np.full(len(pairs), 12.5)),
                               intercept=False), data)
    scale = max(1.0, float(np.max(np.abs(res1.cov_beta))))
    ok = (np.max(np.abs(res1.beta - res2.beta)) <= 1e-10
          and np.max(np.abs(res1.cov_beta - res2.cov_beta)) <= 1e-10 * scale)
    _verdict("11c", "estimates and covariances invariant to rescaling the "
                    "working variance", ok)


def test_criterion_11d_reported_covariances_psd():
    rng = np.random.default_rng(SEED + 14)
    ok = True
    for trial in range(8):
        data = gen_nb_scenario(40, make_rng(SEED + 14, trial))
        for wv in ("poisson", "constant"):
            model = FrmModel(link="exp",
                             working_variance=WorkingVariance(wv),
                             intercept=True)
            from pairgee import adaptive_fit
            res = adaptive_fit(model, data)
            eig = np.linalg.eigvalsh(res.cov_beta)
            ok &= eig.min() >= -1e-12 * max(np.trace(res.cov_beta), 1e-30)
    d = gen_nb_scenario(30, make_rng(SEED + 14, 99))
    res = fit_mean_variance(d)
    ok &= np.linalg.eigvalsh(res.cov_beta).min() >= -1e-12 * np.trace(res.cov_beta)
    _verdict("11d", "every reported covariance is positive semidefinite", ok)


def test_criterion_11e_bytewise_reproducibility(tmp_path):
    config = McConfig(scenario="nb", n=30, replicates=5, seed=SEED + 15,
                      methods=("ugee:poisson", "ugee:nb"))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run_monte_carlo(config).to_json(p1)
    run_monte_carlo(config).to_json(p2)
    c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_monte_carlo(config).to_csv(c1)
    run_monte_carlo(config).to_csv(c2)
    ok = (p1.read_bytes() == p2.read_bytes()
          and c1.read_bytes() == c2.read_bytes())
    _verdict("11e", "study reports are bytewise reproducible under a fixed "
                    "seed", ok)
