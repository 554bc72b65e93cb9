"""Data generators and the Monte Carlo harness.

Each scenario generates one dataset per replicate from an independent
counter-based random stream (Philox keyed by (seed, replicate)), fits the
requested estimators, and aggregates three columns per parameter: the mean
estimate (est), the mean of the reported variances (asy) and the empirical
variance of the estimates across replicates (emp).

Scenarios
---------
``nb``      overdispersed counts per pair: X_i ~ U(a, b) per subject,
            x_pair = x_1 + x_2, f ~ NegBin(mean exp(b0 + b1 x_pair),
            dispersion tau), one independent draw per unordered pair
``linear``  subject-level Y = beta X + eps; pairwise differences of both
``icc``     two-way mixed-effects ratings (n subjects by K raters)
``mww``     subject-level Y = beta'X + eps with Var(eps) = 1/2, so the
            rank indicator has mean Phi(-beta'(x1 - x2)) exactly
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import gammaln

from .errors import InputError, NonConvergence
from .fit import NB_TAU_MAX, FitConfig, PairData, adaptive_fit, fit_icc
from .kernels import Kernel, pairwise_responses
from .model import FrmModel, PairCovariate, WorkingVariance, pair_covariate_matrix
from .ustat import enumerate_pairs

SCENARIOS = ("nb", "linear", "icc", "mww")

_DEFAULT_METHODS = {
    "nb": ("mle:nb", "ugee:nb", "ugee:poisson", "ugee:const"),
    "linear": ("ugee:const",),
    "icc": ("icc",),
    "mww": ("ugee:bernoulli",),
}


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator (Philox) keyed by (seed, *stream).

    Child streams derived from distinct stream ids are statistically
    independent, so replicates can run in any order.
    """
    ss = np.random.SeedSequence((int(seed),) + tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


# --------------------------------------------------------------------------- #
# Generators
# --------------------------------------------------------------------------- #

def gen_nb_scenario(n: int, seed_or_rng, tau: float = 10.0, beta0: float = 3.0,
                    beta1: float = 3.0, a: float = 0.0, b: float = 1.0) -> PairData:
    """Overdispersed pairwise counts with a log-linear mean in x1 + x2.

    Counts are drawn through the gamma mixture: rate ~ Gamma(shape tau,
    scale mean/tau), f ~ Poisson(rate), giving Var(f|x) = mean (1 + mean/tau).
    One independent draw per unordered pair.
    """
    if tau <= 0 or b <= a:
        raise InputError("need tau > 0 and b > a")
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) \
        else make_rng(seed_or_rng)
    xs = rng.uniform(a, b, size=n)
    pairs = enumerate_pairs(n)
    xp = xs[pairs[:, 0]] + xs[pairs[:, 1]]
    mu = np.exp(beta0 + beta1 * xp)
    f = rng.poisson(rng.gamma(shape=tau, scale=mu / tau)).astype(float)
    return PairData(n=n, i1=pairs[:, 0], i2=pairs[:, 1], x=xp[:, None], f=f)


class LinearData(NamedTuple):
    x: np.ndarray          # subject covariates, shape (n,)
    y: np.ndarray          # subject outcomes, shape (n,)
    beta: float
    sigma_x: float
    sigma_eps: float       # residual standard deviation actually used


def gen_linear_exogenous(n: int, seed_or_rng, beta: float = 1.0,
                         sigma_x: float = 1.0, sigma_eps: float = 1.0) -> LinearData:
    """Subject-level linear model Y = X beta + eps with recorded residual sd.

    Pairwise responses/covariates are the differences Y1 - Y2 and X1 - X2;
    the reference variance for the slope estimate is sigma_eps^2 / sigma_x^2
    divided by the subject count.
    """
    if sigma_x <= 0 or sigma_eps <= 0:
        raise InputError("scale parameters must be positive")
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) \
        else make_rng(seed_or_rng)
    x = rng.normal(0.0, sigma_x, size=n)
    y = beta * x + rng.normal(0.0, sigma_eps, size=n)
    return LinearData(x, y, beta, sigma_x, sigma_eps)


def linear_pair_data(d: LinearData) -> PairData:
    pairs = enumerate_pairs(len(d.x))
    i1, i2 = pairs[:, 0], pairs[:, 1]
    return PairData(n=len(d.x), i1=i1, i2=i2,
                    x=(d.x[i1] - d.x[i2])[:, None], f=d.y[i1] - d.y[i2])


class IccData(NamedTuple):
    ratings: np.ndarray    # (n, K)
    true_rho: float
    true_tau2: float


def gen_icc_ratings(n: int, raters: int, seed_or_rng, mu: float = 0.0,
                    sigma_b2: float = 1.0, sigma_bg2: float = 0.3,
                    sigma_e2: float = 0.7, gamma=None) -> IccData:
    """Two-way mixed-effects ratings with an exchangeable interaction.

    Y_ik = mu + b_i + g_k + (bg)_ik + e_ik with b_i ~ N(0, sigma_b2),
    fixed rater effects g_k summing to zero, and interaction effects that
    are row-centered (sum over raters is zero for every subject) with
    marginal variance sigma_bg2; to achieve that marginal variance the
    pre-centering draws use variance sigma_bg2 * K / (K - 1).

    The recorded agreement index is
        rho = (sigma_b2 - sigma_bg2 / (K - 1)) / (sigma_b2 + sigma_bg2 + sigma_e2).
    """
    if min(sigma_b2, sigma_bg2, sigma_e2) < 0:
        raise InputError("variance components must be nonnegative")
    K = int(raters)
    if K < 2:
        raise InputError("need at least 2 raters")
    if gamma is None:
        gamma = np.zeros(K)
    gamma = np.asarray(gamma, dtype=float)
    if gamma.size != K or abs(gamma.sum()) > 1e-9:
        raise InputError("rater effects must have length K and sum to zero")
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) \
        else make_rng(seed_or_rng)
    b = rng.normal(0.0, np.sqrt(sigma_b2), size=n)
    if sigma_bg2 > 0:
        bg = rng.normal(0.0, np.sqrt(sigma_bg2 * K / (K - 1)), size=(n, K))
        bg = bg - bg.mean(axis=1, keepdims=True)
    else:
        bg = np.zeros((n, K))
    eps = rng.normal(0.0, np.sqrt(sigma_e2), size=(n, K))
    ratings = mu + b[:, None] + gamma[None, :] + bg + eps
    denom = sigma_b2 + sigma_bg2 + sigma_e2
    rho = (sigma_b2 - sigma_bg2 / (K - 1)) / denom if denom > 0 else 1.0
    return IccData(ratings, float(rho), float(denom))


class MwwData(NamedTuple):
    x: np.ndarray          # (n, p)
    y: np.ndarray          # (n,)
    beta: np.ndarray


def gen_mww_probit(n: int, seed_or_rng, beta=1.0,
                   sigma2_half: float = 0.5) -> MwwData:
    """Subject outcomes whose pairwise rank indicator follows a probit law.

    Y = beta'X + eps with eps ~ N(0, sigma2_half) and X ~ N(0, I); with the
    default sigma2_half = 1/2 the difference of two noise terms is standard
    normal, so P(Y1 <= Y2 | X) = Phi(-beta'(x1 - x2)) exactly.
    """
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) \
        else make_rng(seed_or_rng)
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    x = rng.normal(0.0, 1.0, size=(n, beta.size))
    y = x @ beta + rng.normal(0.0, np.sqrt(sigma2_half), size=n)
    return MwwData(x, y, beta)


def mww_pair_data(d: MwwData, ties: str = "le") -> PairData:
    pairs = enumerate_pairs(len(d.y))
    i1, i2 = pairs[:, 0], pairs[:, 1]
    f = pairwise_responses(Kernel.mww(ties), d.y[:, None], i1, i2)
    x = pair_covariate_matrix(PairCovariate("difference"), d.x, i1, i2)
    return PairData(n=len(d.y), i1=i1, i2=i2, x=x, f=f)


# --------------------------------------------------------------------------- #
# Working maximum likelihood for overdispersed counts
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class MleResult:
    beta: np.ndarray
    cov_beta: np.ndarray
    tau: float
    loglik: float
    iterations: int
    converged: bool
    param_names: tuple = ()

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.cov_beta), 0.0, None))


def _nb_loglik(f: np.ndarray, mu: np.ndarray, tau: float) -> float:
    if np.isinf(tau):  # variance-equals-mean limit
        return float(np.sum(f * np.log(mu) - mu - gammaln(f + 1.0)))
    p = 1.0 / (1.0 + mu / tau)
    return float(np.sum(gammaln(f + tau) - gammaln(tau) - gammaln(f + 1.0)
                        + tau * np.log(p) + f * np.log1p(-p)))


def nb_working_mle(data: PairData, max_iter: int = 200,
                   tol: float = 1e-10) -> MleResult:
    """Maximise the overdispersed-count likelihood treating pairs as independent.

    A log-linear mean with intercept is fitted by alternating scoring steps
    for the coefficients with a bounded one-dimensional search for the
    dispersion.  The reported covariance is the inverse observed information
    for the coefficients at the optimum (dispersion held fixed), a benchmark
    convention.  A dispersion at the search's upper bound is reported as
    inf (variance equals mean).
    """
    f = data.f
    if np.any(f < 0):
        raise InputError("count likelihood needs nonnegative responses")
    X = np.column_stack([np.ones(data.n_pairs), data.x])
    q = X.shape[1]
    beta = np.zeros(q)
    fbar = float(f.mean())
    beta[0] = np.log(fbar) if fbar > 0 else 0.0
    # moment start for the dispersion
    mu = np.exp(X @ beta)
    excess = float(np.sum((f - mu) ** 2 - mu))
    tau = float(np.clip(np.sum(mu * mu) / excess, 1e-2, NB_TAU_MAX)) \
        if excess > 0 else float("inf")

    def profile_tau(mu):
        # compare against the exact variance-equals-mean limit: the profile
        # flattens there and the bounded search alone cannot certify it
        limit = _nb_loglik(f, mu, float("inf"))
        res = minimize_scalar(
            lambda log_tau: -_nb_loglik(f, mu, float(np.exp(log_tau))),
            bounds=(np.log(1e-3), np.log(NB_TAU_MAX)),
            method="bounded", options={"xatol": 1e-12})
        if limit >= -res.fun - 1e-3:
            return float("inf")
        return float(np.exp(res.x))

    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        beta_old, tau_old = beta.copy(), tau
        # scoring steps for beta at fixed tau
        for _ in range(50):
            mu = np.exp(np.clip(X @ beta, -700, 700))
            p = 1.0 / (1.0 + mu / tau)
            score = X.T @ ((f - mu) * p)
            info = (X * (mu * p)[:, None]).T @ X
            step = np.linalg.solve(info, score)
            beta = beta + step
            if np.max(np.abs(step)) < tol:
                break
        mu = np.exp(X @ beta)
        tau = profile_tau(mu)
        tau_moved = (abs(np.log(tau) - np.log(tau_old)) > 1e-6
                     if np.isfinite(tau) and np.isfinite(tau_old)
                     else np.isfinite(tau) != np.isfinite(tau_old))
        if np.max(np.abs(beta - beta_old)) < 1e-9 and not tau_moved:
            converged = True
            break

    mu = np.exp(X @ beta)
    p = 1.0 / (1.0 + mu / tau)
    curvature = mu * p * (1.0 + np.where(np.isinf(tau), 0.0,
                                         (f - mu) / (tau + mu)))
    obs_info = (X * curvature[:, None]).T @ X
    cov = np.linalg.inv(obs_info)
    names = tuple(f"beta{k}" for k in range(q))
    return MleResult(beta=beta, cov_beta=cov, tau=tau,
                     loglik=_nb_loglik(f, mu, tau), iterations=it,
                     converged=converged, param_names=names)


# --------------------------------------------------------------------------- #
# Monte Carlo harness
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class McConfig:
    """One Monte Carlo study: scenario, size, seed, methods, parameters."""

    scenario: str
    n: int
    replicates: int
    seed: int
    methods: tuple = ()
    params: dict = field(default_factory=dict)
    keep_details: bool = False

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise InputError(f"unknown scenario {self.scenario!r}")
        if self.n < 10:
            raise InputError("scenarios need n >= 10 subjects")
        if self.replicates < 1:
            raise InputError("need at least one replicate")
        if not self.methods:
            object.__setattr__(self, "methods", _DEFAULT_METHODS[self.scenario])


@dataclass(frozen=True)
class McRow:
    method: str
    param: str
    est: float
    asy: float
    emp: float | None
    failures: int


@dataclass(frozen=True)
class McReport:
    """Aggregated Monte Carlo results, one row per (method, parameter).

    ``details`` (kept only when requested) holds the raw per-replicate
    fits as a tuple of {method: (estimates, reported variances) or None};
    it is never serialised.
    """

    scenario: str
    n: int
    replicates: int
    seed: int
    rows: tuple
    invalid: bool
    extras: dict = field(default_factory=dict)
    details: tuple | None = None

    def to_json(self, path) -> None:
        payload = {
            "scenario": self.scenario, "n": self.n,
            "replicates": self.replicates, "seed": self.seed,
            "invalid": self.invalid,
            "extras": {k: v for k, v in sorted(self.extras.items())},
            "rows": [dataclasses.asdict(r) for r in self.rows],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("scenario,n,method,param,est,asy,emp,failures\n")
            for r in self.rows:
                emp = "" if r.emp is None else repr(r.emp)
                fh.write(f"{self.scenario},{self.n},{r.method},{r.param},"
                         f"{r.est!r},{r.asy!r},{emp},{r.failures}\n")

    def summary(self) -> str:
        lines = [f"scenario={self.scenario} n={self.n} M={self.replicates} "
                 f"seed={self.seed}" + (" [INVALID]" if self.invalid else "")]
        lines.append(f"{'method':<14}{'param':<8}{'Est.':>12}{'Asy.':>14}{'Emp.':>14}"
                     f"{'fail':>6}")
        for r in self.rows:
            emp = "--" if r.emp is None else f"{r.emp:.6g}"
            lines.append(f"{r.method:<14}{r.param:<8}{r.est:>12.4f}"
                         f"{r.asy:>14.6g}{emp:>14}{r.failures:>6}")
        for key, val in sorted(self.extras.items()):
            lines.append(f"{key} = {val:.6g}")
        return "\n".join(lines)


def _scenario_dataset(config: McConfig, rep: int):
    p = config.params
    rng = make_rng(config.seed, rep)
    if config.scenario == "nb":
        return gen_nb_scenario(config.n, rng, tau=p.get("tau", 10.0),
                               beta0=p.get("beta0", 3.0), beta1=p.get("beta1", 3.0),
                               a=p.get("a", 0.0), b=p.get("b", 1.0))
    if config.scenario == "linear":
        d = gen_linear_exogenous(config.n, rng, beta=p.get("beta", 1.0),
                                 sigma_x=p.get("sigma_x", 1.0),
                                 sigma_eps=p.get("sigma_eps", 1.0))
        return linear_pair_data(d)
    if config.scenario == "icc":
        d = gen_icc_ratings(config.n, p.get("raters", 4), rng,
                            mu=p.get("mu", 0.0),
                            sigma_b2=p.get("sigma_b2", 1.0),
                            sigma_bg2=p.get("sigma_bg2", 0.3),
                            sigma_e2=p.get("sigma_e2", 0.7))
        return d
    d = gen_mww_probit(config.n, rng, beta=p.get("beta", 1.0))
    return mww_pair_data(d)


def _fit_method(method: str, dataset, config: McConfig):
    """Fit one estimator; returns (param names, estimates, reported variances)."""
    fitcfg = FitConfig()
    if method == "icc":
        res = fit_icc(dataset.ratings, fitcfg)
        return res.param_names, res.beta, np.diag(res.cov_beta)
    if method == "mle:nb":
        res = nb_working_mle(dataset)
        if not res.converged:
            raise NonConvergence("working likelihood did not converge")
        return res.param_names, res.beta, np.diag(res.cov_beta)
    if not method.startswith("ugee:"):
        raise InputError(f"unknown method {method!r}")
    raw = method.split(":", 1)[1]
    wv_kind = {"const": "constant"}.get(raw, raw)
    if config.scenario == "nb":
        model = FrmModel(link="exp", working_variance=WorkingVariance(wv_kind),
                         intercept=True)
    elif config.scenario == "linear":
        model = FrmModel(link="identity", working_variance=WorkingVariance(wv_kind),
                         intercept=False)
    elif config.scenario == "mww":
        model = FrmModel(link="probitc", working_variance=WorkingVariance(wv_kind),
                         intercept=False)
    else:
        raise InputError(f"method {method!r} does not apply to scenario "
                         f"{config.scenario!r}")
    res = adaptive_fit(model, dataset, fitcfg)
    return res.param_names, res.beta, np.diag(res.cov_beta)


def _one_replicate(config: McConfig, rep: int):
    dataset = _scenario_dataset(config, rep)
    out = {}
    for method in config.methods:
        try:
            out[method] = _fit_method(method, dataset, config)
        except Exception:  # noqa: BLE001 - failures are counted, not fatal
            out[method] = None
    return out


def run_monte_carlo(config: McConfig) -> McReport:
    """Run the study and aggregate Est / Asy / Emp per method and parameter.

    Replicate r uses the independent stream (seed, r), so results do not
    depend on execution order.  Replicates where a method
    fails are excluded from that method's aggregates and counted.  The
    report is flagged invalid when any method loses more than 10% of
    replicates.
    """
    results = [_one_replicate(config, r) for r in range(config.replicates)]

    rows: list[McRow] = []
    invalid = False
    for method in config.methods:
        fits = [res[method] for res in results if res[method] is not None]
        failures = config.replicates - len(fits)
        if failures > 0.10 * config.replicates:
            invalid = True
        if not fits:
            rows.append(McRow(method, "-", float("nan"), float("nan"), None,
                              failures))
            continue
        names = fits[0][0]
        est = np.array([fit[1] for fit in fits])
        asy = np.array([fit[2] for fit in fits])
        for j, name in enumerate(names):
            emp = float(np.var(est[:, j], ddof=1)) if len(fits) >= 2 else None
            rows.append(McRow(method, name, float(est[:, j].mean()),
                              float(asy[:, j].mean()), emp, failures))

    extras = {}
    if config.scenario == "linear":
        p = config.params
        target = p.get("sigma_eps", 1.0) ** 2 / p.get("sigma_x", 1.0) ** 2
        for row in rows:
            if row.method.startswith("ugee") and row.emp is not None:
                extras["n_times_emp"] = config.n * row.emp
                extras["reference_variance"] = target
                break
    if config.scenario == "icc":
        p = config.params
        d = gen_icc_ratings(10, p.get("raters", 4), make_rng(config.seed, 0),
                            sigma_b2=p.get("sigma_b2", 1.0),
                            sigma_bg2=p.get("sigma_bg2", 0.3),
                            sigma_e2=p.get("sigma_e2", 0.7))
        extras["true_rho"] = d.true_rho
    details = None
    if config.keep_details:
        details = tuple(
            {m: (None if res[m] is None else (res[m][1], res[m][2]))
             for m in config.methods}
            for res in results)
    return McReport(scenario=config.scenario, n=config.n,
                    replicates=config.replicates, seed=config.seed,
                    rows=tuple(rows), invalid=invalid, extras=extras,
                    details=details)
