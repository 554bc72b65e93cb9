"""Data generators, the working MLE and the Monte Carlo harness.

Each scenario generates one dataset per replicate from an independent
counter-based random stream (Philox keyed by (seed, replicate)), fits the
requested estimators, and aggregates three columns per parameter: the mean
estimate (est), the mean of the reported variances (asy) and the empirical
variance of the estimates across replicates (emp).

``SCENARIOS`` defines each scenario in one row.  A study's parameters are
its generator's keyword arguments.  Methods: ``ugee:<variance>`` (a key of
``VARIANCE_FLAGS``) for nb, linear and mww, ``mle:nb`` for nb, ``icc`` for
icc; any other parameter or method is an input error.  ``mle:nb`` is
``nb_working_mle``: the ``ugee:nb`` equations with an intercept, solved on
the fit's binding and worker set, alternated with a profile-likelihood
step for the dispersion, its count-likelihood sums passes of that binding.

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
import inspect
import json
import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import EvaluationError, InputError, NonConvergence, SingularInformation
from .fit import (ADAPTIVE_MAX_ROUNDS, NB_TAU_MAX, FitConfig, PairData, _bind,
                  _check_conditioning, _chunk_mean, _nuisance, _solve,
                  _subject_pairs, adaptive_fit, fit_icc)
from .kernels import Kernel
from .model import (VARIANCE_FLAGS, FrmModel, PairCovariate, WorkingVariance,
                    _integer_setting, pair_covariate_matrix)
from .ustat import (_one_blas_thread, _serial_reductions, _usable_cpus, chunk_slices,
                    pair_chunks, pair_count)


# the largest mean count that ``gen_nb_scenario`` draws: numpy's Poisson
# draw refuses means above about 9.22e18
NB_MEAN_MAX = 9.2e18


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

def _rng(seed_or_rng) -> np.random.Generator:
    """A generator as given, or ``make_rng`` of a seed."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return make_rng(seed_or_rng)


def _check_finite(**params) -> None:
    """InputError naming the first of the generator parameters ``params``
    (numbers or arrays) that is not finite."""
    for name, value in params.items():
        if not np.all(np.isfinite(value)):
            raise InputError(f"{name} must be finite, got {value}")


def gen_nb_scenario(n: int, seed_or_rng, tau: float = 10.0, beta0: float = 3.0,
                    beta1: float = 3.0, a: float = 0.0, b: float = 1.0) -> PairData:
    """Overdispersed pairwise counts with a log-linear mean in x1 + x2.

    Counts are drawn through the gamma mixture: rate ~ Gamma(shape tau,
    scale mean/tau), f ~ Poisson(rate), giving Var(f|x) = mean (1 + mean/tau).
    One independent draw per unordered pair.  A mean above ``NB_MEAN_MAX``
    on the covariate range [2a, 2b], or a rate drawn above what the
    Poisson draw takes, is an InputError.
    """
    _check_finite(tau=tau, beta0=beta0, beta1=beta1, a=a, b=b)
    if tau <= 0 or b <= a:
        raise InputError("need tau > 0 and b > a")
    top = beta0 + max(2 * a * beta1, 2 * b * beta1)   # the largest log mean
    if top > math.log(NB_MEAN_MAX):
        raise InputError(f"beta0={beta0:g} and beta1={beta1:g} put the mean count "
                         f"exp(beta0 + beta1 x) at up to exp({top:g}) for x in "
                         f"[{2 * a:g}, {2 * b:g}]; the count draw takes means up "
                         f"to {NB_MEAN_MAX:g}")
    rng = _rng(seed_or_rng)
    xs = rng.uniform(a, b, size=n)
    x = np.empty((pair_count(n), 1))
    for sl, i1, i2 in pair_chunks(n):
        x[sl] = pair_covariate_matrix(PairCovariate("sum"), xs[:, None], i1, i2)
    # all N rates, then all N counts, drawn a chunk at a time into f: the
    # same stream as one gamma and one poisson draw over all pairs
    f = np.empty(len(x))
    slices = chunk_slices(len(x))
    for sl in slices:
        f[sl] = rng.gamma(shape=tau, scale=np.exp(beta0 + beta1 * x[sl, 0]) / tau)
    for sl in slices:
        try:
            f[sl] = rng.poisson(f[sl])
        except ValueError:   # a rate far out in the gamma tail of a small tau
            raise InputError(f"a gamma rate drawn with tau={tau:g} is too large "
                             f"for the count draw; raise tau or lower the mean "
                             f"(beta0={beta0:g}, beta1={beta1:g})") from None
    return PairData(n=n, x=x, f=f)


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
    _check_finite(beta=beta, sigma_x=sigma_x, sigma_eps=sigma_eps)
    if sigma_x <= 0 or sigma_eps <= 0:
        raise InputError("scale parameters must be positive")
    rng = _rng(seed_or_rng)
    x = rng.normal(0.0, sigma_x, size=n)
    y = beta * x + rng.normal(0.0, sigma_eps, size=n)
    return LinearData(x, y, beta, sigma_x, sigma_eps)


def linear_pair_data(d: LinearData) -> PairData:
    n = len(d.x)
    xy = np.stack([d.x, d.y], axis=1)
    x, f = np.empty((pair_count(n), 1)), np.empty(pair_count(n))
    for sl, i1, i2 in pair_chunks(n):
        diff = pair_covariate_matrix(PairCovariate("difference"), xy, i1, i2)
        x[sl, 0], f[sl] = diff[:, 0], diff[:, 1]
    return PairData(n=n, x=x, f=f)


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
    _check_finite(mu=mu, sigma_b2=sigma_b2, sigma_bg2=sigma_bg2, sigma_e2=sigma_e2,
                  gamma=0.0 if gamma is None else gamma)
    if min(sigma_b2, sigma_bg2, sigma_e2) < 0:
        raise InputError("variance components must be nonnegative")
    K = _integer_setting("raters", raters)
    if K < 2:
        raise InputError("need at least 2 raters")
    if gamma is None:
        gamma = np.zeros(K)
    gamma = np.asarray(gamma, dtype=float)
    if gamma.size != K or abs(gamma.sum()) > 1e-9:
        raise InputError("rater effects must have length K and sum to zero")
    rng = _rng(seed_or_rng)
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


def gen_mww_probit(n: int, seed_or_rng, beta=1.0) -> MwwData:
    """Subject outcomes whose pairwise rank indicator follows a probit law.

    Y = beta'X + eps with eps ~ N(0, 1/2) and X ~ N(0, I): the difference
    of two noise terms is standard normal, so
    P(Y1 <= Y2 | X) = Phi(-beta'(x1 - x2)) exactly.
    """
    _check_finite(beta=beta)
    rng = _rng(seed_or_rng)
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    x = rng.normal(0.0, 1.0, size=(n, beta.size))
    y = x @ beta + rng.normal(0.0, np.sqrt(0.5), size=n)
    return MwwData(x, y, beta)


def mww_pair_data(d: MwwData) -> PairData:
    return _subject_pairs(Kernel.mww(), d.y[:, None], d.x, PairCovariate("difference"))


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


# the working MLE's tau interval in log tau, the Newton step whose end is
# the root, and its solves: to an equation norm of 1e-13 of J / N's largest
# diagonal entry, as the norm's rounding floor grows with that information
# (past 1e-12 from mean counts of about 1e4 near the Poisson limit), in up
# to 400 steps (scoring on 66 pairs at tau = 0.14 converges at rate 0.85)
_LOG_TAU_BOUNDS = (float(np.log(1e-3)), float(np.log(NB_TAU_MAX)))
_LOG_TAU_TOL = 1e-5
_MLE_REL_TOL = 1e-13
# the dispersion from which the nb profile score takes its excess form
NB_EXCESS_TAU = 1e3


def _profile_root(score, u: float) -> float:
    """The root in log tau of ``score(u)`` (the score and its Newton slope)
    within ``_LOG_TAU_BOUNDS``, from ``u`` on: Newton steps inside the
    interval known to hold it, the end of one below ``_LOG_TAU_TOL`` being
    the root; other steps bisect that interval or, before the score changes
    sign, move 0.1, 0.2, 0.4, ... towards it.  A score that keeps its sign
    to the bound puts the root there."""
    lo, hi = _LOG_TAU_BOUNDS
    u = float(np.clip(u, lo, hi))
    below = above = None   # the points where the score was positive, negative
    width = 0.1
    for _ in range(100):
        s, slope = score(u)
        if s == 0 or u == (hi if s > 0 else lo):
            return u
        below, above = (u, above) if s > 0 else (below, u)
        step = -s / slope if slope else math.inf
        if (lo if below is None else below) < u + step < (hi if above is None else above):
            if abs(step) <= _LOG_TAU_TOL:
                return u + step
        elif below is not None and above is not None:
            step = 0.5 * (below + above) - u
        else:
            step = float(np.clip(u + np.copysign(width, s), lo, hi)) - u
            width *= 2.0
        u += step
    return u


def _profile_part(model: FrmModel, data: PairData, beta, tau: float, sl: slice):
    """One chunk's pair part of d loglik / d tau in ``_count_score``'s form
    and its tau-derivative, at means mu."""
    mu, f = _chunk_mean(model, data, beta, sl)[2], data.f[sl]
    if tau < NB_EXCESS_TAU:
        d = tau + mu
        return (np.sum((mu - f) / d - np.log1p(mu / tau)),
                np.sum(((f - mu) / d + mu / tau) / d))
    z = (f - mu) / (tau + mu)
    return np.sum(np.log1p(z) - z), np.sum(z * z / (tau + f))


def _likelihood_part(model: FrmModel, data: PairData, beta, tau: float, sl: slice):
    """One chunk's count log-likelihood at means mu, p = 1 / (1 + mu / tau),
    and in the Poisson limit, less their log f! terms."""
    from scipy.special import gammaln

    mu, f = _chunk_mean(model, data, beta, sl)[2], data.f[sl]
    p = 1.0 / (1.0 + mu / tau)
    return (np.sum(gammaln(f + tau) - gammaln(tau) + tau * np.log(p) + f * np.log1p(-p)),
            np.sum(f * np.log(mu) - mu))


def _count_score(counts: np.ndarray, weights: np.ndarray, tau: float) -> float:
    """The count part of the profile score d loglik / d tau, psi(f + tau) -
    psi(tau), over the distinct ``counts`` of f with their frequencies.
    The score's O(1 / tau) terms cancel to O(1 / tau^2), rounding noise
    near NB_TAU_MAX, so from NB_EXCESS_TAU on this part is psi(f + tau) -
    psi(tau) - log1p(f / tau), the series psi(x) - log(x) = -1/(2x) -
    1/(12x^2) + 1/(120x^4) - ... differenced term by term (the first
    omitted term is below 1e-16 of it), and the pair part log1p(z) - z."""
    if tau < NB_EXCESS_TAU:
        from scipy.special import digamma

        return float(weights @ (digamma(counts + tau) - digamma(tau)))
    # with ia = 1/tau and ib = 1/(f + tau), ia - ib = f ia ib and the excess
    # is (ia - ib)/2 + (ia^2 - ib^2)/12 - (ia^4 - ib^4)/120
    ia = 1.0 / tau
    ib = 1.0 / (counts + tau)
    return float(weights @ (counts * ia * ib * (
        0.5 + (ia + ib) * (1.0 - (ia * ia + ib * ib) / 10.0) / 12.0)))


def _nb_profile_tau(bound, beta: np.ndarray, tau_start: float, counts: np.ndarray,
                    weights: np.ndarray) -> tuple[float, float]:
    """The dispersion maximising the count likelihood at ``beta``, and the
    log-likelihood there less its log f! terms: the root of d loglik / d
    log tau = tau S, S the profile score, whose slope is tau (S + dS / d log
    tau), from ``tau_start`` on, by passes of ``bound``."""
    def score(u):   # the count part's slope in log tau is a difference quotient
        tau = float(np.exp(u))
        s, slope = bound.reduce(_profile_part, beta, tau)
        count = _count_score(counts, weights, tau)
        s += count
        ahead = _count_score(counts, weights, float(np.exp(u + 1e-6)))
        return s, s + tau * slope + (ahead - count) / 1e-6

    tau = float(np.exp(_profile_root(score, np.log(tau_start))))
    # the sentinel sums pair by pair: sums of hoisted or per-count terms reach
    # 1e9 near NB_TAU_MAX, and their rounding swamps the 1e-3 margin
    at_tau, limit = bound.reduce(_likelihood_part, beta, tau)
    if limit >= at_tau - 1e-3:
        return float("inf"), limit
    return tau, at_tau


def nb_working_mle(data: PairData) -> MleResult:
    """Maximise the overdispersed-count likelihood treating pairs as independent.

    Its beta equations are those of ``FrmModel("exp", WorkingVariance("nb"))``,
    so it runs on one binding of that model, every pass on the fit's worker
    set.  Each round solves them at fixed tau with the solver of
    ``solve_ugee``, then sets tau to the root in log tau over [1e-3,
    NB_TAU_MAX] of the profile score (``_nb_profile_tau``)

        sum[psi(f + tau) - psi(tau) + log(tau / (tau + mu)) + (mu - f) / (tau + mu)],

    or to inf (variance equals mean) when the Poisson-limit log-likelihood,
    summed pair by pair, is within 1e-3 of that at the root.  The
    covariance is the inverse observed information for beta with tau held
    fixed, a benchmark convention.  ``iterations`` counts the rounds;
    ``converged`` is false when beta still moves by 1e-9 or log tau by 1e-6
    after ``ADAPTIVE_MAX_ROUNDS``; a solve that does not converge raises
    NonConvergence.  All-zero counts, whose likelihood grows without bound
    as the intercept falls, are an EvaluationError, as is an information
    matrix that turns singular on the way to a maximum that does not exist
    (a count whose covariate separates it from all others).
    """
    from scipy.special import gammaln   # on use: its import takes about 0.35 s

    f = data.f
    if np.any(f < 0):
        raise InputError("count likelihood needs nonnegative responses")
    if not np.any(f > 0):
        raise EvaluationError("count likelihood has no maximum: every count is zero")
    counts, weights = np.unique(f, return_counts=True)
    try:
        with _bind(FrmModel("exp", WorkingVariance("nb")), data) as bound:
            beta = bound.beta
            # moment start for the dispersion, at the constant mean of the counts
            mu = float(np.mean(f))
            excess = float(np.sum((f - mu) ** 2 - mu))
            tau = float(np.clip(len(f) * mu * mu / excess, 1e-2, NB_TAU_MAX)) \
                if excess > 0 else float("inf")
            for it in range(1, ADAPTIVE_MAX_ROUNDS + 1):
                beta_old, tau_old = beta, tau
                solve = bound._replace(beta=beta, value=tau)
                sums = solve.evaluate(beta)   # the solve's start, passed on to it
                tol = _MLE_REL_TOL * float(np.max(np.diag(sums[2]))) / bound.n_pairs
                beta = _solve(solve, FitConfig(tol_eq=tol, max_iter=400), sums)[0].beta
                start = _nuisance("nb", bound, beta) if it == 1 else tau
                tau, loglik = _nb_profile_tau(bound, beta, start, counts, weights)
                tau_moved = (abs(np.log(tau) - np.log(tau_old)) > 1e-6
                             if np.isfinite(tau) and np.isfinite(tau_old)
                             else np.isfinite(tau) != np.isfinite(tau_old))
                converged = bool(np.max(np.abs(beta - beta_old)) < 1e-9) and not tau_moved
                if converged:
                    break
            info = bound._replace(value=tau).evaluate(beta)[2]   # the Newton steps' J
            _check_conditioning(info, "information matrix")
    except SingularInformation as exc:
        raise EvaluationError("count likelihood has no maximum in reach: its "
                              "information matrix is singular") from exc
    return MleResult(beta=beta, cov_beta=np.linalg.inv(info), tau=tau,
                     loglik=loglik - float(weights @ gammaln(counts + 1.0)),
                     iterations=it, converged=converged, param_names=bound.names)


# --------------------------------------------------------------------------- #
# Monte Carlo harness
# --------------------------------------------------------------------------- #

class Scenario(NamedTuple):
    """One row of ``SCENARIOS``: everything that defines a study scenario.

    ``generator`` and ``pair_data`` name functions of this module and are
    looked up when a replicate runs, so wrappers installed on the module's
    attributes (tracing, profiling) see the calls.
    """

    generator: str          # gen_*(n, seed_or_rng, **params) -> record
    pair_data: str | None   # record -> PairData; None fits the record as is
    link: str | None        # link of the ugee:<variance> methods; None: none apply
    intercept: bool
    methods: tuple          # default methods; the only non-ugee ones that apply
    defaults: dict = {}     # generator arguments its signature leaves unset

    def parameters(self) -> frozenset:
        """The generator's keyword arguments, the names ``McConfig.params`` may use."""
        names = inspect.signature(globals()[self.generator]).parameters
        return frozenset(names) - {"n", "seed_or_rng"}

    def applies(self, method: str) -> bool:
        if method.startswith("ugee:"):
            return self.link is not None and method[5:] in VARIANCE_FLAGS
        return method in self.methods


SCENARIOS = {
    "nb": Scenario("gen_nb_scenario", None, "exp", True,
                   ("mle:nb", "ugee:nb", "ugee:poisson", "ugee:const")),
    "linear": Scenario("gen_linear_exogenous", "linear_pair_data", "identity",
                       False, ("ugee:const",)),
    "icc": Scenario("gen_icc_ratings", None, None, False, ("icc",),
                    {"raters": 4}),
    "mww": Scenario("gen_mww_probit", "mww_pair_data", "probitc", False,
                    ("ugee:bernoulli",)),
}


@dataclass(frozen=True)
class McConfig:
    """One Monte Carlo study: scenario, size, seed, methods (each at most
    once), and parameters, which are passed to the scenario's generator
    unchanged."""

    scenario: str
    n: int
    replicates: int
    seed: int
    methods: tuple = ()
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise InputError(f"unknown scenario {self.scenario!r}")
        if _integer_setting("n", self.n) < 10:
            raise InputError("scenarios need n >= 10 subjects")
        if _integer_setting("replicates", self.replicates) < 1:
            raise InputError("need at least one replicate")
        if _integer_setting("seed", self.seed) < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        row = SCENARIOS[self.scenario]
        taken = row.parameters()
        for name in self.params:
            if name not in taken:
                raise InputError(f"scenario {self.scenario!r} takes no parameter "
                                 f"{name!r}; {row.generator} takes "
                                 f"{', '.join(sorted(taken))}")
        if not self.methods:
            object.__setattr__(self, "methods", row.methods)
        for k, method in enumerate(self.methods):
            if method in self.methods[:k]:
                raise InputError(f"method {method!r} is given twice")
            if not row.applies(method):
                raise InputError(f"method {method!r} does not apply to scenario "
                                 f"{self.scenario!r}")


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

    ``details`` holds the raw per-replicate fits as a tuple of
    {method: (estimates, reported variances) or None}; it is never
    serialised, and reports compare equal by their other fields.
    """

    scenario: str
    n: int
    replicates: int
    seed: int
    rows: tuple
    invalid: bool
    extras: dict = field(default_factory=dict)
    details: tuple = field(default=(), compare=False)

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
    """Replicate ``rep``'s dataset, the record its scenario's generator returns."""
    row = SCENARIOS[config.scenario]
    return globals()[row.generator](n=config.n, seed_or_rng=make_rng(config.seed, rep),
                                    **{**row.defaults, **config.params})


def _fit_method(method: str, data, row: Scenario):
    """Fit one estimator; returns (param names, estimates, reported variances)."""
    if method == "icc":
        res = fit_icc(data.ratings, FitConfig())
    elif method == "mle:nb":
        res = nb_working_mle(data)
        if not res.converged:
            raise NonConvergence("working likelihood did not converge")
    else:
        wv = WorkingVariance(VARIANCE_FLAGS[method.split(":", 1)[1]])
        model = FrmModel(link=row.link, working_variance=wv, intercept=row.intercept)
        res = adaptive_fit(model, data, FitConfig())
    return res.param_names, res.beta, np.diag(res.cov_beta)


def _one_replicate(config: McConfig, rep: int):
    """Replicate ``rep``'s record and each method's fit (None when it failed)."""
    row = SCENARIOS[config.scenario]
    record = _scenario_dataset(config, rep)
    data = record if row.pair_data is None else globals()[row.pair_data](record)
    fits = {}
    for method in config.methods:
        try:
            fits[method] = _fit_method(method, data, row)
        except (EvaluationError, NonConvergence, SingularInformation):
            fits[method] = None  # counted, not fatal
    return record, fits


def _replicate_fits(config: McConfig, rep: int) -> dict:
    """Replicate ``rep``'s fits without its record: what a pool worker returns."""
    return _one_replicate(config, rep)[1]


def _later_fits(config: McConfig) -> list:
    """The fits of replicates 1 .. M-1 in replicate order, from a pool of
    forked processes, one per usable CPU but at most M - 1, or in this
    process with one such CPU or where ``fork`` is not available.

    The workers are forked, not spawned: they inherit the modules that
    replicate 0 loaded in this process (scipy's among them) and the BLAS
    thread count set by ``_one_blas_thread``.  Their reductions stay in
    them, since the pool already keeps every usable CPU busy.  Leaving the
    pool joins every worker, also when a replicate raised.
    """
    # imported here, not at module level: a process pool's modules cost
    # about 30 ms of start-up that a CLI fit would pay
    import multiprocessing

    workers = min(_usable_cpus(), config.replicates - 1)
    reps = range(1, config.replicates)
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [_replicate_fits(config, rep) for rep in reps]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_serial_reductions) as pool:
        return list(pool.map(_replicate_fits, repeat(config), reps))


def run_monte_carlo(config: McConfig) -> McReport:
    """Run the study and aggregate Est / Asy / Emp per method and parameter.

    Replicate r uses the independent stream (seed, r), so results do not
    depend on execution order.  Replicate 0 runs in this process; the others
    run on one process per usable CPU (at most M - 1) and come back in
    replicate order.  All of them run with numpy's BLAS on one thread, so
    the report's bytes depend neither on the number of CPUs nor on the
    host's BLAS thread setting.  Replicates where a method fails to
    evaluate, converge or invert its information are excluded from that
    method's aggregates and counted; any other exception propagates.  The
    report is flagged invalid when any method loses more than 10% of
    replicates.
    """
    with _one_blas_thread():
        truth, first = _one_replicate(config, 0)
        results = [first] + _later_fits(config)

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
        for row in rows:
            if row.method.startswith("ugee") and row.emp is not None:
                extras["n_times_emp"] = config.n * row.emp
                extras["reference_variance"] = truth.sigma_eps ** 2 / truth.sigma_x ** 2
                break
    if config.scenario == "icc":
        extras["true_rho"] = truth.true_rho
    details = tuple({m: (None if res[m] is None else (res[m][1], res[m][2]))
                     for m in config.methods}
                    for res in results)
    return McReport(scenario=config.scenario, n=config.n,
                    replicates=config.replicates, seed=config.seed,
                    rows=tuple(rows), invalid=invalid, extras=extras,
                    details=details)
