"""Estimating-equation solver for pairwise-attribute regression.

The estimator solves

    sum over pairs of  D_i' V_i^-1 (f_i - h_i(beta))  =  0

by Fisher scoring with step halving, where f_i is the pairwise response,
h_i the model mean, D_i its beta-gradient and V_i a working variance.
Because every subject appears in n-1 pairs the pair scores are dependent;
the covariance of the estimate is the sandwich built from per-subject
projected scores (see ``ustat``), rescaled by the subject count.

Sandwich small-sample correction
--------------------------------
The covariance of the solution decomposes into a projection component,
driven by the per-subject conditional means of the pair scores, plus a
per-pair noise floor Z2 / C(n,2) with Z2 the mean outer product of pair
scores.  The raw projected-score covariance Sigma_U conflates the two: it
carries the floor at 2x strength, so it roughly doubles the reported
variance whenever responses are (close to) independent across pairs.
The reported covariance therefore estimates the two components separately,

    Cov(beta) = psd[ B^-1 (Sigma_U / n - 2 Z2 / C(n,2)) B^-1 ]
                + B^-1 (Z2 / C(n,2)) B^-1,

where psd[.] projects onto the positive-semidefinite cone.  The clipped
term estimates the projection component, which is a covariance of
conditional expectations and hence PSD by construction; enforcing that
known constraint stabilises it when it is near zero.  When the projection
dominates, the floor and the clipping are O(1/n) relative corrections and
the estimate agrees with the plain formula; when responses are
pair-independent the floor alone survives, which is the correct limit.
The plain uncorrected form is available via
``FitConfig.sandwich_correction = False``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import EvaluationError, InputError, NonConvergence, SingularInformation
from .kernels import Kernel, pairwise_responses
from .links import link_mean_deriv
from .model import (FrmModel, IccModel, MeanVarianceModel, augment,
                    pair_covariate_matrix, stack_subjects, variance_eval)
from .ustat import (CHUNK_PAIRS, PairScoreTable, chunk_slices, chunked_reduce,
                    enumerate_pairs, interleaved_accumulate, pair_count,
                    projection_variance)

COND_LIMIT = 1e12
NB_TAU_MAX = 1e8
NB_TAU_MIN = 1e-8


# --------------------------------------------------------------------------- #
# Regression-ready pair data
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class PairData:
    """A complete pairwise dataset: responses and covariates for all pairs.

    Rows are canonicalised to the lexicographic pair order of
    ``enumerate_pairs(n)`` on construction; order-dependent responses are
    understood as evaluated on the ordered pair (i1 < i2).
    """

    n: int
    i1: np.ndarray
    i2: np.ndarray
    x: np.ndarray
    f: np.ndarray
    subject_ids: tuple | None = None

    def __post_init__(self):
        i1 = np.asarray(self.i1, dtype=np.int64)
        i2 = np.asarray(self.i2, dtype=np.int64)
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        f = np.asarray(self.f, dtype=float)
        if x.shape[0] != len(i1) and x.size == 0:
            x = np.empty((len(i1), 0))
        if len(i1) != len(i2) or x.shape[0] != len(i1) or f.shape[0] != len(i1):
            raise InputError("pair arrays have inconsistent lengths")
        if self.n < 2:
            raise InputError("need at least 2 subjects")
        if np.any(i1 >= i2) or (len(i1) and (i1.min() < 0 or i2.max() >= self.n)):
            raise InputError("pair indices must satisfy 0 <= i1 < i2 < n")
        if len(i1) != pair_count(self.n):
            raise InputError(
                f"incomplete pair set: {len(i1)} of {pair_count(self.n)} pairs "
                f"for n={self.n}")
        key = i1 * np.int64(self.n) + i2
        if len(np.unique(key)) != len(key):
            raise InputError("duplicate pair in dataset")
        order = np.argsort(key, kind="stable")
        object.__setattr__(self, "i1", i1[order])
        object.__setattr__(self, "i2", i2[order])
        object.__setattr__(self, "x", x[order])
        object.__setattr__(self, "f", f[order])
        if not np.all(np.isfinite(self.x)) or not np.all(np.isfinite(self.f)):
            raise InputError("pair data must be finite")

    @property
    def n_pairs(self) -> int:
        return len(self.i1)


def build_pairs(subjects, kernel: Kernel, pair_covariate=None,
                pseudocount: str | None = None, eps: float = 0.0) -> PairData:
    """Turn subject records into a complete pairwise dataset.

    ``pseudocount`` (``"half-min"`` or ``"additive"`` with ``eps``) closes
    each outcome row to a composition first; required when compositional
    outcomes contain zeros.
    """
    from .kernels import apply_pseudocount

    ids, Y, X = stack_subjects(subjects)
    if pseudocount is not None:
        Y = np.vstack([apply_pseudocount(row, pseudocount, eps).values for row in Y])
    pairs = enumerate_pairs(len(ids))
    i1, i2 = pairs[:, 0], pairs[:, 1]
    f = pairwise_responses(kernel, Y, i1, i2)
    if pair_covariate is not None:
        x = pair_covariate_matrix(pair_covariate, X, i1, i2)
    else:
        x = np.empty((len(i1), 0))
    return PairData(n=len(ids), i1=i1, i2=i2, x=x, f=f, subject_ids=tuple(ids))


# --------------------------------------------------------------------------- #
# Configuration and results
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class FitConfig:
    """Solver knobs; the defaults suit datasets up to a few thousand subjects.

    ``tol_eq`` bounds the sup-norm of the estimating equations divided by
    the pair count; ``tol_step`` the sup-norm of the parameter update.
    ``adaptive_tol`` bounds the (scaled) change of the working-variance
    nuisance between rounds.
    """

    init_beta: np.ndarray | None = None
    tol_step: float = 1e-8
    tol_eq: float = 1e-8
    max_iter: int = 100
    max_halvings: int = 20
    adaptive_max_rounds: int = 25
    adaptive_tol: float = 1e-6
    chunk: int = CHUNK_PAIRS
    sandwich_correction: bool = True

    def __post_init__(self):
        if min(self.tol_step, self.tol_eq, self.adaptive_tol) <= 0:
            raise InputError("tolerances must be positive")
        if self.max_iter < 1 or self.adaptive_max_rounds < 1:
            raise InputError("iteration limits must be >= 1")
        if self.chunk < 1:
            raise InputError("chunk size must be >= 1")


@dataclass(frozen=True)
class FitResult:
    """Solution of the estimating equations with its sandwich covariance.

    ``cov_beta`` is the covariance of the estimate itself (the asymptotic
    sandwich divided by the subject count), ``b_matrix`` the per-pair mean
    of D'V^-1 D, and ``sigma_u`` the uncorrected projected-score
    covariance.
    """

    beta: np.ndarray
    cov_beta: np.ndarray
    b_matrix: np.ndarray
    sigma_u: np.ndarray
    eq_norm: float
    iterations: int
    converged: bool
    n_subjects: int
    n_pairs: int
    nuisance: float | None = None
    nuisance_rounds: int = 0
    flagged_steps: int = 0
    param_names: tuple | None = None

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.cov_beta), 0.0, None))


# --------------------------------------------------------------------------- #
# Assembly of the estimating equations
# --------------------------------------------------------------------------- #

def _check_variances(V: np.ndarray, data: PairData, sl: slice) -> None:
    bad = ~(np.isfinite(V) & (V > 0))
    if np.any(bad):
        k = int(np.argmax(bad)) + (sl.start or 0)
        raise EvaluationError(
            f"nonpositive working variance on pair "
            f"({int(data.i1[k])}, {int(data.i2[k])})",
            pair=(int(data.i1[k]), int(data.i2[k])))


# Every working-variance form V(h) makes the estimating function the exact
# gradient of a quasi-likelihood Q with dQ/dh = (f - h)/V(h).  The scoring
# matrix is positive semidefinite, so the scoring direction is always an
# ascent direction for Q; halving until Q stops decreasing therefore cannot
# stall, unlike halving on ||U||_2 (whose merit the scoring direction may
# increase when the response sits far above the fitted mean).

def _quasi_objective(wv, f: np.ndarray, h: np.ndarray, r: np.ndarray,
                     V: np.ndarray) -> float:
    """Quasi-likelihood Q of one pair chunk; r = f - h and V = V(h)."""
    if wv.kind in ("constant", "userfixed"):
        return float(np.sum(-0.5 * r ** 2 / V))
    if wv.kind == "bernoulli":
        return float(np.sum(f * np.log(h) + (1.0 - f) * np.log(1.0 - h)))
    if wv.kind == "nb" and wv.value is not None and np.isfinite(wv.value):
        tau = wv.value
        return float(np.sum(f * np.log(h / (tau + h)) - tau * np.log(tau + h)))
    # poisson, propmean, and nb in its variance-equals-mean limit
    scale = (wv.value or 1.0) if wv.kind == "propmean" else 1.0
    return float(np.sum(f * np.log(h) - h) / scale)


def _chunk_terms(model: FrmModel, data: PairData, Xa: np.ndarray,
                 beta: np.ndarray, sl: slice):
    """Quasi-objective, pair scores and scoring matrix of one pair chunk.

    The mean, its derivative and the working variance are evaluated once
    and shared by all three.
    """
    xa = Xa[sl]
    eta = xa @ beta
    h, g = link_mean_deriv(model.link, eta)
    if not np.all(np.isfinite(h)):
        k = int(np.argmax(~np.isfinite(h))) + (sl.start or 0)
        raise EvaluationError(
            f"non-finite mean on pair ({int(data.i1[k])}, {int(data.i2[k])})",
            pair=(int(data.i1[k]), int(data.i2[k])), eta=float(eta.max()))
    V = variance_eval(model.working_variance, h, rows=sl)
    _check_variances(V, data, sl)
    f = data.f[sl]
    r = f - h
    s = xa * (g * r / V)[:, None]
    J = (xa * (g * g / V)[:, None]).T @ xa
    return _quasi_objective(model.working_variance, f, h, r, V), s, J


def _pair_pass(model: FrmModel, data: PairData, Xa: np.ndarray,
               beta: np.ndarray, config: FitConfig, sandwich: bool = False):
    """One pass over the pair chunks at ``beta``: the quasi-objective, U and J.

    With ``sandwich`` the pass also returns the per-subject sums of the
    pair scores and Z2 = sum of the scores' outer products.
    """
    def part(sl: slice):
        merit, s, J = _chunk_terms(model, data, Xa, beta, sl)
        if not sandwich:
            return merit, s.sum(axis=0), J
        acc = interleaved_accumulate(data.n, data.i1[sl], data.i2[sl], s)
        return merit, s.sum(axis=0), J, acc, s.T @ s

    return chunked_reduce(part, data.n_pairs, chunk=config.chunk)


def assemble_ugee(model, data: PairData, beta: np.ndarray,
                  config: FitConfig | None = None, return_scores: bool = False):
    """Estimating equations U(beta), scoring matrix J(beta) and, on request,
    the full per-pair score table.

    U = sum_i D_i' V_i^-1 (f_i - h_i)   and   J = sum_i D_i' V_i^-1 D_i,
    accumulated over fixed pair chunks in index order.
    """
    config = config or FitConfig()
    beta = np.asarray(beta, dtype=float)
    if not np.all(np.isfinite(beta)):
        raise InputError("beta must be finite")

    if isinstance(model, (IccModel, MeanVarianceModel)):
        R, V = _moment_responses(model, data)
        _, U, J, s = _moment_assemble(model, R, V, beta)
        if return_scores:
            return U, J, PairScoreTable(data.n, s)
        return U, J

    Xa = augment(data.x, model.intercept)
    if Xa.shape[1] != beta.size:
        raise InputError(f"beta length {beta.size} does not match design "
                         f"dimension {Xa.shape[1]}")
    if not return_scores:
        return _pair_pass(model, data, Xa, beta, config)[1:]
    U = J = None
    scores = []
    for sl in chunk_slices(data.n_pairs, config.chunk):
        _, s, Jc = _chunk_terms(model, data, Xa, beta, sl)
        scores.append(s)
        U, J = (s.sum(axis=0), Jc) if U is None else (U + s.sum(axis=0), J + Jc)
    return U, J, PairScoreTable(data.n, np.vstack(scores))


def _moment_responses(model, data: PairData):
    """Response matrix and empirical diagonal variance of a 2-d model."""
    if isinstance(model, IccModel):
        if data.f.ndim != 2 or data.f.shape[1] != 2:
            raise InputError("rater-agreement model needs two-component responses")
        R = data.f
    else:
        f = data.f if data.f.ndim == 1 else data.f[:, 0]
        R = np.column_stack([f, f * f])
    V = R.var(axis=0, ddof=1)
    if np.any(~np.isfinite(V) | (V <= 0)):
        raise EvaluationError("degenerate pairwise responses: a component has "
                              "zero empirical variance")
    return R, V


def _moment_assemble(model, R: np.ndarray, V: np.ndarray, theta: np.ndarray):
    """Quasi-objective, U, J and the pair scores of a 2-d model."""
    h, D = model.mean_map(theta)
    resid = R - h            # (N, d)
    merit = float(np.sum(-0.5 * resid * resid / V))
    s = (resid / V) @ D      # (N, q)
    U = s.sum(axis=0)
    J = len(R) * D.T @ (D / V[:, None])
    return merit, U, J, s


# --------------------------------------------------------------------------- #
# The scoring iteration
# --------------------------------------------------------------------------- #

def _default_init(model, data: PairData, q: int) -> np.ndarray:
    beta = np.zeros(q)
    if isinstance(model, FrmModel) and model.link == "exp":
        fbar = float(np.mean(data.f))
        if fbar > 0:
            if model.intercept:
                beta[0] = np.log(fbar)
            else:
                x = data.x
                onehot_like = (x.size and np.all((x == 0) | (x == 1))
                               and np.allclose(x.sum(axis=1), 1.0))
                if onehot_like:
                    beta[:] = np.log(fbar)
    return beta


def _collinearity_check(Xa: np.ndarray, intercept: bool) -> None:
    if not intercept or Xa.shape[1] < 2:
        return
    cols = Xa[:, 1:]
    spread = cols.max(axis=0) - cols.min(axis=0)
    if np.any(spread == 0):
        j = int(np.argmax(spread == 0))
        raise SingularInformation(
            f"covariate column {j} is constant across pairs and collinear "
            f"with the intercept")


def _checked_solve(J: np.ndarray, U: np.ndarray) -> np.ndarray:
    cond = np.linalg.cond(J)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularInformation(
            f"scoring matrix is numerically singular (cond={cond:.3g})", cond=cond)
    return np.linalg.solve(J, U)


def _newton(evaluate, beta0: np.ndarray, n_pairs: int, config: FitConfig):
    """Scoring loop; steps are halved while the quasi-objective decreases.

    ``evaluate(beta)`` returns (quasi-objective, U, J) from one pass, so
    the accepted candidate's U and J are already at hand.
    """
    def point(beta):
        m, U, J = evaluate(beta)
        if not np.isfinite(m):
            raise EvaluationError("quasi-objective is not finite")
        return m, U, J

    beta = np.asarray(beta0, dtype=float).copy()
    m, U, J = point(beta)
    iterations = 0
    flagged = 0
    converged = False
    for it in range(1, config.max_iter + 1):
        eq_norm = float(np.max(np.abs(U))) / n_pairs
        if eq_norm <= config.tol_eq:
            converged = True
            break
        step = _checked_solve(J, U)
        lam = 1.0
        accepted = None
        last_err = None
        slack = 1e-10 * (1.0 + abs(m))
        for halving in range(config.max_halvings + 1):
            cand = beta + lam * step
            if not np.all(np.isfinite(cand)):
                lam *= 0.5
                continue
            try:
                m2, U2, J2 = point(cand)
            except EvaluationError as exc:
                last_err = exc
                lam *= 0.5
                continue
            if m2 >= m - slack or halving == config.max_halvings:
                if m2 < m - slack:
                    flagged += 1
                accepted = (cand, m2, U2, J2)
                break
            lam *= 0.5
        if accepted is None:
            raise last_err if last_err is not None else EvaluationError(
                "step halving failed to produce an evaluable iterate")
        prev = beta
        beta, m, U, J = accepted
        iterations = it
        if (np.max(np.abs(beta - prev)) <= config.tol_step
                and float(np.max(np.abs(U))) / n_pairs <= config.tol_eq):
            converged = True
            break
    eq_norm = float(np.max(np.abs(U))) / n_pairs
    if eq_norm <= config.tol_eq:
        converged = True
    return beta, eq_norm, iterations, converged, flagged


def solve_ugee(model, data: PairData, config: FitConfig | None = None) -> FitResult:
    """Solve the weighted pairwise estimating equations by Fisher scoring.

    Raises NonConvergence (carrying the last iterate packaged as a
    ``FitResult`` with its sandwich) when the iteration budget is
    exhausted, and SingularInformation when the scoring matrix
    degenerates.
    """
    config = config or FitConfig()
    return _with_sandwich(model, data, _solve(model, data, config), config)


def _solve(model, data: PairData, config: FitConfig) -> FitResult:
    """``solve_ugee`` up to the sandwich: a converged result comes back with
    ``cov_beta``, ``b_matrix`` and ``sigma_u`` left None for the caller to
    fill; NonConvergence still carries a result with its sandwich."""
    if isinstance(model, (IccModel, MeanVarianceModel)):
        R, V = _moment_responses(model, data)
        q = 2
        if data.n < q + 1:
            raise InputError(f"need at least {q + 1} subjects to fit {q} parameters")
        theta0 = (np.asarray(config.init_beta, dtype=float)
                  if config.init_beta is not None else model.init_theta(R))

        def evaluate(theta):
            return _moment_assemble(model, R, V, theta)[:3]

        names = model.param_names
    else:
        Xa = augment(data.x, model.intercept)
        q = Xa.shape[1]
        if q == 0:
            raise InputError("model has no parameters: no covariates and no intercept")
        if data.n < q + 1:
            raise InputError(f"need at least {q + 1} subjects to fit {q} parameters")
        _collinearity_check(Xa, model.intercept)
        theta0 = (np.asarray(config.init_beta, dtype=float)
                  if config.init_beta is not None else _default_init(model, data, q))
        if theta0.size != q:
            raise InputError(f"init_beta length {theta0.size} does not match {q}")

        def evaluate(beta):
            return _pair_pass(model, data, Xa, beta, config)

        slopes = [f"beta{k + 1}" for k in range(q - int(model.intercept))]
        names = tuple((["beta0"] if model.intercept else []) + slopes)
    if not np.all(np.isfinite(theta0)):
        raise InputError("beta must be finite")

    beta, eq_norm, iterations, converged, flagged = _newton(
        evaluate, theta0, data.n_pairs, config)
    result = FitResult(
        beta=beta, cov_beta=None, b_matrix=None, sigma_u=None, eq_norm=eq_norm,
        iterations=iterations, converged=converged, n_subjects=data.n,
        n_pairs=data.n_pairs, flagged_steps=flagged, param_names=names)

    if converged:
        return result
    try:
        result = _with_sandwich(model, data, result, config)
    except (EvaluationError, SingularInformation):
        result = None
    raise NonConvergence(
        f"no convergence in {config.max_iter} iterations "
        f"(equation norm {eq_norm:.3g} > {config.tol_eq:g})",
        result=result, eq_norm=eq_norm)


# --------------------------------------------------------------------------- #
# Sandwich covariance
# --------------------------------------------------------------------------- #

def _with_sandwich(model, data: PairData, result: FitResult,
                   config: FitConfig) -> FitResult:
    cov, B, Su = sandwich_variance(model, data, result.beta, config=config)
    return dataclasses.replace(result, cov_beta=cov, b_matrix=B, sigma_u=Su)


def _psd_floor(M: np.ndarray) -> np.ndarray:
    M = 0.5 * (M + M.T)
    w, Q = np.linalg.eigh(M)
    if w.min(initial=0.0) < 0.0:
        M = (Q * np.clip(w, 0.0, None)) @ Q.T
        M = 0.5 * (M + M.T)
    return M


def sandwich_variance(model, data: PairData, beta: np.ndarray,
                      config: FitConfig | None = None,
                      corrected: bool | None = None):
    """Sandwich covariance of the estimate at ``beta``.

    Returns (cov_beta, b_matrix, sigma_u):
      b_matrix  per-pair mean of D'V^-1 D
      sigma_u   covariance of per-subject projected scores (uncorrected)
      cov_beta  the two-component estimate described in the module
                docstring (or B^-1 sigma_u B^-1 / n when ``corrected``
                is false)
    """
    config = config or FitConfig()
    if corrected is None:
        corrected = config.sandwich_correction
    beta = np.asarray(beta, dtype=float)
    n, N = data.n, data.n_pairs

    if isinstance(model, (IccModel, MeanVarianceModel)):
        R, V = _moment_responses(model, data)
        _, _, B_sum, s = _moment_assemble(model, R, V, beta)
        acc = interleaved_accumulate(n, data.i1, data.i2, s)
        Z2 = s.T @ s
    else:
        Xa = augment(data.x, model.intercept)
        _, _, B_sum, acc, Z2 = _pair_pass(model, data, Xa, beta, config,
                                          sandwich=True)

    B = B_sum / N
    cond = np.linalg.cond(B)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularInformation(
            f"bread matrix is numerically singular (cond={cond:.3g})", cond=cond)

    vtil = acc * (2.0 / (n - 1))
    sigma_u = projection_variance(vtil)

    Binv = np.linalg.inv(B)
    if not corrected:
        cov = _psd_floor(Binv @ (sigma_u / n) @ Binv)
        return cov, B, sigma_u
    floor = Binv @ (Z2 / N / N) @ Binv
    projection_part = _psd_floor(
        Binv @ (sigma_u / n - 2.0 * Z2 / N / N) @ Binv)
    cov = projection_part + floor
    return 0.5 * (cov + cov.T), B, sigma_u


# --------------------------------------------------------------------------- #
# Working-variance nuisance estimation and the adaptive loop
# --------------------------------------------------------------------------- #

def _fitted_means(model: FrmModel, data: PairData, beta: np.ndarray) -> np.ndarray:
    Xa = augment(data.x, model.intercept)
    h, _ = link_mean_deriv(model.link, Xa @ np.asarray(beta, dtype=float))
    return h


def estimate_nuisance(model, data: PairData, beta: np.ndarray,
                      config: FitConfig | None = None) -> float:
    """Estimate the working-variance nuisance at the current beta.

    constant   sample variance of the pairwise responses
    propmean   least-squares tau2 = sum(r^2 h) / sum(h^2)
    nb         bounded 1-d search (over log dispersion) minimising
               sum( (r^2 - h (1 + h/tau))^2 ); hitting the upper bound
               returns inf, meaning variance-equals-mean
    """
    kind = model.working_variance.kind
    if kind == "constant":
        return float(np.var(data.f, ddof=1))
    if kind not in ("propmean", "nb"):
        raise InputError(f"working variance kind {kind!r} has no nuisance parameter")
    h = _fitted_means(model, data, beta)
    r2 = (data.f - h) ** 2
    if kind == "propmean":
        denom = float(h @ h)
        if denom <= 0:
            raise EvaluationError("cannot estimate proportional variance: "
                                  "fitted means are all zero")
        return float((r2 @ h) / denom)
    h2 = h * h

    def objective(log_tau: float) -> float:
        resid = r2 - h - h2 / np.exp(log_tau)
        return float(resid @ resid)

    res = minimize_scalar(objective, bounds=(np.log(NB_TAU_MIN), np.log(NB_TAU_MAX)),
                          method="bounded", options={"xatol": 1e-10})
    tau = float(np.exp(res.x))
    if tau >= 0.99 * NB_TAU_MAX:
        return float("inf")
    return tau


def _initial_nuisance(model, data: PairData) -> float:
    kind = model.working_variance.kind
    if kind == "constant":
        return float(np.var(data.f, ddof=1))
    if kind == "propmean":
        return 1.0
    return float("inf")  # nb: start from variance-equals-mean


def _nuisance_close(new: float, old: float, tol: float) -> bool:
    if np.isinf(new) and np.isinf(old):
        return True
    if np.isinf(new) or np.isinf(old):
        return False
    return abs(new - old) <= tol * (1.0 + abs(old))


def _with_nuisance(model: FrmModel, value: float) -> FrmModel:
    wv = model.working_variance
    safe = None if (wv.kind == "nb" and np.isinf(value)) else value
    return dataclasses.replace(model, working_variance=dataclasses.replace(
        wv, value=safe))


def adaptive_fit(model, data: PairData, config: FitConfig | None = None) -> FitResult:
    """Alternate nuisance estimation and equation solving until both settle.

    Working variances without a nuisance parameter are solved directly
    (zero adaptive rounds).  Raises NonConvergence with the trace of
    nuisance iterates if the alternation fails to settle.
    """
    config = config or FitConfig()
    if isinstance(model, (IccModel, MeanVarianceModel)) \
            or not model.working_variance.has_nuisance:
        return solve_ugee(model, data, config)

    value = _initial_nuisance(model, data)
    trace = [value]
    result = _solve(_with_nuisance(model, value), data, config)
    for rounds in range(1, config.adaptive_max_rounds + 1):
        new = estimate_nuisance(model, data, result.beta, config)
        trace.append(new)
        done = _nuisance_close(new, value, config.adaptive_tol)
        value = new
        warm = dataclasses.replace(config, init_beta=result.beta)
        result = _solve(_with_nuisance(model, value), data, warm)
        if done:
            break
    result = _with_sandwich(_with_nuisance(model, value), data, result, config)
    if not done:
        raise NonConvergence(
            f"adaptive working-variance loop did not settle in "
            f"{config.adaptive_max_rounds} rounds", trace=trace, result=result)
    return dataclasses.replace(result, nuisance=value, nuisance_rounds=rounds)


# --------------------------------------------------------------------------- #
# Convenience fits for the two-dimensional models
# --------------------------------------------------------------------------- #

def icc_pair_data(ratings: np.ndarray) -> PairData:
    """Pairwise two-component agreement responses from an (n, K) rating matrix."""
    ratings = np.asarray(ratings, dtype=float)
    if ratings.ndim != 2 or ratings.shape[1] < 2:
        raise InputError("ratings must be an (n, K>=2) matrix")
    pairs = enumerate_pairs(ratings.shape[0])
    f = pairwise_responses(Kernel.icc(), ratings, pairs[:, 0], pairs[:, 1])
    return PairData(n=ratings.shape[0], i1=pairs[:, 0], i2=pairs[:, 1],
                    x=np.empty((len(pairs), 0)), f=f)


def fit_icc(ratings: np.ndarray, config: FitConfig | None = None) -> FitResult:
    """Agreement fit: returns (tau2, rho) with sandwich covariance."""
    ratings = np.asarray(ratings, dtype=float)
    data = icc_pair_data(ratings)
    return solve_ugee(IccModel(raters=ratings.shape[1]), data, config)


def fit_mean_variance(data: PairData, config: FitConfig | None = None) -> FitResult:
    """Fit (mu, sigma2) of a pairwise response; equals the pairwise mean and
    centered second moment in closed form."""
    return solve_ugee(MeanVarianceModel(), data, config)
