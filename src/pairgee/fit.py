"""Estimating-equation solver for pairwise-attribute regression.

The estimator solves

    sum over pairs of  D_i' V_i^-1 (f_i - h_i(beta))  =  0

by Fisher scoring with step halving, or Newton's method for exp-link nb at
finite tau, from one IRLS step for the exp link; f_i is the pairwise
response, h_i the model mean, D_i its beta-gradient and V_i a working
variance.
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
``sandwich_variance(..., corrected=False)`` returns the plain
uncorrected form.

Moment models
-------------
The two-dimensional moment models (``IccModel``, ``MeanVarianceModel``)
have the same mean h and gradient D for every pair, so their pair sums
factor through four sufficient statistics of the (N, 2) responses R: N,
the mean, the centred cross-products and the (n, 2) per-subject sums.
One pass of a ``pass_workers`` set gathers them, its chunks' parts merged
in chunk order (``_moment_stats``); every pass of the binding, for a
scoring iterate or the sandwich, is then an O(n) closed form
(``_moment_bind``).  ``fit_icc`` feeds that pass from the rating matrix
directly, without a ``PairData``.
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import EvaluationError, InputError, NonConvergence, SingularInformation
from .kernels import Kernel, _close_counts, _responses_of
from .links import link_complement, link_mean_deriv
from .model import (FrmModel, IccModel, MeanVarianceModel, _integer_setting, augment,
                    pair_covariate_matrix, stack_subjects, variance_eval)
from .ustat import (canonical_order, checked_pair_count, interleaved_accumulate, pair_chunks,
                    pair_count, pair_indices, pair_rows, pass_workers, projection_variance)

COND_LIMIT = 1e12
NB_TAU_MAX = 1e8
NB_TAU_MIN = 1e-8
# step halvings per scoring iteration; the last candidate is accepted
# (and counted as flagged) even when it lowers the quasi-objective
MAX_HALVINGS = 20
# nb dispersion rounds of ``adaptive_fit`` and their scaled settling tolerance
ADAPTIVE_MAX_ROUNDS = 25
ADAPTIVE_TOL = 1e-6
# an nb ``adaptive_fit`` over at least WARM_PAIRS pairs starts from the
# settled rounds on the complete pairs of WARM_SUBJECTS of its subjects,
# drawn by a generator seeded with WARM_SEED (see ``_warm_start``).  The
# warm fit was faster from n = 900 (404,550 pairs) on, on a 2-CPU host,
# and mixed at n = 800; it is not tied to ``ustat.FORK_PAIRS``, so a lower
# fork threshold moves no small fit onto the warm path
WARM_PAIRS = 400_000
WARM_SUBJECTS = 500
WARM_SEED = 0


# --------------------------------------------------------------------------- #
# Regression-ready pair data
# --------------------------------------------------------------------------- #

@dataclass(frozen=True, init=False)
class PairData:
    """A complete pairwise dataset: responses and covariates for all pairs.

    The rows follow the lexicographic pair order of ``enumerate_pairs(n)``.
    n alone determines that order, so no index arrays are stored: ``i1``
    and ``i2`` are decoded from n on first access.  The constructor takes
    the pair of each row as ``i1`` and ``i2``: rows already in canonical
    order are kept as given, without a sort or a copy, and others are
    permuted into it.  Without ``i1`` and ``i2`` the rows are taken to be
    in canonical order, as ``dataclasses.replace`` passes them.  ``x``,
    ``f``, ``i1`` and ``i2`` are read-only.  Order-dependent responses are
    understood as evaluated on the ordered pair (i1 < i2).
    """

    n: int
    x: np.ndarray
    f: np.ndarray
    subject_ids: tuple | None = None

    def __init__(self, n: int, i1=None, i2=None, *, x, f, subject_ids=None):
        for name, value in (("n", n), ("x", x), ("f", f), ("subject_ids", subject_ids)):
            object.__setattr__(self, name, value)
        # validation stays in __post_init__, where a generated dataclass
        # __init__ puts it, so it can be timed apart (bench/spans.py does)
        self.__post_init__(i1, i2)

    def __post_init__(self, i1, i2):
        indexed = i1 is not None or i2 is not None
        if indexed and (i1 is None or i2 is None):
            raise InputError("give both i1 and i2, or neither")
        if indexed:
            i1 = np.asarray(i1, dtype=np.int64)
            i2 = np.asarray(i2, dtype=np.int64)
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        f = np.asarray(self.f, dtype=float)
        m = len(i1) if indexed else len(f)
        if x.shape[0] != m and x.size == 0:
            x = np.empty((m, 0))
        if (indexed and len(i1) != len(i2)) or x.shape[0] != m or f.shape[0] != m:
            raise InputError("pair arrays have inconsistent lengths")
        object.__setattr__(self, "n", _integer_setting("n", self.n))
        if self.n < 2:
            raise InputError("need at least 2 subjects")
        if self.subject_ids is not None and len(self.subject_ids) != self.n:
            raise InputError(f"{len(self.subject_ids)} subject ids for n={self.n}")
        if self.subject_ids is not None and len(set(self.subject_ids)) < self.n:
            raise InputError("duplicate subject ids in dataset")
        if indexed:
            order = canonical_order(self.n, i1, i2)
            if order is not None:
                x, f = x[order], f[order]
        elif m != pair_count(self.n):
            raise InputError(f"incomplete dataset: {m} of {pair_count(self.n)} "
                             f"pairs for n={self.n}")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(f)):
            raise InputError("pair data must be finite")
        x, f = x.view(), f.view()
        x.flags.writeable = f.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "f", f)

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        i1, i2 = pair_indices(self.n, 0, self.n_pairs)
        i1.flags.writeable = i2.flags.writeable = False
        return i1, i2

    @property
    def i1(self) -> np.ndarray:
        """First subject of each row, decoded on first access."""
        return self._pairs[0]

    @property
    def i2(self) -> np.ndarray:
        """Second subject of each row, decoded on first access."""
        return self._pairs[1]

    @property
    def n_pairs(self) -> int:
        return len(self.f)


def build_pairs(subjects, kernel: Kernel, pair_covariate=None,
                pseudocount: str | None = None, eps: float = 0.0) -> PairData:
    """Turn subject records into a complete pairwise dataset.

    ``pseudocount`` (``"half-min"``, or ``"additive"`` with ``eps``) closes
    the outcome rows to compositions first, for the ``aitchison`` and
    ``custom`` kernels; required when compositional outcomes contain zeros.
    """
    if pseudocount is not None and kernel.kind not in ("aitchison", "custom"):
        raise InputError(f"{kernel.kind} kernel takes no pseudocount")
    if pseudocount is None and eps != 0:
        raise InputError(f"eps={eps} needs pseudocount='additive'")
    ids, Y, X = stack_subjects(subjects)
    if pseudocount is not None:
        Y = _close_counts(Y, pseudocount, eps)
    return _subject_pairs(kernel, Y, X, pair_covariate, tuple(ids))


def _subject_pairs(kernel: Kernel, Y: np.ndarray, X=None, pair_covariate=None,
                   subject_ids: tuple | None = None) -> PairData:
    """The complete PairData of the subjects in the rows of ``Y``: ``kernel``
    responses (the kernel set up once) and, unless it is None, the
    ``pair_covariate`` of ``X``, a ``ustat.CHUNK_PAIRS``-pair chunk at a time."""
    N = pair_count(len(Y))
    f = np.empty(N if kernel.output_dim == 1 else (N, kernel.output_dim))
    x = np.empty((N, 0 if pair_covariate is None
                  else pair_covariate.output_dim(X.shape[1])))
    chunks = pair_chunks(len(Y))
    with np.errstate(over="ignore", invalid="ignore"):   # PairData rejects it
        responses = _responses_of(kernel, Y)
    for sl, i1, i2 in chunks:
        with np.errstate(over="ignore", invalid="ignore"):
            f[sl] = responses(i1, i2)
        if pair_covariate is not None:
            x[sl] = pair_covariate_matrix(pair_covariate, X, i1, i2)
    return PairData(n=len(Y), x=x, f=f, subject_ids=subject_ids)


# --------------------------------------------------------------------------- #
# Configuration and results
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class FitConfig:
    """Settings of the scoring loop.

    ``init_beta`` is the starting value (default: the model's own start,
    one IRLS step for the exp link, see ``_default_start``).
    An iterate has converged when max|U| / N <= ``tol_eq``, with U the
    estimating equations and N the pair count; the CLI's ``--tol`` sets
    it.  ``max_iter`` bounds the scoring iterations of one solve.
    """

    init_beta: np.ndarray | None = None
    tol_eq: float = 1e-8
    max_iter: int = 100

    def __post_init__(self):
        if not 0 < self.tol_eq < math.inf:   # inf stops at the start, nan never
            raise InputError(f"tol_eq must be positive and finite, got {self.tol_eq}")
        if _integer_setting("max_iter", self.max_iter) < 1:
            raise InputError("max_iter must be >= 1")


@dataclass(frozen=True)
class FitResult:
    """Solution of the estimating equations with its sandwich covariance.

    ``cov_beta`` is the covariance of the estimate itself (the asymptotic
    sandwich divided by the subject count), ``b_matrix`` the per-pair mean
    of D'V^-1 D, and ``sigma_u`` the uncorrected projected-score
    covariance.  ``iterations`` counts the scoring iterations of all
    solves and ``nuisance_rounds`` the nuisance estimates of an adaptive
    fit; after a warm start (see ``adaptive_fit``) both count the solves
    on the full data only, not those on the subsample.
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
    param_names: tuple
    nuisance: float | None = None
    nuisance_rounds: int = 0
    flagged_steps: int = 0

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.cov_beta), 0.0, None))

    @property
    def z(self) -> np.ndarray:
        """Wald statistics beta / se; NaN where se is 0."""
        se = self.se
        return np.divide(self.beta, se, out=np.full_like(self.beta, np.nan),
                         where=se > 0)

    @property
    def p(self) -> np.ndarray:
        """Two-sided normal p-values of ``z``, erfc(|z| / sqrt 2); NaN where
        se is 0."""
        return np.array([math.erfc(abs(v) / math.sqrt(2.0)) for v in self.z])


# --------------------------------------------------------------------------- #
# Assembly of the estimating equations
# --------------------------------------------------------------------------- #

def _check_pairs(ok: np.ndarray, data: PairData, sl: slice, what: str,
                 eta: np.ndarray | None = None) -> None:
    """EvaluationError "<what> on pair (i1, i2)" naming the first pair of
    chunk ``sl`` where ``ok`` is false, with the largest ``eta`` if given."""
    if not np.all(ok):
        k = int(np.argmax(~ok)) + (sl.start or 0)
        pair = tuple(int(i[0]) for i in pair_indices(data.n, k, k + 1))
        raise EvaluationError(f"{what} on pair {pair}", pair=pair,
                              eta=None if eta is None else float(eta.max()))


# Every working-variance form V(h) makes the estimating function the exact
# gradient of a quasi-likelihood Q with dQ/dh = (f - h)/V(h).  The scoring
# matrix is positive semidefinite, so the scoring direction is always an
# ascent direction for Q; halving until Q stops decreasing therefore cannot
# stall, unlike halving on ||U||_2 (whose merit the scoring direction may
# increase when the response sits far above the fitted mean).

def _quasi_objective(wv, f: np.ndarray, h: np.ndarray, r: np.ndarray,
                     V: np.ndarray, comp: np.ndarray | None = None):
    """Quasi-likelihood Q of one pair chunk and a chunk array free to reuse;
    r = f - h, V = V(h) and, for the bernoulli kind, comp = 1 - h."""
    if wv.kind in ("constant", "userfixed"):
        t = -0.5 * r ** 2 / V
        return float(t.sum()), t
    if wv.kind == "bernoulli":
        # V = h comp > 0 was checked, so both logs are finite; comp comes
        # from eta (links.link_complement), so it keeps its relative
        # precision where h rounds to 1
        t = f * np.log(h) + (1.0 - f) * np.log(comp)
        return float(t.sum()), t
    if wv.kind == "nb" and wv.value is not None and np.isfinite(wv.value):
        # f log(h) - (f + tau) log(tau + h) without two sums that cancel at large f
        tau = wv.value
        t = tau + h
        u = np.log(h / t)
        return float(f @ u - tau * np.log(t, out=t).sum()), t
    # poisson, propmean, and nb in its variance-equals-mean limit
    scale = (wv.value or 1.0) if wv.kind == "propmean" else 1.0
    t = f * np.log(h)
    t -= h
    return float(t.sum() / scale), t


def _chunk_mean(model: FrmModel, data: PairData, beta: np.ndarray, sl: slice):
    """Design, linear predictor, mean and mean derivative of one pair chunk,
    returned as (xt, eta, h, g) with xt the (q, chunk) design of ``augment``
    (intercept row first); a non-finite mean is an EvaluationError naming
    its pair."""
    xt = augment(data.x[sl], model.intercept)
    eta = beta @ xt
    h, g = link_mean_deriv(model.link, eta)
    if not (np.isfinite(h.min()) and np.isfinite(h.max())):   # a NaN fails both
        _check_pairs(np.isfinite(h), data, sl, "non-finite mean", eta)
    return xt, eta, h, g


def _chunk_terms(model: FrmModel, data: PairData, beta: np.ndarray, sl: slice,
                 newton: bool = False):
    """Quasi-objective, (q, chunk) pair scores and (q, q) matrix J of one
    pair chunk, all three from one ``_chunk_mean`` and one working variance:
    J = D'V^-1 D, or with ``newton`` (exp-link nb at finite tau) the observed
    information -dU/dbeta, weights scaled by 1 + r / (tau + h) (by 1 where
    that is negative, f < -tau): quadratic convergence."""
    xt, eta, h, g = _chunk_mean(model, data, beta, sl)
    wv = model.working_variance
    comp = link_complement(model.link, eta, h) if wv.kind == "bernoulli" else None
    V = variance_eval(wv, h, rows=sl, complement=comp)
    if not (V.min() > 0 and V.max() < np.inf):   # a NaN fails the first test
        _check_pairs(np.isfinite(V) & (V > 0), data, sl, "nonpositive working variance")
    f = data.f[sl]
    r = f - h
    merit, w = _quasi_objective(wv, f, h, r, V, comp)
    np.multiply(g, r, out=w)   # g r / V
    w /= V
    s = xt * w
    np.multiply(g, g, out=w)   # g^2 / V
    w /= V
    if newton:
        d = wv.value + h
        np.divide(r, d, out=d)
        d += 1.0
        if d.min() < 0:
            d[d < 0] = 1.0
        w *= d
    return merit, s, (xt * w) @ xt.T


class _Bound(NamedTuple):
    """A model bound to its data: the one state of a fit.  An adaptive
    round replaces only its nuisance ``value`` and its start ``beta``."""

    reduce: Callable     # reduce(part, theta, value): one pass of the chunk function ``part``
    names: tuple         # the q parameter names
    beta: np.ndarray     # the start: the given beta, or the model's default
    n: int               # subjects
    n_pairs: int         # pairs
    value: float | None  # the working variance's nuisance; None for moment models

    def evaluate(self, theta, sandwich: bool = False):
        """The quasi-objective, U and J at ``theta``, and with ``sandwich``
        the (n, q) per-subject sums of the pair scores and Z2 = sum of their
        outer products: a ``_terms_part`` or ``_sandwich_part`` pass at ``value``."""
        return self.reduce(_sandwich_part if sandwich else _terms_part, theta, self.value)


@contextmanager
def _bind(model, data: PairData, beta=None):
    """The model-specific side of a fit on ``data``, with start ``beta``,
    as a context whose block runs the fit's passes.

    ``reduce(part, theta, value)`` is one pass of the chunk function
    ``part`` at theta with the working variance's nuisance at ``value``
    (see ``_pass_chunks``).  For the scalar model it is the pass of the one
    ``pass_workers`` set that the block opens, the only route of a pass
    over pair chunks, and the binding's ``value`` is the model's own.  The
    two-dimensional moment models, whose mean h and gradient D are the same
    for every pair, read ``data`` once here, in ``_moment_bind``, and answer
    ``_terms_part`` and ``_sandwich_part`` in closed form, ignoring
    ``value``.  A ``beta`` of None is the model's default start; one other
    than q finite values is an InputError.  This is the only code that tells the two kinds of model
    apart.
    """
    if model.working_variance is None:   # a moment model
        yield _moment_bind(model, data.n, lambda sl, i1, i2: model.responses(data.f[sl]),
                           beta)
        return
    if data.f.ndim != 1:
        raise InputError(f"a scalar model needs one response per pair; the data "
                         f"have {data.f.shape[1]} components")
    q = data.x.shape[1] + int(model.intercept)
    if q == 0:
        raise InputError("model has no parameters: no covariates and no intercept")
    wv = model.working_variance
    if wv.kind == "userfixed" and wv.per_pair.shape != (data.n_pairs,):
        raise InputError(f"userfixed working variance has {wv.per_pair.size} "
                         f"per-pair values for {data.n_pairs} pairs")
    _collinearity_check(data.x, model.intercept)
    slopes = [f"beta{k + 1}" for k in range(data.x.shape[1])]
    names = tuple((["beta0"] if model.intercept else []) + slopes)
    given = None if beta is None else _start(beta, names)
    with pass_workers(partial(_pass_chunks, model, data), data.n_pairs) as workers:
        beta = _default_start(model, data, q, workers.reduce) if given is None else given
        yield _Bound(workers.reduce, names, beta, data.n, data.n_pairs, wv.value)


def _start(beta, names: tuple) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (len(names),) or not np.all(np.isfinite(beta)):
        raise InputError(f"beta must hold {len(names)} finite values, one per "
                         f"model parameter; got {beta.tolist()}")
    return beta


def _response_variance(N: int, variance, what: str):
    """``variance()``, the sample variance of N pairwise responses that
    ``what`` needs; an EvaluationError names the cause when it is undefined
    (one pair), not finite or zero in a component."""
    if N < 2:
        raise EvaluationError(f"degenerate pairwise responses: {what} needs their "
                              f"sample variance, undefined for one pair")
    with np.errstate(over="ignore", invalid="ignore"):   # overflow is raised below
        V = variance()
    finite = np.all(np.isfinite(V))
    if not finite or np.any(V <= 0):
        raise EvaluationError(f"degenerate pairwise responses: {what} needs their "
                              f"sample variance, which is "
                              f"{'zero' if finite else 'not finite'}")
    return V


def _moment_stats(n: int, rows):
    """Sufficient statistics of the (N, 2) responses R of a moment model
    on n subjects, from one pass of a ``pass_workers`` set; ``rows(sl, i1,
    i2)`` gives the R rows of the chunk ``sl`` of pairs (i1, i2).

    Returns (N, Rbar, C, T): the pair count, the mean response, the
    centred cross-products sum (R - Rbar)'(R - Rbar), and the (n, 2)
    per-subject sums of R over own pairs.  Each chunk's part is merged
    into the running ones in chunk order as in Chan, Golub and LeVeque
    (1979), so no array beyond a chunk's rows is made.
    """
    with pass_workers(lambda: partial(_moment_part, n, rows),
                      checked_pair_count(n)) as workers:
        return workers.fold(_moment_merge, (0, 0.0, 0.0, 0.0))   # the first part sets them


def _moment_part(n: int, rows, sl: slice):
    i1, i2 = pair_indices(n, sl.start, sl.stop)
    R = rows(sl, i1, i2)
    # the sequential sum of R.sum(axis=0), without its strided reduction
    mean = np.cumsum(R, axis=0)[-1] / len(R)
    dev = R - mean
    return len(R), mean, dev.T @ dev, interleaved_accumulate(n, i1, i2, R)


def _moment_merge(stats, part):
    N, Rbar, C, T = stats
    m, mean, dev2, sums = part
    delta = mean - Rbar
    return (N + m, Rbar + delta * (m / (N + m)),
            C + dev2 + np.outer(delta, delta) * (N * m / (N + m)), T + sums)


def _moment_bind(model, n: int, rows, beta=None) -> _Bound:
    """``_bind`` of a moment model whose responses are ``rows`` (see
    ``_moment_stats``).

    With V = diag(C) / (N - 1), the working variance of each component,
    and W = D' V^-1, every pair quantity sums in closed form:

        merit = -1/2 [sum_c C_cc / V_c + N sum_c (Rbar_c - h_c)^2 / V_c]
        U = N W (Rbar - h),   J = N W D,
        per-subject score sums (T - (n - 1) h) W',
        Z2 = W [C + N (Rbar - h)(Rbar - h)'] W'.
    """
    N, Rbar, C, T = _moment_stats(n, rows)
    V = _response_variance(N, lambda: np.diag(C) / (N - 1), "the moment model")
    names = model.param_names
    beta = model.init_theta(Rbar) if beta is None else beta

    def reduce(part, theta, value):
        h, D = model.mean_map(theta)
        W = D.T / V                    # (q, 2)
        d = Rbar - h
        merit = -0.5 * float(np.sum(np.diag(C) / V) + N * np.sum(d * d / V))
        U, J = N * (W @ d), N * (W @ D)
        if part is _terms_part:
            return merit, U, J
        return (merit, U, J, (T - (n - 1) * h) @ W.T,
                W @ (C + N * np.outer(d, d)) @ W.T)

    return _Bound(reduce, names, _start(beta, names), n, N, None)


def _pass_chunks(model: FrmModel, data: PairData, part, theta, value):
    """The chunk function ``part(model, data, theta, sl)`` of a pass, with
    the working variance's nuisance at ``value``.  A part is a module-level
    function, which pickles by name: the workers of a fit inherit ``model``
    and ``data``, so a pass sends them only part, theta and value."""
    if value != model.working_variance.value:
        model = _with_nuisance(model, value)
    return partial(part, model, data, theta)


def _terms_part(model: FrmModel, data: PairData, beta: np.ndarray, sl: slice):
    """One chunk's quasi-objective, score sum and J: the observed
    information for exp-link nb at finite tau, else D'V^-1 D."""
    wv = model.working_variance
    newton = model.link == "exp" and wv.kind == "nb" and (wv.value or math.inf) < math.inf
    merit, s, J = _chunk_terms(model, data, beta, sl, newton)
    return merit, s.sum(axis=1), J


def _sandwich_part(model: FrmModel, data: PairData, beta: np.ndarray, sl: slice):
    """One chunk's quasi-objective, score sum and J = D'V^-1 D, its
    per-subject score sums (its pairs decoded by ``pair_indices``) and Z2;
    ``_chunk_terms``' (q, chunk) scores make U and Z2 reduce contiguous rows."""
    merit, s, J = _chunk_terms(model, data, beta, sl)
    i1, i2 = pair_indices(data.n, sl.start, sl.stop)
    acc = interleaved_accumulate(data.n, i1, i2, s.T)
    return merit, s.sum(axis=1), J, acc, s @ s.T


def assemble_ugee(model, data: PairData, beta: np.ndarray):
    """Estimating equations U(beta) and scoring matrix J(beta), returned as
    (U, J).

    U = sum_i D_i' V_i^-1 (f_i - h_i)   and   J = sum_i D_i' V_i^-1 D_i,
    accumulated over ``ustat.CHUNK_PAIRS``-pair chunks in index order by
    a ``_sandwich_part`` pass, whose J is D'V^-1 D for nb too.
    """
    with _bind(model, data, beta) as bound:
        _, U, J = bound.evaluate(bound.beta, sandwich=True)[:3]
    return U, J


# --------------------------------------------------------------------------- #
# The scoring iteration
# --------------------------------------------------------------------------- #

def _default_start(model: FrmModel, data: PairData, q: int, reduce) -> np.ndarray:
    """Zeros, or for the exp link one IRLS step from mu0 = f + fbar / 100
    (a ``_start_part`` pass at fbar / 100); where fbar <= 0, some f < 0, or
    X'WX is singular or the step not finite, log fbar on an intercept.
    Under the identity link a working variance that is zero at h = 0
    (poisson, propmean, nb, bernoulli) has no zero start: least squares (a
    ``_start_part`` pass), or where X'X is singular or a fitted mean is
    outside the variance's domain (a ``_domain_part`` pass), fbar on an
    intercept."""
    beta = np.zeros(q)
    wv = model.working_variance
    if model.link == "identity" and wv.kind in ("poisson", "propmean", "nb", "bernoulli"):
        start = _start_solve(*reduce(_start_part, 0.0, wv.value))
        if start is not None and not reduce(_domain_part, start, wv.value)[0]:
            return start
        if model.intercept:
            beta[0] = np.mean(data.f)
        return beta
    fbar = float(np.mean(data.f)) if model.link == "exp" else 0.0
    if fbar > 0 and data.f.min() >= 0:
        start = _start_solve(*reduce(_start_part, 0.01 * fbar, wv.value))
        if start is not None:
            return start
    if fbar > 0 and model.intercept:
        beta[0] = np.log(fbar)
    return beta


def _start_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """The start that solves X'WX beta = X'Wz, or None where X'WX is
    singular or the solution not finite."""
    try:
        _check_conditioning(A, "the start's X'WX")
        start = np.linalg.solve(A, b)
    except (SingularInformation, np.linalg.LinAlgError):
        return None
    return start if np.all(np.isfinite(start)) else None


def _start_part(model: FrmModel, data: PairData, offset: float, sl: slice):
    """One chunk's X'WX and X'Wz.  For the exp link W = mu0 and z = log mu0
    at mu0 = f + ``offset``: f and offset scaled by c move the intercept by
    log c, no slope.  For the identity link W = 1 and z = f, least squares."""
    xt = augment(data.x[sl], model.intercept)
    if model.link == "identity":
        return xt @ xt.T, xt @ data.f[sl]
    mu = data.f[sl] + offset
    xw = xt * mu
    return xw @ xt.T, xw @ np.log(mu)


def _domain_part(model: FrmModel, data: PairData, beta: np.ndarray, sl: slice):
    """One chunk's count of pairs whose working variance is not positive."""
    _, eta, h, _ = _chunk_mean(model, data, beta, sl)
    V = variance_eval(model.working_variance, h, rows=sl,
                      complement=link_complement(model.link, eta, h))
    return (np.count_nonzero(~(V > 0)),)


def _collinearity_check(x: np.ndarray, intercept: bool) -> None:
    if not intercept or x.shape[1] == 0:
        return
    spread = x.max(axis=0) - x.min(axis=0)
    if np.any(spread == 0):
        j = int(np.argmax(spread == 0))
        raise SingularInformation(
            f"covariate column {j} is constant across pairs and collinear "
            f"with the intercept")


def _check_conditioning(M: np.ndarray, what: str) -> None:
    # np.linalg.cond without its wrapper: the singular values descend, and
    # a smallest one of 0, or NaN (an infinite entry), gives its inf
    s = np.linalg.svd(M, compute_uv=False)
    cond = s[0] / s[-1] if s[-1] > 0 else np.inf
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularInformation(
            f"{what} is numerically singular (cond={cond:.3g})", cond=cond)


def _newton(evaluate, beta0: np.ndarray, n_pairs: int, config: FitConfig,
            start=None, sandwich: bool = False, done=None):
    """Scoring loop, whose steps solve J step = U with the J of each pass
    (``_chunk_terms``); steps are halved while the quasi-objective decreases.

    ``evaluate(beta, sandwich)`` is one pass (``_Bound.evaluate``), so the
    accepted candidate's U and J are already at hand; ``start`` is that
    pass at ``beta0`` when the caller has it already.  ``done(beta, U, J)``
    is the stopping test at each iterate, by default max|U| / N <=
    ``tol_eq``; the returned flag is its last answer.  With ``sandwich`` a
    step predicted to converge (eq_norm^2 / the last eq_norm <= tol_eq)
    evaluates its first candidate with the sandwich sums, returned last
    when a pass at the returned beta made them (else None).  A point whose
    quasi-objective or J is not finite is an EvaluationError; at a trial
    step it is halved.
    """
    def point(beta, sums=None, sandwich=False):
        # an overflow in the residuals' squares and products gives a
        # non-finite quasi-objective or J, raised here, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            sums = evaluate(beta, sandwich) if sums is None else sums
        m, U, J = sums[:3]
        if not np.isfinite(m):
            raise EvaluationError("quasi-objective is not finite")
        if not np.all(np.isfinite(J)):
            raise EvaluationError("scoring matrix is not finite")
        return m, U, J, sums if len(sums) > 3 else None

    beta = beta0.copy()
    m, U, J, sums = point(beta, start)
    flagged = 0
    for iterations in range(config.max_iter + 1):
        eq_norm = float(np.max(np.abs(U))) / n_pairs
        converged = eq_norm <= config.tol_eq if done is None else done(beta, U, J)
        if converged or iterations == config.max_iter:
            break
        predicted = (sandwich and iterations > 0   # the first step has no last
                     and eq_norm * eq_norm / previous <= config.tol_eq)
        previous = eq_norm
        _check_conditioning(J, "scoring matrix")
        step = np.linalg.solve(J, U)
        lam = 1.0
        accepted = None
        last_err = None
        slack = 1e-10 * (1.0 + abs(m))
        for halving in range(MAX_HALVINGS + 1):
            cand = beta + lam * step
            if not np.all(np.isfinite(cand)):
                lam *= 0.5
                continue
            try:
                m2, U2, J2, sums2 = point(cand, sandwich=predicted and halving == 0)
            except EvaluationError as exc:
                last_err = exc
                lam *= 0.5
                continue
            if m2 >= m - slack or halving == MAX_HALVINGS:
                if m2 < m - slack:
                    flagged += 1
                accepted = (cand, m2, U2, J2, sums2)
                break
            lam *= 0.5
        if accepted is None:
            raise last_err if last_err is not None else EvaluationError(
                "step halving failed to produce an evaluable iterate")
        beta, m, U, J, sums = accepted
    return beta, eq_norm, iterations, converged, flagged, sums


def solve_ugee(model, data: PairData, config: FitConfig | None = None) -> FitResult:
    """Solve the weighted pairwise estimating equations by Fisher scoring,
    or for nb at finite tau by Newton's method, from the model's own start.

    Raises NonConvergence (carrying the last iterate packaged as a
    ``FitResult`` with its sandwich) when the iteration budget is
    exhausted, and SingularInformation when the scoring matrix
    degenerates.  One worker set serves all the passes.
    """
    config = config or FitConfig()
    with _bind(model, data, config.init_beta) as bound:
        return _fit(bound, config)


def _fit(bound: _Bound, config: FitConfig) -> FitResult:
    """``_solve`` and the sandwich, both from the one binding ``bound``."""
    return _with_sandwich(bound, *_solve(bound, config, sandwich=True))


def _solve(bound: _Bound, config: FitConfig, start=None, sandwich: bool = False):
    """``solve_ugee`` from the start ``bound.beta`` up to the sandwich: a
    converged result comes back with ``cov_beta``, ``b_matrix`` and
    ``sigma_u`` left None for the caller to fill, with the sums of
    ``_newton``, whose ``start`` and ``sandwich`` these are; NonConvergence
    carries a result with its sandwich.  Of ``config`` only the tolerance
    and the iteration budget are read."""
    q = len(bound.names)
    if bound.n < q + 1:
        raise InputError(f"need at least {q + 1} subjects to fit {q} parameters")
    beta, eq_norm, iterations, converged, flagged, sums = _newton(
        bound.evaluate, bound.beta, bound.n_pairs, config, start, sandwich)
    result = FitResult(
        beta=beta, cov_beta=None, b_matrix=None, sigma_u=None, eq_norm=eq_norm,
        iterations=iterations, converged=converged, n_subjects=bound.n,
        n_pairs=bound.n_pairs, flagged_steps=flagged, param_names=bound.names)

    if converged:
        return result, sums
    try:
        result = _with_sandwich(bound, result, sums)
    except (EvaluationError, SingularInformation):
        result = None
    raise NonConvergence(
        f"no convergence in {config.max_iter} iterations "
        f"(equation norm {eq_norm:.3g} > {config.tol_eq:g})",
        result=result, eq_norm=eq_norm)


# --------------------------------------------------------------------------- #
# Sandwich covariance
# --------------------------------------------------------------------------- #

def _with_sandwich(bound: _Bound, result: FitResult, sums=None) -> FitResult:
    cov, B, Su = _sandwich(bound, result.beta, sums=sums)
    return dataclasses.replace(result, cov_beta=cov, b_matrix=B, sigma_u=Su)


def _psd_floor(M: np.ndarray) -> np.ndarray:
    M = 0.5 * (M + M.T)
    w, Q = np.linalg.eigh(M)
    if w.min(initial=0.0) < 0.0:
        M = (Q * np.clip(w, 0.0, None)) @ Q.T
        M = 0.5 * (M + M.T)
    return M


def sandwich_variance(model, data: PairData, beta: np.ndarray,
                      corrected: bool = True):
    """Sandwich covariance of the estimate at ``beta``.

    Returns (cov_beta, b_matrix, sigma_u):
      b_matrix  per-pair mean of D'V^-1 D
      sigma_u   covariance of per-subject projected scores (uncorrected)
      cov_beta  the two-component estimate described in the module
                docstring (or B^-1 sigma_u B^-1 / n when ``corrected``
                is false)

    The scalar model takes one pass over the pair chunks; a moment model
    reads ``data`` once for its sufficient statistics and then needs O(n)
    work (see ``_bind``).
    """
    with _bind(model, data, beta) as bound:
        return _sandwich(bound, bound.beta, corrected)


def _sandwich(bound: _Bound, beta: np.ndarray, corrected: bool = True, sums=None):
    """``sandwich_variance`` of a bound model at ``beta``; ``sums`` is
    ``bound.evaluate(beta, sandwich=True)`` when the caller has it already."""
    n, N = bound.n, bound.n_pairs
    _, _, B_sum, acc, Z2 = sums or bound.evaluate(beta, sandwich=True)

    B = B_sum / N
    _check_conditioning(B, "bread matrix")

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

def estimate_nuisance(model, data: PairData, beta: np.ndarray) -> float:
    """Estimate the working-variance nuisance of ``model`` at ``beta``, from
    sums accumulated over the ``ustat.CHUNK_PAIRS``-pair chunks in index order.

    constant   sample variance of the pairwise responses
    propmean   least-squares tau2 = sum(r^2 h) / sum(h^2)
    nb         least-squares dispersion minimising
               sum( (r^2 - h (1 + h/tau))^2 ) over tau in
               [NB_TAU_MIN, NB_TAU_MAX]; the objective is quadratic in
               phi = 1/tau, minimised at phi = sum((r^2 - h) h^2) / sum(h^4).
               tau at or above 0.99 NB_TAU_MAX (including phi <= 0)
               returns inf, meaning variance-equals-mean

    Any other model, the moment models included, is an InputError.  The
    model, the data and ``beta`` pass the solver's checks, and a
    non-finite mean is an EvaluationError naming its pair.
    """
    wv = model.working_variance
    if wv is None or not wv.has_nuisance:
        raise InputError(f"{wv.kind if wv else type(model).__name__} has no "
                         f"working-variance nuisance")
    with _bind(model, data, beta) as bound:
        if wv.kind == "constant":
            return _constant_nuisance(data)
        return _nuisance(wv.kind, bound, bound.beta)


def _nuisance(kind: str, bound: _Bound, beta: np.ndarray) -> float:
    """``estimate_nuisance`` of a propmean or nb model at ``beta``, without
    its checks: one pass of ``bound``, with its nuisance at ``bound.value``."""
    num, denom = bound.reduce(_nuisance_part, beta, bound.value)
    if denom <= 0:
        raise EvaluationError(f"cannot estimate the {kind} nuisance: "
                              f"fitted means are all zero")
    ratio = float(num) / float(denom)   # propmean: tau2; nb: phi = 1/tau
    if kind == "propmean":
        return ratio
    if ratio <= 1.0 / (0.99 * NB_TAU_MAX):
        return float("inf")
    return max(1.0 / ratio, NB_TAU_MIN)


def _nuisance_part(model: FrmModel, data: PairData, beta: np.ndarray, sl: slice):
    """The two sums of ``_nuisance`` over one pair chunk."""
    _, _, h, _ = _chunk_mean(model, data, beta, sl)
    r2 = data.f[sl] - h
    r2 *= r2
    if model.working_variance.kind == "nb":
        r2 -= h
        h *= h
    return r2 @ h, h @ h


def _constant_nuisance(data: PairData) -> float:
    """c of the ``constant`` working variance: the sample variance of f."""
    return float(_response_variance(data.n_pairs, lambda: data.f.var(ddof=1),
                                    "the constant working variance"))


def _nuisance_close(new: float, old: float) -> bool:
    if np.isinf(new) or np.isinf(old):
        return new == old
    return abs(new - old) <= ADAPTIVE_TOL * (1.0 + abs(old))


# the passes of a solve share the model with their nuisance, made once
@lru_cache(maxsize=1)
def _with_nuisance(model: FrmModel, value: float) -> FrmModel:
    return dataclasses.replace(model, working_variance=dataclasses.replace(
        model.working_variance, value=value))


def adaptive_fit(model, data: PairData, config: FitConfig | None = None) -> FitResult:
    """Fit with the working-variance nuisance estimated from the data.

    Working variances without a nuisance parameter are solved directly
    (zero adaptive rounds).  A nuisance given on the model is an
    InputError: ``solve_ugee`` holds it fixed.  The scale nuisances, c of ``constant`` and
    tau2 of ``propmean``, cancel from the estimating equations and from
    the sandwich, so they take one solve (one round): c is var(f) at any
    beta and is set before it, tau2 starts at 1 and is estimated once at
    the solution.  The ``nb`` dispersion changes the weights, so its
    estimation alternates with re-solving until it settles; NonConvergence
    carries the trace of its iterates if it does not.  ``iterations`` is
    summed over all solves.  One worker set serves every pass, and the
    last round's solve ends in the sandwich sums (see ``_newton``), from
    its start on for nb, whose last solve usually takes no step.

    An nb fit over at least ``WARM_PAIRS`` pairs without a given
    ``init_beta`` starts warm: from the beta and tau at which the rounds
    settle on ``_subsample(data)``, the complete pairs of ``WARM_SUBJECTS``
    subjects that depend on n alone, instead of from the default start
    and tau = inf.  The full data then take about half as many passes.
    ``iterations``, ``nuisance_rounds`` and the NonConvergence trace count
    the solves and rounds on the full data only, and the trace starts at
    the subsample's tau.  When the subsample fit raises EvaluationError,
    SingularInformation or NonConvergence, the fit starts cold.
    """
    config = config or FitConfig()
    wv = model.working_variance
    if wv is None or not wv.has_nuisance:
        return solve_ugee(model, data, config)
    if wv.value is not None:
        raise InputError(f"adaptive_fit estimates the {wv.kind} nuisance, and the model "
                         f"gives it as {wv.value!r}; solve_ugee holds it fixed")
    # c of constant is var(f) at every beta; nb starts at variance-equals-mean
    value = (_constant_nuisance(data) if wv.kind == "constant"
             else 1.0 if wv.kind == "propmean" else float("inf"))
    beta = config.init_beta
    if wv.kind == "nb" and beta is None and data.n_pairs >= WARM_PAIRS:
        value, beta = _warm_start(model, data, config)
    with _bind(model, data, beta) as bound:
        return _adaptive(bound._replace(value=value), wv.kind, config)


def _subsample(data: PairData) -> PairData:
    """The complete pairs of ``WARM_SUBJECTS`` subjects of ``data``, drawn
    without replacement by a generator seeded with ``WARM_SEED``, so they
    depend on n alone.  Their rows are gathered by linear pair index, in
    the canonical order of the subsample."""
    subjects = np.sort(np.random.default_rng(WARM_SEED).choice(
        data.n, WARM_SUBJECTS, replace=False))
    a, b = pair_indices(WARM_SUBJECTS, 0, pair_count(WARM_SUBJECTS))
    rows = pair_rows(data.n, subjects[a], subjects[b])
    return PairData(n=WARM_SUBJECTS, x=data.x[rows], f=data.f[rows])


def _warm_start(model: FrmModel, data: PairData, config: FitConfig):
    """(tau, beta) at which the nb rounds of ``adaptive_fit`` settle on
    ``_subsample(data)``, without their sandwich; (inf, None), the cold
    start, when the fit raises EvaluationError, SingularInformation or
    NonConvergence, as rounds that do not settle do."""
    cold = float("inf")
    try:
        with _bind(model, _subsample(data)) as bound:
            result = _adaptive(bound._replace(value=cold), "nb", config, sandwich=False)
    except (EvaluationError, SingularInformation, NonConvergence):
        return cold, None
    return result.nuisance, result.beta


def _adaptive(bound: _Bound, kind: str, config: FitConfig,
              sandwich: bool = True) -> FitResult:
    """``adaptive_fit`` of a model with a ``kind`` nuisance on ``bound``,
    whose checks ran once, from the nuisance ``bound.value`` on.  Each
    round is ``bound`` with the new nuisance and the last solution as its
    start.  With ``sandwich`` the one solve of constant and the settled nb
    round's, from its start on, end in the sandwich sums (propmean's is
    at the new tau2); without, no sandwich pass is made and the result
    (also that of the NonConvergence of rounds that do not settle) has no
    sandwich."""
    trace = [bound.value]
    result, sums = _solve(bound, config, sandwich=sandwich and kind == "constant")
    iterations = result.iterations
    rounds, done = 1, True
    if kind == "propmean":
        bound = bound._replace(value=_nuisance(kind, bound, result.beta), beta=result.beta)
    elif kind == "nb":
        for rounds in range(1, ADAPTIVE_MAX_ROUNDS + 1):
            new = _nuisance(kind, bound, result.beta)
            trace.append(new)
            done = _nuisance_close(new, bound.value)
            bound = bound._replace(value=new, beta=result.beta)
            last = done and sandwich
            start = bound.evaluate(bound.beta, sandwich=True) if last else None
            result, sums = _solve(bound, config, start, last)
            iterations += result.iterations
            if done:
                break
    result = dataclasses.replace(result, iterations=iterations)
    if sandwich:
        result = _with_sandwich(bound, result, sums)
    if not done:
        raise NonConvergence(
            f"adaptive working-variance loop did not settle in "
            f"{ADAPTIVE_MAX_ROUNDS} rounds", trace=trace, result=result)
    return dataclasses.replace(result, nuisance=bound.value, nuisance_rounds=rounds)


# --------------------------------------------------------------------------- #
# Convenience fits for the two-dimensional models
# --------------------------------------------------------------------------- #

def _rating_matrix(ratings) -> np.ndarray:
    ratings = np.asarray(ratings, dtype=float)
    if ratings.ndim != 2 or ratings.shape[1] < 2:
        raise InputError("ratings must be an (n, K>=2) matrix")
    return ratings


def icc_pair_data(ratings: np.ndarray) -> PairData:
    """Pairwise two-component agreement responses from an (n, K) rating matrix."""
    return _subject_pairs(Kernel.icc(), _rating_matrix(ratings))


def fit_icc(ratings: np.ndarray, config: FitConfig | None = None) -> FitResult:
    """Agreement fit: returns (tau2, rho) with sandwich covariance.

    The result equals ``solve_ugee(IccModel(K), icc_pair_data(ratings))``
    bit for bit, but the agreement responses are evaluated a pair chunk at
    a time into the sufficient statistics (``_moment_stats``), so no
    ``PairData`` is built and the fit holds O(n + ``CHUNK_PAIRS``) values.
    """
    ratings = _rating_matrix(ratings)
    model = IccModel(raters=ratings.shape[1])
    config = config or FitConfig()
    with np.errstate(over="ignore", invalid="ignore"):   # raised below
        responses = _responses_of(Kernel.icc(), ratings)

    def rows(sl, i1, i2):
        with np.errstate(over="ignore", invalid="ignore"):
            f = responses(i1, i2)
        if not np.all(np.isfinite(f)):
            raise InputError("pair data must be finite")
        return model.responses(f)

    return _fit(_moment_bind(model, len(ratings), rows, config.init_beta), config)


def fit_mean_variance(data: PairData, config: FitConfig | None = None) -> FitResult:
    """Fit (mu, sigma2) of a pairwise response; equals the pairwise mean and
    centered second moment in closed form."""
    return solve_ugee(MeanVarianceModel(), data, config)
