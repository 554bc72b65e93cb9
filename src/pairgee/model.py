"""Model definitions for pairwise-attribute regression.

A model couples a mean function (link applied to a linear predictor of a
between-subject covariate) with a working variance for the pairwise
response.  This module holds the model pieces: subject records, the pair
covariate constructions evaluated over index arrays of pairs, working
variances, the design of the scalar model, and the dedicated mean maps of
the two-dimensional models (rater-agreement and mean/variance-of-distance).

Everything here is value-semantics and side-effect free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .errors import InputError
from .links import LINK_KINDS

PAIR_TRANSFORMS = ("difference", "sum", "concatenate", "onehot")
VARIANCE_KINDS = ("constant", "poisson", "propmean", "nb", "bernoulli", "userfixed")
# Short names of the kinds that need no per-pair values, as the CLI's
# --working-variance and the study's ugee:<name> methods spell them.
VARIANCE_FLAGS = {"const": "constant", "poisson": "poisson", "propmean": "propmean",
                  "nb": "nb", "bernoulli": "bernoulli"}


def _integer_setting(name: str, value) -> int:
    """``value``, a Python or numpy integer, as an int; else an InputError naming ``name``."""
    if not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(value)


# --------------------------------------------------------------------------- #
# Subject-level data
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class SubjectRecord:
    """One subject's raw data: outcome vector ``y`` and covariate vector ``x``.

    ``y`` has length m >= 1 (a scalar outcome is a length-1 vector); ``x``
    has length p >= 0.  All entries must be finite.
    """

    id: object
    y: np.ndarray
    x: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        object.__setattr__(self, "y", np.atleast_1d(np.asarray(self.y, dtype=float)))
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float))
                           if np.size(self.x) else np.empty(0))
        if self.y.ndim != 1 or self.y.size < 1:
            raise InputError(f"subject {self.id!r}: y must be a nonempty vector")
        if not np.all(np.isfinite(self.y)):
            raise InputError(f"subject {self.id!r}: non-finite outcome entry")
        if self.x.size and not np.all(np.isfinite(self.x)):
            raise InputError(f"subject {self.id!r}: non-finite covariate entry")


def stack_subjects(records: Sequence[SubjectRecord]) -> tuple[list, np.ndarray, np.ndarray]:
    """Validate a homogeneous dataset and stack it into (ids, Y, X) arrays.

    Every record must share the same outcome length m and covariate length p,
    and ids must be unique.
    """
    if len(records) < 1:
        raise InputError("empty subject dataset")
    m = records[0].y.size
    p = records[0].x.size
    ids = []
    for rec in records:
        if rec.y.size != m or rec.x.size != p:
            raise InputError(
                f"subject {rec.id!r}: inconsistent dimensions "
                f"(expected m={m}, p={p}; got m={rec.y.size}, p={rec.x.size})")
        ids.append(rec.id)
    if len(set(ids)) != len(ids):
        raise InputError("duplicate subject ids in dataset")
    Y = np.vstack([rec.y for rec in records])
    X = (np.vstack([rec.x for rec in records]) if p else
         np.empty((len(records), 0)))
    return ids, Y, X


# --------------------------------------------------------------------------- #
# Pairwise covariate constructions
# --------------------------------------------------------------------------- #

def onehot_pair_labels(levels: int) -> list[tuple[int, int]]:
    """Unordered level pairs (k1, k2), k1 <= k2, in the fixed slot order."""
    return [(k1, k2) for k1 in range(1, levels + 1) for k2 in range(k1, levels + 1)]


@dataclass(frozen=True)
class PairCovariate:
    """Recipe turning two subjects' covariate vectors into one pair covariate.

    transform:
      ``difference``   x1 - x2 (antisymmetric), requires equal dims
      ``sum``          x1 + x2 (symmetric), requires equal dims
      ``concatenate``  (x1', x2')'
      ``onehot``       unordered-pair indicators of a single categorical
                       covariate with ``levels`` categories
    """

    transform: str
    levels: int = 0  # only for onehot

    def __post_init__(self):
        if self.transform not in PAIR_TRANSFORMS:
            raise InputError(f"unknown pair transform {self.transform!r}")
        if self.transform == "onehot" and self.levels < 1:
            raise InputError("onehot transform requires levels >= 1")
        if self.transform != "onehot" and self.levels:
            raise InputError(f"{self.transform} transform takes no levels")

    def output_dim(self, p: int) -> int:
        if self.transform in ("difference", "sum"):
            return p
        if self.transform == "concatenate":
            return 2 * p
        return self.levels + self.levels * (self.levels - 1) // 2


def pair_covariate_matrix(spec: PairCovariate, X: np.ndarray,
                          i1: np.ndarray, i2: np.ndarray) -> np.ndarray:
    """The pair covariates of the pairs (i1, i2) of the rows of ``X``.

    Returns shape (n_pairs, ``spec.output_dim(p)``).  A ``onehot`` row has
    one slot per unordered level pair, in the order of
    ``onehot_pair_labels``: (1,1), (1,2), ..., (1,K), (2,2), ..., (K,K).
    Exactly one entry is 1, the same for (i1, i2) as for (i2, i1), so
    concordant and discordant pairs get distinct slots but the subject
    order within a pair is irrelevant.
    """
    X = np.asarray(X, dtype=float)
    if spec.transform in ("difference", "sum"):   # a 1-d gather per column, not per row
        op = np.subtract if spec.transform == "difference" else np.add
        out = np.empty((len(i1), X.shape[1]))
        for j, col in enumerate(X.T):
            op(col[i1], col[i2], out=out[:, j])
        return out
    if spec.transform == "concatenate":
        return np.hstack([X[i1], X[i2]])
    if X.shape[1] != 1:
        raise InputError("onehot transform needs a single categorical covariate")
    levels = spec.levels
    col = X[:, 0]
    if np.any(np.floor(col) != col):
        raise InputError("categorical covariate has non-integer levels")
    # checked on the floats: a level beyond the int64 range has no cast
    if col.min(initial=levels) < 1 or col.max(initial=1) > levels:
        raise InputError(f"categorical level outside 1..{levels}")
    ints = col.astype(np.int64)
    lo = np.minimum(ints[i1], ints[i2])
    hi = np.maximum(ints[i1], ints[i2])
    # row-major over lo <= hi: the offset of row lo, plus hi - lo
    slots = (lo - 1) * levels - (lo - 1) * (lo - 2) // 2 + (hi - lo)
    out = np.zeros((len(i1), spec.output_dim(1)))
    out[np.arange(len(i1)), slots] = 1.0
    return out


# --------------------------------------------------------------------------- #
# Working variances
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class WorkingVariance:
    """Assumed form of Var(f | X) used to weight the estimating equations.

    kind:
      ``constant``   V = c                       (value = c)
      ``poisson``    V = h
      ``propmean``   V = tau2 * h                (value = tau2)
      ``nb``         V = h * (1 + h / tau)       (value = tau; inf => Poisson)
      ``bernoulli``  V = h * (1 - h), needs h in (0, 1); under the expit
                     and probitc links 1 - h is evaluated from eta
      ``userfixed``  per-pair values supplied by the caller as ``per_pair``,
                     one per pair in ``PairData``'s canonical row order
                     (that of ``ustat.enumerate_pairs``)

    For kinds with a nuisance parameter, ``value=None`` means "not yet
    estimated"; the adaptive fitting loop fills it in.  Other kinds take
    no ``value``, and only ``userfixed`` takes ``per_pair``.
    """

    kind: str
    value: float | None = None
    per_pair: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in VARIANCE_KINDS:
            raise InputError(f"unknown working-variance kind {self.kind!r}")
        if self.value is not None and not self.has_nuisance:
            raise InputError(f"{self.kind} working variance takes no value")
        if self.per_pair is not None and self.kind != "userfixed":
            raise InputError(f"{self.kind} working variance takes no per_pair")
        if self.kind == "userfixed":
            if self.per_pair is None:
                raise InputError("userfixed working variance needs per-pair values")
            vals = np.asarray(self.per_pair, dtype=float)
            if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
                raise InputError("userfixed variances must be finite and positive")
            object.__setattr__(self, "per_pair", vals)
        # not > 0 rather than <= 0, so nan is rejected as well
        if self.value is not None and not self.value > 0:
            what = ("nb dispersion" if self.kind == "nb"
                    else f"{self.kind} variance parameter")
            raise InputError(f"{what} must be positive, got {self.value!r}")
        # an infinite tau of nb means variance equals mean; a scale is finite
        if self.value == np.inf and self.kind != "nb":
            raise InputError(f"{self.kind} variance parameter must be finite, got inf")

    @property
    def has_nuisance(self) -> bool:
        return self.kind in ("constant", "propmean", "nb")


def variance_eval(wv: WorkingVariance, h: np.ndarray,
                  rows: slice | None = None,
                  complement: np.ndarray | None = None) -> np.ndarray:
    """Evaluate the working variance at mean values ``h``.

    ``rows`` selects the matching slice of per-pair values for the
    ``userfixed`` kind.  ``complement`` is 1 - h for the ``bernoulli``
    kind, as ``links.link_complement`` evaluates it (default 1 - h).
    Caller is responsible for checking positivity of the result (the
    fitting code raises with the offending pair).
    """
    h = np.asarray(h, dtype=float)
    if wv.kind == "constant":
        c = 1.0 if wv.value is None else wv.value
        return np.full_like(h, c)
    if wv.kind == "poisson":
        return h.copy()
    if wv.kind == "propmean":
        tau2 = 1.0 if wv.value is None else wv.value
        return tau2 * h
    if wv.kind == "nb":   # h * (1 + h / tau), built in one array
        V = h / (np.inf if wv.value is None else wv.value)
        V += 1.0
        V *= h
        return V
    if wv.kind == "bernoulli":
        return h * (1.0 - h if complement is None else complement)
    vals = wv.per_pair
    return vals[rows] if rows is not None else vals.copy()


# --------------------------------------------------------------------------- #
# Scalar functional-response model
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class FrmModel:
    """Scalar model: E(f | pair covariate x) = link(beta' x [+ intercept])."""

    link: str
    working_variance: WorkingVariance
    intercept: bool = True

    def __post_init__(self):
        if self.link not in LINK_KINDS:
            raise InputError(f"unknown link kind {self.link!r}")
        if not isinstance(self.working_variance, WorkingVariance):
            raise InputError(f"working_variance must be a WorkingVariance, "
                             f"got {self.working_variance!r}")


def augment(x: np.ndarray, intercept: bool) -> np.ndarray:
    """The (q, m) design of the (m, p) pair covariates ``x``: a leading row
    of ones when the model has an intercept, then one row per covariate.

    Each row holds one design column over the m pairs contiguously, so
    products and sums over the pairs read contiguous memory.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    first = int(intercept)
    xt = np.empty((first + x.shape[1], x.shape[0]))
    if intercept:
        xt[0] = 1.0
    xt[first:] = x.T
    return xt


# --------------------------------------------------------------------------- #
# Two-dimensional mean maps
# --------------------------------------------------------------------------- #

def icc_mean_map(theta: Sequence[float], raters: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean map of the rater-agreement model and its analytic Jacobian.

    theta = (tau2, rho) with tau2 > 0.  With K = ``raters``:

        h1 = [1 + (K - 1) rho] tau2 / K      (expected squared mean gap / 2)
        h2 = tau2                            (expected per-rater squared gap / 2)

    Returns (h, J) with h = (h1, h2) and J[a, b] = dh_a / dtheta_b.
    """
    tau2, rho = float(theta[0]), float(theta[1])
    if tau2 <= 0:
        raise InputError(f"tau2 must be positive, got {tau2}")
    K = _integer_setting("raters", raters)
    if K < 2:
        raise InputError("rater-agreement model needs at least 2 raters")
    c = (1.0 + (K - 1) * rho) / K
    h = np.array([c * tau2, tau2])
    jac = np.array([[c, (K - 1) * tau2 / K],
                    [1.0, 0.0]])
    return h, jac


def meanvar_mean_map(theta: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Mean map of the two-parameter (mu, sigma2) model on (f, f^2).

    E f = mu and E f^2 = sigma2 + mu^2, so the moment equations recover the
    pairwise mean and the centered pairwise second moment in closed form.
    """
    mu, sigma2 = float(theta[0]), float(theta[1])
    h = np.array([mu, sigma2 + mu * mu])
    jac = np.array([[1.0, 0.0],
                    [2.0 * mu, 1.0]])
    return h, jac


@dataclass(frozen=True)
class IccModel:
    """Two-dimensional model for rater agreement; parameters (tau2, rho)."""

    raters: int
    param_names: ClassVar[tuple[str, str]] = ("tau2", "rho")
    working_variance: ClassVar[None] = None   # a moment model has none

    def __post_init__(self):
        _integer_setting("raters", self.raters)

    def mean_map(self, theta):
        return icc_mean_map(theta, self.raters)

    def responses(self, f: np.ndarray) -> np.ndarray:
        """The (N, 2) response matrix: the two agreement components as given."""
        if f.ndim != 2 or f.shape[1] != 2:
            raise InputError("rater-agreement model needs two-component responses")
        return f

    def init_theta(self, r_mean: np.ndarray) -> np.ndarray:
        """The default start, from the mean of the two response components."""
        tau2 = float(max(r_mean[1], 1e-12))
        return np.array([tau2, 0.0])


@dataclass(frozen=True)
class MeanVarianceModel:
    """Two-dimensional model for the mean and variance of a pairwise response."""

    param_names: ClassVar[tuple[str, str]] = ("mu", "sigma2")
    working_variance: ClassVar[None] = None   # a moment model has none

    def mean_map(self, theta):
        return meanvar_mean_map(theta)

    def responses(self, f: np.ndarray) -> np.ndarray:
        """The (N, 2) response matrix (f, f^2) of the first response component."""
        f = f if f.ndim == 1 else f[:, 0]
        return np.column_stack([f, f * f])

    def init_theta(self, r_mean: np.ndarray) -> np.ndarray:
        """The default start, from the mean of the two response components."""
        mu = float(r_mean[0])
        sigma2 = float(max(r_mean[1] - mu * mu, 1e-12))
        return np.array([mu, sigma2])
