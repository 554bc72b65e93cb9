"""Between-subject response functions f(y1, y2).

The pairwise response of a regression on between-subject attributes is a
function of two subjects' outcome vectors: a compositional distance, a rank
indicator, a squared difference, or the two-component rater-agreement
kernel.  Custom kernels are accepted as caller-supplied pure functions.

Compositions
------------
Compositional outcomes (relative abundances) must be strictly positive and
sum to one.  Raw count vectors with zeros are repaired first with
``apply_pseudocount`` and then closed (renormalised); the distance itself
is the Euclidean distance between centered-log-ratio transforms, which
makes it invariant to rescaling a composition before closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import ustat
from .errors import EvaluationError, InputError

KERNEL_KINDS = ("aitchison", "mww", "sqhalfdiff", "icc", "custom")

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Composition:
    """Strictly positive relative-abundance vector summing to one."""

    values: np.ndarray
    pseudocount_applied: bool = False

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", vals)
        if vals.size < 2:
            raise InputError("a composition needs at least 2 components")
        if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
            raise InputError("composition entries must be finite and strictly positive")
        total = vals.sum()
        if abs(total - 1.0) > _SUM_TOL * max(1.0, vals.size):
            raise InputError(f"composition must sum to 1, got {total!r}")


def apply_pseudocount(raw_counts: np.ndarray, policy: str = "half-min",
                      eps: float = 0.0) -> Composition:
    """Replace zeros in a nonnegative count vector and close it to sum one.

    policy:
      ``half-min``   zeros become half the smallest positive entry
      ``additive``   ``eps`` is added to every entry

    Raises on an all-zero vector, and on an additive policy that leaves
    nonpositive entries behind.
    """
    raw = np.atleast_1d(np.asarray(raw_counts, dtype=float))
    if np.any(~np.isfinite(raw)) or np.any(raw < 0):
        raise InputError("counts must be finite and nonnegative")
    positive = raw[raw > 0]
    if positive.size == 0:
        raise InputError("all-zero count vector cannot be closed to a composition")
    if policy == "half-min":
        out = np.where(raw > 0, raw, 0.5 * positive.min())
    elif policy == "additive":
        if eps < 0:
            raise InputError("additive pseudocount must be nonnegative")
        out = raw + eps
        if np.any(out <= 0):
            raise InputError("additive pseudocount left nonpositive entries")
    else:
        raise InputError(f"unknown pseudocount policy {policy!r}")
    return Composition(out / out.sum(), pseudocount_applied=bool(np.any(raw == 0) or eps > 0))


def clr(values: np.ndarray) -> np.ndarray:
    """Centered log-ratio transform: log(v) minus its mean (rows of a matrix)."""
    logv = np.log(np.asarray(values, dtype=float))
    return logv - logv.mean(axis=-1, keepdims=True)


def _composition_values(y) -> np.ndarray:
    if isinstance(y, Composition):
        return y.values
    vals = np.atleast_1d(np.asarray(y, dtype=float))
    if vals.size < 2:
        raise InputError("compositional distance needs vectors of length >= 2")
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
        raise InputError("compositional distance needs strictly positive entries; "
                         "apply a pseudocount policy first")
    return vals


def aitchison_distance(y1, y2) -> float:
    """Compositional (log-ratio) distance between two abundance vectors.

    d(y1, y2) = || clr(y1) - clr(y2) ||_2 with clr the centered log-ratio
    transform.  Symmetric, zero iff the closed compositions coincide, and
    invariant to rescaling either argument before closure.
    """
    v1 = _composition_values(y1)
    v2 = _composition_values(y2)
    if v1.size != v2.size:
        raise InputError(f"composition lengths differ: {v1.size} vs {v2.size}")
    return float(pairwise_responses(Kernel.aitchison(), np.vstack([v1, v2]),
                                    np.array([0]), np.array([1]))[0])


def mww_indicator(y1: float, y2: float, ties: str = "le") -> float:
    """Rank indicator I(y1 <= y2) for one pair of scalar outcomes.

    Ties score 1 under the default ``ties="le"`` convention; pass
    ``ties="midrank"`` to score ties 1/2 instead.
    """
    if ties not in ("le", "midrank"):
        raise InputError(f"unknown tie convention {ties!r}")
    if y1 == y2:
        return 0.5 if ties == "midrank" else 1.0
    return 1.0 if y1 < y2 else 0.0


def sq_half_diff(y1: float, y2: float) -> float:
    """Half squared difference (y1 - y2)^2 / 2; its mean over pairs is a variance."""
    d = float(y1) - float(y2)
    return 0.5 * d * d


def icc_pair_kernel(r1: np.ndarray, r2: np.ndarray) -> tuple[float, float]:
    """Two-component agreement kernel for one pair of rating vectors.

    f1 = (mean(r1) - mean(r2))^2 / 2            between-subject part
    f2 = mean over raters of (r1k - r2k)^2 / 2  total part

    Symmetric in its arguments.
    """
    r1 = np.atleast_1d(np.asarray(r1, dtype=float))
    r2 = np.atleast_1d(np.asarray(r2, dtype=float))
    if r1.size != r2.size:
        raise InputError(f"rating lengths differ: {r1.size} vs {r2.size}")
    if r1.size < 2:
        raise InputError("agreement kernel needs at least 2 raters")
    f1 = 0.5 * (r1.mean() - r2.mean()) ** 2
    f2 = 0.5 * np.mean((r1 - r2) ** 2)
    return float(f1), float(f2)


@dataclass(frozen=True)
class Kernel:
    """A pairwise response function and its output dimension.

    A built-in kind fixes its ``output_dim`` (2 for ``icc``, else 1), and
    a custom one needs it at least 1; ``ties`` (``le`` or ``midrank``) is
    read by ``mww`` alone.  ``func`` is only used for ``kind="custom"`` and
    must be a pure function of two outcome vectors returning a float
    (output_dim 1) or a sequence (output_dim > 1).  The kernel need not be
    symmetric: the projection machinery adds each stored ordered score to
    both members of the pair.
    """

    kind: str
    output_dim: int | None = None
    func: Callable | None = None
    ties: str = "le"

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise InputError(f"unknown kernel kind {self.kind!r}")
        if self.ties not in ("le", "midrank"):
            raise InputError(f"unknown tie convention {self.ties!r}")
        if self.kind == "custom" and self.func is None:
            raise InputError("custom kernel needs a function")
        dim = 2 if self.kind == "icc" else 1
        if self.output_dim is None:
            object.__setattr__(self, "output_dim", dim)
        elif self.output_dim != dim and self.kind != "custom":
            raise InputError(f"{self.kind} kernel has output_dim {dim}, "
                             f"got {self.output_dim}")
        elif self.output_dim < 1:
            raise InputError(f"custom kernel output_dim must be >= 1, "
                             f"got {self.output_dim}")

    @staticmethod
    def aitchison() -> "Kernel":
        return Kernel("aitchison")

    @staticmethod
    def mww(ties: str = "le") -> "Kernel":
        return Kernel("mww", ties=ties)

    @staticmethod
    def sqhalfdiff() -> "Kernel":
        return Kernel("sqhalfdiff")

    @staticmethod
    def icc() -> "Kernel":
        return Kernel("icc")

    @staticmethod
    def custom(func: Callable, output_dim: int = 1) -> "Kernel":
        return Kernel("custom", output_dim=output_dim, func=func)


def pairwise_responses(kernel: Kernel, Y: np.ndarray,
                       i1: np.ndarray, i2: np.ndarray) -> np.ndarray:
    """Evaluate a kernel over an index array of pairs.

    Returns shape (n_pairs,) for scalar kernels and (n_pairs, d) otherwise.
    A built-in kernel computes its per-call transform once (``clr`` for
    aitchison, the row means for icc) and fills one preallocated output
    ``ustat.CHUNK_PAIRS`` pairs at a time, so its temporaries are O(chunk x
    outcome length) for any pair count.  Custom kernels run per pair and
    wrap failures with the offending pair index.  The ``mww`` and
    ``sqhalfdiff`` kernels take one outcome column.
    """
    Y = np.asarray(Y, dtype=float)
    if kernel.kind in ("mww", "sqhalfdiff") and Y.shape[1] != 1:
        raise InputError(f"{kernel.kind} kernel needs one outcome column, "
                         f"got {Y.shape[1]}")
    if kernel.kind == "aitchison":
        if Y.shape[1] < 2:
            raise InputError("compositional distance needs outcome length >= 2")
        if np.any(Y <= 0):
            raise InputError("compositional distance needs strictly positive outcomes; "
                             "apply a pseudocount policy first")
        C = clr(Y)

        def part(a, b):
            diff = C[a] - C[b]
            return np.sqrt(np.einsum("ij,ij->i", diff, diff))
    elif kernel.kind == "mww":
        y = Y[:, 0]

        def part(a, b):
            if kernel.ties == "midrank":
                return np.where(y[a] < y[b], 1.0, np.where(y[a] == y[b], 0.5, 0.0))
            return y[a] <= y[b]
    elif kernel.kind == "sqhalfdiff":
        y = Y[:, 0]

        def part(a, b):
            d = y[a] - y[b]
            return 0.5 * d * d
    elif kernel.kind == "icc":
        if Y.shape[1] < 2:
            raise InputError("agreement kernel needs at least 2 raters")
        m1 = Y.mean(axis=1)

        def part(a, b):
            return np.column_stack([0.5 * (m1[a] - m1[b]) ** 2,
                                    0.5 * np.mean((Y[a] - Y[b]) ** 2, axis=1)])
    else:
        out = np.empty((len(i1), kernel.output_dim))
        for k in range(len(i1)):
            a, b = int(i1[k]), int(i2[k])
            try:
                val = kernel.func(Y[a], Y[b])
            except Exception as exc:  # noqa: BLE001 - propagate with pair context
                raise EvaluationError(f"custom kernel failed on pair ({a}, {b}): "
                                      f"{exc}", pair=(a, b)) from exc
            out[k] = val
        if not np.all(np.isfinite(out)):
            bad = int(np.argmax(~np.isfinite(out).all(axis=1)))
            raise EvaluationError(
                f"custom kernel returned a non-finite value on pair "
                f"({int(i1[bad])}, {int(i2[bad])})", pair=(int(i1[bad]), int(i2[bad])))
        return out[:, 0] if kernel.output_dim == 1 else out
    out = np.empty((len(i1), 2) if kernel.kind == "icc" else len(i1))
    for lo in range(0, len(i1), ustat.CHUNK_PAIRS):
        sl = slice(lo, lo + ustat.CHUNK_PAIRS)
        out[sl] = part(i1[sl], i2[sl])
    return out
