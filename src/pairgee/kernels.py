"""Between-subject response functions f(y1, y2).

The pairwise response of a regression on between-subject attributes is a
function of two subjects' outcome vectors: a compositional distance, a rank
indicator, a squared difference, or the two-component rater-agreement
kernel.  Custom kernels are accepted as caller-supplied pure functions.

Compositions
------------
Compositional outcomes (relative abundances) must be strictly positive and
sum to one.  Raw counts with zeros are repaired first, a whole count
matrix at once, and then closed (renormalised); the distance itself
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
    """Replace zeros in a nonnegative count vector and close it to sum one:
    the one-row case of ``_close_counts``."""
    raw = np.atleast_1d(np.asarray(raw_counts, dtype=float))
    return Composition(_close_counts(raw[None], policy, eps)[0],
                       pseudocount_applied=bool(np.any(raw == 0) or eps > 0))


@np.errstate(over="ignore", invalid="ignore")   # raised below as not finite
def _close_counts(counts: np.ndarray, policy: str, eps: float) -> np.ndarray:
    """The rows of an (n, m) count matrix with zeros replaced, each closed to
    sum one.  ``half-min`` sets a row's zeros to half its least positive
    entry; ``additive`` adds ``eps``, which no other policy reads.  Raises on
    bad counts, an all-zero row, an ``eps`` other than 0 under ``half-min``,
    fewer than 2 columns and closed entries not finite and positive."""
    raw = np.asarray(counts, dtype=float)
    if np.any(~np.isfinite(raw)) or np.any(raw < 0):
        raise InputError("counts must be finite and nonnegative")
    if np.any(raw.max(axis=1, initial=0.0) == 0):
        raise InputError("all-zero count vector cannot be closed to a composition")
    if policy == "half-min":
        if eps != 0:
            raise InputError(f"half-min pseudocount takes no eps, got {eps}")
        out = np.where(raw > 0, raw, 0.5 * np.where(raw > 0, raw, np.inf).min(
            axis=1, keepdims=True))
    elif policy == "additive":
        if not 0 <= eps < np.inf:   # nan fails too
            raise InputError(f"additive pseudocount eps must be finite and "
                             f"nonnegative, got {eps}")
        out = raw + eps
        if np.any(out <= 0):
            raise InputError("additive pseudocount left nonpositive entries")
    else:
        raise InputError(f"unknown pseudocount policy {policy!r}")
    if raw.shape[1] < 2:
        raise InputError("a composition needs at least 2 components")
    closed = out / out.sum(axis=1, keepdims=True)
    if not np.all((closed > 0) & (closed < np.inf)):   # nan fails both
        raise InputError("composition entries must be finite and strictly positive")
    return closed


def clr(values: np.ndarray) -> np.ndarray:
    """Centered log-ratio transform: log(v) minus its mean (rows of a matrix)."""
    logv = np.log(np.asarray(values, dtype=float))
    return logv - logv.mean(axis=-1, keepdims=True)


def aitchison_distance(y1, y2) -> float:
    """Compositional (log-ratio) distance between two abundance vectors.

    d(y1, y2) = || clr(y1) - clr(y2) ||_2 with clr the centered log-ratio
    transform.  Symmetric, zero iff the closed compositions coincide, and
    invariant to rescaling either argument before closure.  ``y1`` and
    ``y2`` are Compositions or arrays, checked by ``pairwise_responses``.
    """
    v1, v2 = (y.values if isinstance(y, Composition) else np.asarray(y, dtype=float)
              for y in (y1, y2))
    if v1.size != v2.size:
        raise InputError(f"composition lengths differ: {v1.size} vs {v2.size}")
    return float(pairwise_responses(Kernel.aitchison(), np.vstack([v1, v2]),
                                    np.array([0]), np.array([1]))[0])


@dataclass(frozen=True)
class Kernel:
    """A pairwise response function and its output dimension.

    A built-in kind fixes its ``output_dim`` (2 for ``icc``, else 1), and
    a custom one needs it at least 1; ``ties`` (``le`` or ``midrank``) is
    read by ``mww`` alone, and another kind takes only ``le``.  ``func`` is
    taken by ``kind="custom"`` alone and must be a pure function of two
    outcome vectors returning a float (output_dim 1) or a sequence
    (output_dim > 1).  The kernel need not be symmetric: the projection
    machinery adds each stored ordered score to both members of the pair.
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
        if self.func is not None and self.kind != "custom":
            raise InputError(f"{self.kind} kernel takes no func")
        if self.ties != "le" and self.kind != "mww":
            raise InputError(f"{self.kind} kernel takes no ties")
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
    A built-in kernel fills one preallocated output ``ustat.CHUNK_PAIRS``
    pairs at a time, so its temporaries are O(chunk x outcome length) for
    any pair count.  Custom kernels run per pair and wrap failures with
    the offending pair index.  The ``mww`` and ``sqhalfdiff`` kernels take
    one outcome column; a 1-d ``Y`` is read as one.  An index outside the
    rows of ``Y`` is an InputError.
    """
    Y = np.asarray(Y, dtype=float)
    lo = min(i1.min(initial=0), i2.min(initial=0))
    hi = max(i1.max(initial=0), i2.max(initial=0))
    if lo < 0 or hi >= len(Y):
        raise InputError(f"pair index {lo if lo < 0 else hi} is outside the "
                         f"{len(Y)} subjects")
    return _responses_of(kernel, Y)(i1, i2)


def _responses_of(kernel: Kernel, Y: np.ndarray):
    """``responses(i1, i2)``: ``pairwise_responses(kernel, Y, i1, i2)`` for
    indices known to be rows of ``Y``, with the kernel's checks of ``Y``
    and its per-call transform (``clr`` for aitchison, the row means and
    rater columns for icc) made once, here, for all the chunks of a build."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if kernel.kind in ("mww", "sqhalfdiff") and Y.shape[1] != 1:
        raise InputError(f"{kernel.kind} kernel needs one outcome column, "
                         f"got {Y.shape[1]}")
    if kernel.kind == "aitchison":
        if Y.shape[1] < 2:
            raise InputError("compositional distance needs outcome length >= 2")
        if not np.all((Y > 0) & (Y < np.inf)):   # nan fails both
            raise InputError("compositional distance needs finite, strictly positive "
                             "outcomes; apply a pseudocount policy first")
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
        m1, raters = Y.mean(axis=1), np.ascontiguousarray(Y.T)

        def part(a, b):
            # one 1-d gather per rater and the squares added in rater order:
            # the bits of np.mean((Y[a] - Y[b]) ** 2, axis=1) up to 7 raters
            d = raters[0][a] - raters[0][b]
            total = d * d
            for col in raters[1:]:
                d = col[a] - col[b]
                total += d * d
            return np.column_stack([0.5 * (m1[a] - m1[b]) ** 2,
                                    0.5 * (total / len(raters))])
    else:
        def responses(i1, i2):
            out = np.empty((len(i1), kernel.output_dim))
            for k in range(len(i1)):
                a, b = int(i1[k]), int(i2[k])
                try:
                    val = np.asarray(kernel.func(Y[a], Y[b]), dtype=float).ravel()
                except Exception as exc:  # noqa: BLE001 - propagate with pair context
                    raise EvaluationError(f"custom kernel failed on pair ({a}, {b}): "
                                          f"{exc}", pair=(a, b)) from exc
                if val.size != kernel.output_dim:
                    raise EvaluationError(
                        f"custom kernel on pair ({a}, {b}) returned a value of size "
                        f"{val.size}, not output_dim={kernel.output_dim}", pair=(a, b))
                out[k] = val
            if not np.all(np.isfinite(out)):
                bad = int(np.argmax(~np.isfinite(out).all(axis=1)))
                raise EvaluationError(
                    f"custom kernel returned a non-finite value on pair "
                    f"({int(i1[bad])}, {int(i2[bad])})", pair=(int(i1[bad]), int(i2[bad])))
            return out[:, 0] if kernel.output_dim == 1 else out
        return responses

    def responses(i1, i2):
        out = np.empty((len(i1), 2) if kernel.kind == "icc" else len(i1))
        for lo in range(0, len(i1), ustat.CHUNK_PAIRS):
            sl = slice(lo, lo + ustat.CHUNK_PAIRS)
            out[sl] = part(i1[sl], i2[sl])
        return out

    return responses
