"""Pair enumeration, U-statistic means, and projection-variance estimation.

Statistics built from all n(n-1)/2 subject pairs are correlated through
shared subjects.  The machinery here turns per-pair scores into per-subject
projected scores (each pair contributes to both of its members), whose
empirical covariance estimates the projection variance that drives the
asymptotics of pair-based estimators.

Pair indices are 0-based with i1 < i2, enumerated lexicographically;
this ordering is fixed project-wide and shared with the binary dump format.

Determinism
-----------
Reductions over pairs run in fixed-size chunks (``CHUNK_PAIRS`` pairs)
whose partial sums are added to a running total in chunk order, so a
result depends on the chunk size but on nothing else.
"""

from __future__ import annotations

# Not used here: the benchmark tracer (bench/spans.py) counts thread pools
# by replacing this module attribute.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass

import numpy as np

from .errors import InputError

CHUNK_PAIRS = 16384


def enumerate_pairs(n: int) -> np.ndarray:
    """All 0-based index pairs (i1, i2) with i1 < i2, in lexicographic order.

    Returns an (n(n-1)/2, 2) int array.
    """
    if n < 2:
        raise InputError(f"need at least 2 subjects to form pairs, got {n}")
    i1, i2 = np.triu_indices(n, k=1)
    return np.column_stack([i1, i2]).astype(np.int64)


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def chunk_slices(n_items: int, chunk: int = CHUNK_PAIRS) -> list[slice]:
    """Fixed partition of range(n_items) into consecutive chunks."""
    return [slice(lo, min(lo + chunk, n_items)) for lo in range(0, n_items, chunk)]


def chunked_reduce(fn, n_items: int, *, chunk: int = CHUNK_PAIRS):
    """Sum ``fn(slice)`` over a fixed chunking of ``range(n_items)``.

    ``fn`` returns a tuple of arrays (or scalars); each chunk's result is
    added to a running total in chunk-index order.
    """
    if n_items == 0:
        raise InputError("nothing to reduce over")
    total = None
    for sl in chunk_slices(n_items, chunk):
        part = fn(sl)
        total = part if total is None else tuple(t + p for t, p in zip(total, part))
    return tuple(total)


# --------------------------------------------------------------------------- #
# Pair score tables
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class PairScoreTable:
    """Complete table of per-pair score vectors over all n(n-1)/2 pairs.

    ``scores[k]`` belongs to the k-th pair of ``enumerate_pairs(n)``.
    Scores of order-dependent kernels are stored as evaluated on the
    ordered pair (i1, i2) with i1 < i2.
    """

    n: int
    scores: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        if scores.ndim == 1:
            scores = scores[:, None]
        object.__setattr__(self, "scores", scores)
        if self.n < 2:
            raise InputError("pair score table needs n >= 2 subjects")
        expect = pair_count(self.n)
        if scores.shape[0] != expect:
            raise InputError(
                f"incomplete pair table: expected {expect} rows for n={self.n}, "
                f"got {scores.shape[0]}")
        if not np.all(np.isfinite(scores)):
            raise InputError("pair scores must all be finite")

    @property
    def q(self) -> int:
        return self.scores.shape[1]

    @staticmethod
    def from_pairs(n: int, i1: np.ndarray, i2: np.ndarray,
                   scores: np.ndarray) -> "PairScoreTable":
        """Build a canonical table from pairs given in arbitrary order."""
        i1 = np.asarray(i1, dtype=np.int64)
        i2 = np.asarray(i2, dtype=np.int64)
        scores = np.asarray(scores, dtype=float)
        if scores.ndim == 1:
            scores = scores[:, None]
        if np.any(i1 >= i2) or i1.min(initial=0) < 0 or i2.max(initial=0) >= n:
            raise InputError("pair indices must satisfy 0 <= i1 < i2 < n")
        key = i1 * np.int64(n) + i2
        if len(np.unique(key)) != len(key):
            raise InputError("duplicate pair in score table")
        if len(key) != pair_count(n):
            raise InputError(f"incomplete pair table: {len(key)} of {pair_count(n)} pairs")
        order = np.argsort(key, kind="stable")
        return PairScoreTable(n, scores[order])


def ustatistic_mean(kernel, data) -> float | np.ndarray:
    """Average of a pairwise kernel over all subject pairs.

    ``data`` is a sequence of SubjectRecord or a 2-d outcome array with one
    subject per row.  Summation runs in deterministic chunk order.  Returns
    a float for scalar kernels, else a vector.
    """
    from .kernels import pairwise_responses
    from .model import SubjectRecord, stack_subjects

    if len(data) and isinstance(data[0], SubjectRecord):
        _, Y, _ = stack_subjects(data)
    else:
        Y = np.atleast_2d(np.asarray(data, dtype=float))
        if Y.shape[0] == 1 and np.asarray(data).ndim == 1:
            Y = Y.T
    n = Y.shape[0]
    pairs = enumerate_pairs(n)
    i1, i2 = pairs[:, 0], pairs[:, 1]

    def part(sl: slice):
        vals = pairwise_responses(kernel, Y, i1[sl], i2[sl])
        return (np.sum(np.atleast_2d(vals.T).T, axis=0),)

    (total,) = chunked_reduce(part, len(pairs))
    mean = total / len(pairs)
    return float(mean[0]) if kernel.output_dim == 1 else mean


# --------------------------------------------------------------------------- #
# Projection of pair scores onto subjects
# --------------------------------------------------------------------------- #

def interleaved_accumulate(n: int, i1: np.ndarray, i2: np.ndarray,
                           scores: np.ndarray) -> np.ndarray:
    """Per-subject sums of the scores of own pairs, shape (n, q).

    Each pair score is added to both members' sums, starting from zero, in
    the sequential order (i1[0], i2[0], i1[1], i2[1], ...), which makes the
    result bit-identical to a plain loop over pairs.
    """
    idx = np.empty(2 * len(i1), dtype=np.int64)
    idx[0::2] = i1
    idx[1::2] = i2
    acc = np.empty((n, scores.shape[1]))
    for j in range(scores.shape[1]):
        acc[:, j] = np.bincount(idx, weights=np.repeat(scores[:, j], 2), minlength=n)
    return acc


def hajek_scores(table: PairScoreTable) -> np.ndarray:
    """Per-subject projected scores: (2/(n-1)) * sum of scores of own pairs.

    Each pair's score is added to the accumulators of both of its members,
    so every score contributes exactly twice and the projected scores sum
    to 2/(n-1) times twice the grand score total.  Returns shape (n, q).
    """
    n = table.n
    pairs = enumerate_pairs(n)
    acc = interleaved_accumulate(n, pairs[:, 0], pairs[:, 1], table.scores)
    return acc * (2.0 / (n - 1))


def projection_variance(hajek: np.ndarray) -> np.ndarray:
    """Empirical covariance of per-subject projected scores, centered at their mean.

    Returns the (q, q) matrix sum_j (v_j - vbar)(v_j - vbar)' / n; symmetric
    positive semidefinite by construction.  Accumulation runs subject by
    subject in index order so the result is reproducible bit for bit.
    """
    v = np.atleast_2d(np.asarray(hajek, dtype=float))
    if v.ndim != 2 or v.shape[0] < 2:
        raise InputError("need projected scores for at least 2 subjects")
    n, q = v.shape
    vbar = np.zeros(q)
    for j in range(n):
        vbar += v[j]
    vbar /= n
    out = np.zeros((q, q))
    for j in range(n):
        d = v[j] - vbar
        out += np.outer(d, d)
    return out / n


# --------------------------------------------------------------------------- #
# Binary dump (debugging aid)
# --------------------------------------------------------------------------- #

def _row_dtype(q: int) -> np.dtype:
    return np.dtype([("i1", "<u4"), ("i2", "<u4"), ("score", "<f8", (q,))])


def dump_pair_scores(table: PairScoreTable, path) -> None:
    """Write a pair score table as packed little-endian rows: i1, i2, q doubles."""
    pairs = enumerate_pairs(table.n)
    rows = np.empty(len(pairs), dtype=_row_dtype(table.q))
    rows["i1"] = pairs[:, 0]
    rows["i2"] = pairs[:, 1]
    rows["score"] = table.scores
    rows.tofile(path)


def load_pair_scores(path, q: int = 1) -> PairScoreTable:
    """Read a table written by ``dump_pair_scores`` (q must be known)."""
    rows = np.fromfile(path, dtype=_row_dtype(q))
    if rows.size == 0:
        raise InputError(f"empty pair score dump: {path}")
    # recover n from the triangular count
    n = int(round(0.5 * (1 + np.sqrt(1 + 8 * rows.size))))
    return PairScoreTable.from_pairs(n, rows["i1"].astype(np.int64),
                                     rows["i2"].astype(np.int64), rows["score"])
