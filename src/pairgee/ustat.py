"""Pair enumeration, U-statistic means, and projection-variance estimation.

Statistics built from all n(n-1)/2 subject pairs are correlated through
shared subjects.  The machinery here turns per-pair scores into per-subject
projected scores (each pair contributes to both of its members), whose
empirical covariance estimates the projection variance that drives the
asymptotics of pair-based estimators.

Pair indices are 0-based with i1 < i2, enumerated lexicographically;
this ordering is fixed project-wide.  It is determined by n alone, so no
pass needs index arrays over all pairs: ``pair_indices`` decodes the
pairs of any linear range [lo, hi) in O(hi - lo), and ``pair_chunks``
decodes them one chunk at a time.

Determinism
-----------
Reductions over pairs run in fixed-size chunks (``CHUNK_PAIRS`` pairs)
whose partial sums are added to a running total in chunk order, with
numpy's bundled OpenBLAS on one thread (a multithreaded BLAS splits a dot
product's sum by thread).  Each is a pass of a ``pass_workers`` set: the
one that ``fit._bind`` opens for all the passes of a call, or the one of
a moment model's statistics (``fit._moment_stats``).  With that
OpenBLAS, the passes over at least ``FORK_PAIRS`` pairs have their chunks
evaluated on the usable CPUs, chunk k by worker k mod W, worker 0 being
the calling process and the others children that the set forks once, at
its first pass, and that serve its every later pass; the parts are still
added in chunk order.  So a result depends on the chunk size, and not on
the number of CPUs or the host's BLAS threads.  ``spread`` shares a list's
items (the Monte Carlo replicates) so too; while its set has children,
their passes fork nothing.  With another BLAS nothing is forked, and the
last bits may follow that BLAS's own thread setting.
``CHUNK_PAIRS`` is the package's one chunk size: ``chunk_slices``,
``pair_chunks`` and ``pass_workers`` take no size argument and read it
when they are called, as does the bounded loop of
``kernels.pairwise_responses``, so patching it here alone sets the chunks
of every pass over pairs.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import pickle
import signal
from contextlib import closing, contextmanager
# Not used here: the benchmark tracer (bench/spans.py) counts thread pools
# by replacing this module attribute.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError
from .model import _integer_setting

CHUNK_PAIRS = 16384
# pairs from which a reduction is split across the usable CPUs; a pass
# over fewer costs less in one process than its forks and pipes.  It was
# measured for two workers, so each worker gets at least half of it.
FORK_PAIRS = 1 << 20
# False in a set's workers, and in its caller's slices while it has children
_may_fork = True


def enumerate_pairs(n: int) -> np.ndarray:
    """All 0-based index pairs (i1, i2) with i1 < i2, in lexicographic order.

    Returns an (n(n-1)/2, 2) int array.
    """
    return np.column_stack(pair_indices(n, 0, checked_pair_count(n)))


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def checked_pair_count(n: int) -> int:
    """``pair_count(n)``; fewer than 2 subjects is an InputError."""
    if n < 2:
        raise InputError(f"need at least 2 subjects to form pairs, got {n}")
    return pair_count(n)


def _row_start(n: int, a):
    """Linear index of pair (a, a + 1), the first pair whose i1 is a."""
    return a * (2 * n - a - 1) // 2


def _row_of(n: int, k: int) -> int:
    """i1 of the k-th pair: the largest a with _row_start(n, a) <= k.

    That a is the floor of the smaller root of a^2 - (2n - 1) a + 2k = 0;
    the integer square root can put the estimate one row too far.
    """
    b = 2 * n - 1
    a = (b - math.isqrt(b * b - 8 * k)) // 2
    while _row_start(n, a) > k:
        a -= 1
    return a


def pair_indices(n: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(i1, i2) of the pairs lo..hi-1 of ``enumerate_pairs(n)``, in O(hi - lo).

    The range meets the rows (runs of equal i1) from that of pair lo to
    that of pair hi - 1, each found in closed form; i1 repeats each row's
    index over its pairs in the range, and i2 counts up from the row start.
    """
    if not 0 <= lo <= hi <= pair_count(n):
        raise InputError(f"pair range [{lo}, {hi}) is outside the "
                         f"{pair_count(n)} pairs of n={n}")
    if lo == hi:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    rows = np.arange(_row_of(n, lo), _row_of(n, hi - 1) + 1, dtype=np.int64)
    starts = _row_start(n, rows)
    counts = np.minimum(starts + (n - 1 - rows), hi) - np.maximum(starts, lo)
    i1 = np.repeat(rows, counts)
    i2 = np.arange(lo, hi, dtype=np.int64) - np.repeat(starts - rows - 1, counts)
    return i1, i2


def pair_rows(n: int, i1: np.ndarray, i2: np.ndarray) -> np.ndarray:
    """Linear index in ``enumerate_pairs(n)`` of each pair (i1, i2), i1 < i2:
    the inverse of ``pair_indices``, in closed form."""
    return _row_start(n, i1) + (i2 - i1 - 1)


def pair_chunks(n: int):
    """An iterator of (slice, i1, i2) over the ``chunk_slices`` of
    ``enumerate_pairs(n)`` in order, decoding one slice at a time.  Fewer
    than 2 subjects is an InputError at the call."""
    return ((sl, *pair_indices(n, sl.start, sl.stop))
            for sl in chunk_slices(checked_pair_count(n)))


def canonical_order(n: int, i1: np.ndarray, i2: np.ndarray) -> np.ndarray | None:
    """Stable permutation that puts the complete pair set (i1, i2) of n
    subjects in lexicographic order, or None when it is in that order: the
    check of the rows of a ``fit.PairData`` given with their indices.

    The pairs are numbered by ``pair_rows``.  Raises InputError when an
    index pair is out of range, when the count is not n(n-1)/2, or when a
    pair occurs twice.
    """
    if np.any(i1 >= i2) or i1.min(initial=0) < 0 or i2.max(initial=0) >= n:
        raise InputError("pair indices must satisfy 0 <= i1 < i2 < n")
    if len(i1) != pair_count(n):
        raise InputError(f"incomplete dataset: {len(i1)} of {pair_count(n)} pairs "
                         f"for n={n}")
    rows = pair_rows(n, i1, i2)
    if np.all(rows[1:] > rows[:-1]):
        return None
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    if np.any(rows[1:] == rows[:-1]):
        raise InputError("duplicate pair in dataset")
    return order


def chunk_slices(n_items: int) -> list[slice]:
    """Fixed partition of range(n_items) into ``CHUNK_PAIRS``-item chunks."""
    return [slice(lo, min(lo + CHUNK_PAIRS, n_items))
            for lo in range(0, n_items, CHUNK_PAIRS)]


@contextmanager
def pass_workers(bind, n_items: int):
    """A set of workers for the passes of one fit over ``n_items`` items.

    ``bind(*task)`` returns the chunk function of a pass, ``fn(slice)``,
    whose part is a tuple of arrays (or scalars); ``reduce(*task)`` adds
    the parts of the ``chunk_slices`` of ``range(n_items)`` in chunk
    order, and ``fold(merge, total, *task)`` merges them into ``total`` in
    chunk order, ``total = merge(total, part)``.  Both raise the first
    exception in chunk order.  The block runs with numpy's bundled
    OpenBLAS on one thread.

    At the first pass over at least ``FORK_PAIRS`` items, with that
    OpenBLAS, the set forks up to one child per further usable CPU, each
    taking at least ``FORK_PAIRS // 2`` items; slice k is evaluated by
    worker k mod W, worker 0 being this process.  The children inherit
    ``bind`` and its data at the fork and serve every later pass, so a
    pass sends them only its ``task`` (which must pickle) and numpy's
    error state.  A pass that raises ends the set, so no stale part can
    reach a later pass; the next pass forks a fresh one.  On the way out
    of the block every child is killed and reaped.  Without that OpenBLAS
    nothing is forked: another BLAS keeps its own threads, which may not
    survive a fork and would round the parent's parts differently from
    the children's.  Nor is anything forked in a worker of another set,
    or for an item of a ``spread`` evaluated by its calling process.
    """
    workers = _Workers(bind, lambda: chunk_slices(n_items), FORK_PAIRS // 2)
    with _one_blas_thread(), closing(workers):
        yield workers


def spread(fn, n: int) -> list:
    """``[fn(k) for k in range(n)]`` on a set of workers with one slice per
    item and W = min(usable CPUs, n), forked at the call as a pass of
    ``pass_workers`` forks: item k is evaluated by worker k mod W, worker
    0 being this process, and each result must pickle.  The results come
    back in item order, and the first exception in item order is raised.
    While the set has children, the passes inside ``fn`` fork nothing.
    """
    parts = []
    with closing(_Workers(lambda: lambda sl: fn(sl.start),
                          lambda: [slice(k, k + 1) for k in range(n)], 1)) as workers:
        if n:
            workers.fold(lambda _, part: parts.append(part), None)
    return parts


def _add(total, part):
    return part if total is None else tuple(t + p for t, p in zip(total, part))


class _Workers:
    """The running set of a ``pass_workers`` block or of ``spread``, whose
    passes run over the slices ``slices()`` in order, each worker taking at
    least ``least`` items: ``size`` is its W (0 before its first pass),
    and ``children`` holds (pid, task pipe, part pipe) of workers 1, 2, ...
    A worker whose pipe or fork fails (no process to spare) and the ones
    after it are not started: this process evaluates their slices too, and
    the next pass tries again."""

    def __init__(self, bind, slices, least: int):
        self.bind, self.slices, self.least = bind, slices, least
        self.size, self.children = 0, []

    def reduce(self, *task):
        return tuple(self.fold(_add, None, *task))

    def fold(self, merge, total, *task):
        global _may_fork
        slices = self.slices()
        if not slices:
            raise InputError("nothing to reduce over")
        self._start(slices)
        may_fork = _may_fork
        try:
            for _, tasks, _ in self.children:
                try:
                    _send(tasks, (task, np.geterr()))
                except BrokenPipeError:
                    pass   # an ended worker: reading its first part says so
            _may_fork = may_fork and not self.children
            for part in self._parts(self.bind(*task), slices):
                total = merge(total, part)
            return total
        except BaseException:
            self.close()
            raise
        finally:
            _may_fork = may_fork

    def _start(self, slices: list) -> None:
        """Size a new set, and fork the workers it lacks."""
        if not self.size:
            self.size = max(1, min(_usable_cpus(), len(slices),
                                   slices[-1].stop // self.least)
                            if _may_fork and hasattr(os, "fork")
                            and _openblas() is not None else 1)
        for w in range(len(self.children) + 1, self.size):
            try:
                self.children.append(self._fork(slices[w::self.size]))
            except OSError:
                break

    def _fork(self, slices: list):
        """Fork worker ``len(children) + 1``, serving ``slices`` (see
        ``_serve``); returns its pid, the write end of its task pipe and
        the read end of its part pipe.  A pipe or fork that fails raises
        OSError and leaves no descriptor open."""
        global _may_fork
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        task_read, task_write, part_read, part_write = fds
        if pid == 0:   # the child never returns from here, nor forks a set
            _may_fork = False
            code = 1
            try:
                os.close(task_write)
                os.close(part_read)
                _serve(self.bind, slices, task_read, part_write)
                code = 0
            finally:
                os._exit(code)
        os.close(task_read)
        os.close(part_write)
        # unbuffered, so a task sent to an ended worker leaves nothing to flush
        return pid, os.fdopen(task_write, "wb", buffering=0), os.fdopen(part_read, "rb")

    def _parts(self, fn, slices: list):
        """The part of each slice, in order: ``fn(sl)`` for this process's
        slices, the pickled ones from the pipes for the children's."""
        for k, sl in enumerate(slices):
            w = k % self.size
            if w == 0 or w > len(self.children):
                yield fn(sl)
                continue
            pid, _, parts = self.children[w - 1]
            try:
                ok, part = pickle.load(parts)
            except EOFError:
                raise RuntimeError(f"reduction worker {pid} ended before sending "
                                   f"the part of chunk {k}") from None
            if not ok:
                raise part
            yield part

    def close(self) -> None:
        """Kill and reap every child and close its pipes."""
        children, self.size, self.children = self.children, 0, []
        for pid, tasks, parts in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            tasks.close()
            parts.close()


def _serve(bind, slices: list, task_fd: int, part_fd: int) -> None:
    """The loop of a forked worker: for each (task, numpy error state) read
    from ``task_fd``, write (True, part) to ``part_fd`` for each slice, in
    order, of the chunk function ``bind(*task)`` run under that error
    state, or (False, the exception) for the first that raises, and stop
    there.  Returns when the task pipe closes.  A pipe holds at most a few
    parts, as the parent reads each when its turn comes."""
    with os.fdopen(task_fd, "rb") as tasks, os.fdopen(part_fd, "wb") as parts:
        while True:
            try:
                task, errstate = pickle.load(tasks)
            except EOFError:
                return
            try:
                with np.errstate(**errstate):
                    fn = bind(*task)
                    for sl in slices:
                        _send(parts, (True, fn(sl)))
            except Exception as exc:   # noqa: BLE001 - the parent raises it in turn
                _send(parts, (False, exc))
                return


def _send(file, message) -> None:
    pickle.dump(message, file, pickle.HIGHEST_PROTOCOL)
    file.flush()


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


@functools.cache
def _openblas():
    """(get, set) for the thread count of numpy's bundled OpenBLAS, or None
    when numpy carries no such library."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("libscipy_openblas*")):
        lib = ctypes.CDLL(str(path))
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = (), ctypes.c_int
            set_.argtypes, set_.restype = (ctypes.c_int,), None
            return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore its
    count.  A multithreaded BLAS splits a product's sums by thread, so the
    last bits of a fit would depend on the host's thread setting, and its
    idle threads spin against the processes of a forked reduction; without
    a bundled OpenBLAS this does nothing.  A count already at one is left
    alone: in a forked process, as a worker of a set is, setting it starts
    a BLAS thread that spins for about 0.1 s of CPU."""
    blas = _openblas()
    before = blas[0]() if blas else 1
    if before == 1:
        yield
        return
    blas[1](1)
    try:
        yield
    finally:
        blas[1](before)


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
        object.__setattr__(self, "n", _integer_setting("n", self.n))
        if self.n < 2:
            raise InputError("pair score table needs n >= 2 subjects")
        expect = pair_count(self.n)
        if scores.shape[0] != expect:
            raise InputError(
                f"incomplete pair table: expected {expect} rows for n={self.n}, "
                f"got {scores.shape[0]}")
        if not np.all(np.isfinite(scores)):
            raise InputError("pair scores must all be finite")


def ustatistic_mean(kernel, data) -> float | np.ndarray:
    """Average of a pairwise kernel over all subject pairs.

    ``data`` is a sequence of SubjectRecord or an outcome array with one
    subject per row (1-d: one outcome per subject).  The kernel is set up
    once, each ``CHUNK_PAIRS``-pair slice is evaluated and summed, and the
    sums are added in chunk order.  Returns a float or, else, a vector.
    """
    from .kernels import _responses_of
    from .model import SubjectRecord, stack_subjects

    Y = (stack_subjects(data)[1] if len(data) and isinstance(data[0], SubjectRecord)
         else np.asarray(data, dtype=float))
    chunks = pair_chunks(Y.shape[0])
    responses = _responses_of(kernel, Y)
    total = None
    for _, i1, i2 in chunks:
        part = np.sum(responses(i1, i2).reshape(len(i1), -1), axis=0)
        total = part if total is None else total + part
    mean = total / pair_count(Y.shape[0])
    return float(mean[0]) if kernel.output_dim == 1 else mean


# --------------------------------------------------------------------------- #
# Projection of pair scores onto subjects
# --------------------------------------------------------------------------- #

def interleaved_accumulate(n: int, i1: np.ndarray, i2: np.ndarray,
                           scores: np.ndarray) -> np.ndarray:
    """Per-subject sums of the scores of own pairs, shape (n, q).

    ``(i1, i2)`` is a contiguous range of the canonical pair order (that of
    ``pair_indices``), such as a chunk's.  ``scores`` is (pairs, q) and is
    read one column at a time, so the transpose of a row-major (q, pairs)
    array serves without a copy, each of its columns contiguous.  Each pair
    score is added to both members' sums, starting from zero, in pair
    order, which makes the result bit-identical to a plain loop over the
    pairs.  In such a range a subject's pairs as i2 (rows before its own)
    all come before its pairs as i1 (its own row), so one ``np.bincount``
    per column over the i2 entries and then the i1 entries adds them in
    that order.
    """
    idx = np.concatenate((i2, i1))
    acc = np.empty((n, scores.shape[1]))
    for j in range(scores.shape[1]):
        col = scores[:, j]
        acc[:, j] = np.bincount(idx, weights=np.concatenate((col, col)), minlength=n)
    return acc


def hajek_scores(table: PairScoreTable) -> np.ndarray:
    """Per-subject projected scores: (2/(n-1)) * sum of scores of own pairs.

    Each pair's score is added to the accumulators of both of its members,
    so every score contributes exactly twice and the projected scores sum
    to 2/(n-1) times twice the grand score total.  Returns shape (n, q).
    """
    n = table.n
    i1, i2 = pair_indices(n, 0, pair_count(n))
    acc = interleaved_accumulate(n, i1, i2, table.scores)
    return acc * (2.0 / (n - 1))


def projection_variance(hajek: np.ndarray) -> np.ndarray:
    """Empirical covariance of per-subject projected scores, centered at their mean.

    Returns the (q, q) matrix sum_j (v_j - vbar)(v_j - vbar)' / n; symmetric
    positive semidefinite by construction.  Both sums accumulate subject by
    subject in index order (``np.cumsum`` adds sequentially), so the result
    equals a plain loop over subjects bit for bit.
    """
    v = np.atleast_2d(np.asarray(hajek, dtype=float))
    if v.ndim != 2 or v.shape[0] < 2:
        raise InputError("need projected scores for at least 2 subjects")
    n = v.shape[0]
    vbar = np.cumsum(v, axis=0)[-1] / n
    d = v - vbar
    return np.cumsum(d[:, :, None] * d[:, None, :], axis=0)[-1] / n
