"""CSV dataset ingestion.

Three layouts are understood, all comma-separated with a mandatory header
row, ``.`` decimals, UTF-8 and LF newlines:

``subjects``   one row per subject: an ``id`` column, covariate columns
               whose names start with ``x``, outcome columns starting
               with ``y`` (case-insensitive prefixes)
``pairs``      one row per unordered pair: ``i1``, ``i2`` (subject ids),
               a response column ``f``, remaining columns are pairwise
               covariates; the set of rows must cover every pair exactly
               once
``abundance``  one row per subject: ``id`` plus nonnegative count columns

Parse failures report the file row number and column name.
"""

from __future__ import annotations

import csv
import functools
import math

import numpy as np

from .errors import InputError
from .fit import PairData
from .model import SubjectRecord

LAYOUTS = ("subjects", "pairs", "abundance")


def _read_columns(path, ids=()) -> tuple[list[str], list[list[str]]]:
    """Stripped header names and one list of cells per column.  Rows go
    straight into the column lists, so no row list outlives its line.  The
    cells of the ``ids`` columns (lower-case names), stripped, are shared
    between equal cells: a pairs file names each subject in n - 1 rows.
    A row the csv module cannot read is an InputError naming it."""
    k = 0   # the rows read, so a csv.Error is on row k + 1
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise InputError(f"{path}: empty file, header row required") from None
            k = 1
            header = [name.strip() for name in header]
            if len(set(header)) != len(header):
                raise InputError(f"{path}: duplicate column names in header")
            columns = [[] for _ in header]
            appends = [_stripping(column.append) if name.lower() in ids
                       else column.append for name, column in zip(header, columns)]
            for k, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise InputError(f"{path}: row {k} has {len(row)} cells, "
                                     f"expected {len(header)}")
                for append, cell in zip(appends, row):
                    append(cell)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:
        raise InputError(f"{path}: row {k + 1}: {exc}") from None
    return header, columns


def _stripping(append):
    """``append`` of each cell stripped, the same object for equal cells."""
    strip = functools.cache(str.strip)
    return lambda cell: append(strip(cell))


def _parse_float(cell: str, path, row: int, col: str) -> float:
    try:
        val = float(cell)
    except ValueError:
        raise InputError(f"{path}: row {row}, column {col!r}: "
                         f"cannot parse {cell!r} as a number") from None
    if not math.isfinite(val):
        raise InputError(f"{path}: row {row}, column {col!r}: non-finite value")
    return val


def _read_subjects(path, layout: str):
    """Header, ``id`` column index and an iterator of (row number, stripped
    id, cells); the iterator raises on a repeated id and, once exhausted, on
    a file without data rows, so the caller's column checks come first."""
    header, columns = _read_columns(path)
    lower = [h.lower() for h in header]
    if "id" not in lower:
        raise InputError(f"{path}: {layout} layout needs an 'id' column")
    id_col = lower.index("id")

    def subjects():
        seen = set()
        for k, row in enumerate(zip(*columns), start=2):
            sid = row[id_col].strip()
            if sid in seen:
                raise InputError(f"{path}: row {k}: duplicate subject id {sid!r}")
            seen.add(sid)
            yield k, sid, row
        if not seen:
            raise InputError(f"{path}: no data rows")

    return header, id_col, subjects()


def load_subjects(path) -> list[SubjectRecord]:
    """Read a ``subjects`` layout into SubjectRecord objects."""
    header, _, subjects = _read_subjects(path, "subjects")
    x_cols = [j for j, h in enumerate(header) if h.lower().startswith("x")]
    y_cols = [j for j, h in enumerate(header) if h.lower().startswith("y")]
    if not y_cols:
        raise InputError(f"{path}: subjects layout needs at least one outcome "
                         f"column (name starting with 'y')")
    records = []
    for k, sid, row in subjects:
        y = [_parse_float(row[j], path, k, header[j]) for j in y_cols]
        x = [_parse_float(row[j], path, k, header[j]) for j in x_cols]
        records.append(SubjectRecord(id=sid, y=np.array(y), x=np.array(x)))
    return records


def load_abundance(path) -> list[SubjectRecord]:
    """Read an ``abundance`` layout (id + count columns) into SubjectRecords.

    Counts must be nonnegative and each row must contain at least one
    positive entry, since an all-zero row cannot be closed to a
    composition by any pseudocount policy.
    """
    header, id_col, subjects = _read_subjects(path, "abundance")
    count_cols = [j for j in range(len(header)) if j != id_col]
    if len(count_cols) < 2:
        raise InputError(f"{path}: abundance layout needs at least 2 count columns")
    records = []
    for k, sid, row in subjects:
        counts = np.array([_parse_float(row[j], path, k, header[j])
                           for j in count_cols])
        if np.any(counts < 0):
            raise InputError(f"{path}: row {k}: negative count")
        if not np.any(counts > 0):
            raise InputError(f"{path}: row {k}: all-zero abundance row for "
                             f"subject {sid!r}")
        records.append(SubjectRecord(id=sid, y=counts, x=np.empty(0)))
    return records


def load_pairs(path) -> PairData:
    """Read a ``pairs`` layout into a complete PairData.

    Subject ids are mapped to 0-based indices in sorted order.  A pair
    appearing twice (in either orientation) is an error, as is an
    incomplete set of pairs.  The checks are ``PairData``'s, on whole
    columns; only when one fails is the first faulty row looked up
    (``_first_pair_fault``).
    """
    header, columns = _read_columns(path, ids=("i1", "i2"))
    lower = [h.lower() for h in header]
    for need in ("i1", "i2", "f"):
        if need not in lower:
            raise InputError(f"{path}: pairs layout needs column {need!r}")
    c1, c2, cf = lower.index("i1"), lower.index("i2"), lower.index("f")
    x_cols = [j for j in range(len(header)) if j not in (c1, c2, cf)]
    s1, s2 = columns[c1], columns[c2]
    ids = sorted(set(s1) | set(s2))
    index = {sid: k for k, sid in enumerate(ids)}
    n, n_rows = len(ids), len(s1)
    a = np.fromiter(map(index.__getitem__, s1), np.int64, count=n_rows)
    b = np.fromiter(map(index.__getitem__, s2), np.int64, count=n_rows)
    try:
        f = np.fromiter(map(float, columns[cf]), float, count=n_rows)
        x = np.empty((n_rows, len(x_cols)))
        for jx, j in enumerate(x_cols):
            x[:, jx] = np.fromiter(map(float, columns[j]), float, count=n_rows)
        return PairData(n=n, i1=np.minimum(a, b), i2=np.maximum(a, b), x=x, f=f,
                        subject_ids=tuple(ids))
    except ValueError as exc:
        _first_pair_fault(path, header, columns, s1, s2, [cf] + x_cols)
        raise InputError(f"{path}: {exc}") from exc


def _first_pair_fault(path, header, columns, s1, s2, cells) -> None:
    """Raise the InputError of the first row of a pairs file at fault: a
    pair of a subject with itself, a pair seen before (in either
    orientation), then a cell that is not a finite number, taken in the
    column order ``cells`` (f, then the covariates in header order)."""
    seen = set()
    for k, (a, b) in enumerate(zip(s1, s2)):
        if a == b:
            raise InputError(f"{path}: row {k + 2}: pair of a subject with itself") from None
        key = (min(a, b), max(a, b))
        if key in seen:
            raise InputError(f"{path}: row {k + 2}: duplicate pair ({a}, {b})") from None
        seen.add(key)
        for j in cells:
            _parse_float(columns[j][k], path, k + 2, header[j])


def load_dataset(path, layout: str):
    """Dispatch on the declared layout; see the module docstring."""
    if layout == "subjects":
        return load_subjects(path)
    if layout == "pairs":
        return load_pairs(path)
    if layout == "abundance":
        return load_abundance(path)
    raise InputError(f"unknown layout {layout!r}; expected one of {LAYOUTS}")
