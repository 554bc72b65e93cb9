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
import math

import numpy as np

from .errors import InputError
from .fit import PairData
from .model import SubjectRecord

LAYOUTS = ("subjects", "pairs", "abundance")


def _read_rows(path) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise InputError(f"{path}: empty file, header row required") from None
            rows = list(reader)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    header = [name.strip() for name in header]
    if len(set(header)) != len(header):
        raise InputError(f"{path}: duplicate column names in header")
    for k, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise InputError(f"{path}: row {k} has {len(row)} cells, "
                             f"expected {len(header)}")
    return header, rows


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
    header, rows = _read_rows(path)
    lower = [h.lower() for h in header]
    if "id" not in lower:
        raise InputError(f"{path}: {layout} layout needs an 'id' column")
    id_col = lower.index("id")

    def subjects():
        seen = set()
        for k, row in enumerate(rows, start=2):
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
    incomplete set of pairs.
    """
    header, rows = _read_rows(path)
    lower = [h.lower() for h in header]
    for need in ("i1", "i2", "f"):
        if need not in lower:
            raise InputError(f"{path}: pairs layout needs column {need!r}")
    c1, c2, cf = lower.index("i1"), lower.index("i2"), lower.index("f")
    x_cols = [j for j in range(len(header)) if j not in (c1, c2, cf)]
    ids = sorted({row[c1].strip() for row in rows} |
                 {row[c2].strip() for row in rows})
    index = {sid: k for k, sid in enumerate(ids)}
    n = len(ids)
    i1 = np.empty(len(rows), dtype=np.int64)
    i2 = np.empty(len(rows), dtype=np.int64)
    f = np.empty(len(rows))
    x = np.empty((len(rows), len(x_cols)))
    seen = set()
    for k, row in enumerate(rows):
        a, b = index[row[c1].strip()], index[row[c2].strip()]
        if a == b:
            raise InputError(f"{path}: row {k + 2}: pair of a subject with itself")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise InputError(f"{path}: row {k + 2}: duplicate pair "
                             f"({row[c1].strip()}, {row[c2].strip()})")
        seen.add(key)
        i1[k], i2[k] = key
        f[k] = _parse_float(row[cf], path, k + 2, header[cf])
        for jx, j in enumerate(x_cols):
            x[k, jx] = _parse_float(row[j], path, k + 2, header[j])
    try:
        return PairData(n=n, i1=i1, i2=i2, x=x, f=f, subject_ids=tuple(ids))
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_dataset(path, layout: str):
    """Dispatch on the declared layout; see the module docstring."""
    if layout == "subjects":
        return load_subjects(path)
    if layout == "pairs":
        return load_pairs(path)
    if layout == "abundance":
        return load_abundance(path)
    raise InputError(f"unknown layout {layout!r}; expected one of {LAYOUTS}")
