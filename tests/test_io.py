import re
import string

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pairgee import InputError, PairData, enumerate_pairs
from pairgee.io import _read_columns, load_dataset, load_pairs


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_subjects(tmp_path):
    path = _write(tmp_path, "subjects.csv",
                  "id,x1,y1,y2\n"
                  "a,0.5,1.0,2.0\n"
                  "b,-1.0,3.0,4.0\n"
                  "c,2.5,5.0,6.0\n")
    records = load_dataset(path, "subjects")
    assert len(records) == 3
    assert records[0].id == "a"
    assert np.array_equal(records[1].y, [3.0, 4.0])
    assert np.array_equal(records[2].x, [2.5])


def test_load_subjects_errors(tmp_path):
    with pytest.raises(InputError, match="duplicate subject id"):
        load_dataset(_write(tmp_path, "dup.csv",
                            "id,x1,y1\na,1,2\na,3,4\n"), "subjects")
    with pytest.raises(InputError, match="row 3"):
        load_dataset(_write(tmp_path, "bad.csv",
                            "id,x1,y1\na,1,2\nb,oops,4\n"), "subjects")
    with pytest.raises(InputError, match="row 3"):
        load_dataset(_write(tmp_path, "ragged.csv",
                            "id,x1,y1\na,1,2\nb,3\n"), "subjects")
    with pytest.raises(InputError, match="outcome"):
        load_dataset(_write(tmp_path, "noy.csv",
                            "id,x1\na,1\nb,2\n"), "subjects")
    with pytest.raises(InputError, match="header"):
        load_dataset(_write(tmp_path, "empty.csv", ""), "subjects")


@pytest.mark.parametrize("layout", ["subjects", "pairs", "abundance"])
def test_a_cell_beyond_the_csv_field_limit_names_the_file_and_row(tmp_path, layout):
    # the csv module's _csv.Error escaped as a traceback
    big = "1" * 200_000
    path = _write(tmp_path, "big.csv", f"id,x1,y1\na,1,2\nb,{big},3\n")
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: row 3: field larger "
                                         r"than field limit \(131072\)$"):
        load_dataset(path, layout)
    path = _write(tmp_path, "head.csv", f"id,{big},y1\na,1,2\n")
    with pytest.raises(InputError, match="row 1: field larger"):
        load_dataset(path, layout)


def test_load_abundance(tmp_path):
    path = _write(tmp_path, "abund.csv",
                  "id,t1,t2,t3\n"
                  "s1,10,0,5\n"
                  "s2,1,2,3\n")
    records = load_dataset(path, "abundance")
    assert np.array_equal(records[0].y, [10.0, 0.0, 5.0])


def test_load_abundance_all_zero_row_names_the_row(tmp_path):
    path = _write(tmp_path, "zero.csv",
                  "id,t1,t2\ns1,1,2\ns2,0,0\n")
    with pytest.raises(InputError, match="row 3"):
        load_dataset(path, "abundance")


@pytest.mark.parametrize("layout,text,message", [
    ("subjects", "id,y1,y1\na,1,2\n", "duplicate column names in header"),
    ("subjects", "key,y1\na,1\n", "subjects layout needs an 'id' column"),
    ("abundance", "id,t1,t2\n", "no data rows"),
    ("abundance", "id,t1\na,1\n", "abundance layout needs at least 2 count columns"),
    ("abundance", "id,t1,t2\na,1,2\nb,3,-1\n", "row 3: negative count")],
    ids=["duplicate-column", "no-id", "no-rows", "one-count-column", "negative-count"])
def test_a_malformed_subject_file_names_its_fault(tmp_path, layout, text, message):
    with pytest.raises(InputError, match=message):
        load_dataset(_write(tmp_path, "bad.csv", text), layout)


def test_load_pairs_complete(tmp_path):
    path = _write(tmp_path, "pairs.csv",
                  "i1,i2,f,x1\n"
                  "a,b,1.0,0.1\n"
                  "c,a,2.0,0.2\n"
                  "b,c,3.0,0.3\n")
    data = load_dataset(path, "pairs")
    assert isinstance(data, PairData)
    assert data.n == 3
    assert data.subject_ids == ("a", "b", "c")
    # pair (c, a) is canonicalised to indices (0, 2)
    k = np.where((data.i1 == 0) & (data.i2 == 2))[0][0]
    assert data.f[k] == 2.0


def test_load_pairs_duplicate_in_either_orientation(tmp_path):
    path = _write(tmp_path, "dup.csv",
                  "i1,i2,f\na,b,1.0\nb,a,2.0\n")
    with pytest.raises(InputError, match="duplicate pair"):
        load_dataset(path, "pairs")


def test_load_pairs_incomplete_rejected(tmp_path):
    path = _write(tmp_path, "inc.csv",
                  "i1,i2,f\na,b,1.0\nb,c,2.0\n")
    with pytest.raises(InputError, match="incomplete"):
        load_dataset(path, "pairs")


@pytest.mark.parametrize("row,column,cell", [(3, "f", "nan"), (4, "x1", "inf")])
def test_load_pairs_nonfinite_cell_names_row_and_column(tmp_path, row, column, cell):
    cells = [["a", "b", "1.0", "0.1"], ["c", "a", "2.0", "0.2"],
             ["b", "c", "3.0", "0.3"]]
    cells[row - 2][["i1", "i2", "f", "x1"].index(column)] = cell
    path = _write(tmp_path, "nonfinite.csv",
                  "i1,i2,f,x1\n" + "".join(",".join(r) + "\n" for r in cells))
    with pytest.raises(InputError,
                       match=f"row {row}, column '{column}': non-finite value"):
        load_dataset(path, "pairs")


def test_load_pairs_self_pair_rejected(tmp_path):
    path = _write(tmp_path, "self.csv",
                  "i1,i2,f\na,a,1.0\n")
    with pytest.raises(InputError, match="itself"):
        load_dataset(path, "pairs")


def test_unknown_layout_and_missing_file(tmp_path):
    with pytest.raises(InputError, match="layout"):
        load_dataset(tmp_path / "x.csv", "wide")
    with pytest.raises(InputError, match="cannot read"):
        load_dataset(tmp_path / "missing.csv", "subjects")


# The pairs reader's error contract: each message, with its row number,
# exactly as a user sees it.  A file with several faults reports the one in
# the earliest row; within a row, a self-pair comes first, then a duplicate
# pair, then the f cell, then the remaining columns in header order.

def _load_error(tmp_path, text, layout="pairs"):
    path = _write(tmp_path, "bad.csv", text)
    with pytest.raises(InputError) as info:
        load_dataset(path, layout)
    return str(info.value).removeprefix(f"{path}: ")


def test_load_pairs_ragged_row(tmp_path):
    assert _load_error(tmp_path, "i1,i2,f,x1\na,b,1.0,0.1\nc,a,2.0\n"
                                 "b,c,3.0,0.3\n") == "row 3 has 3 cells, expected 4"


def test_load_pairs_ragged_row_comes_before_a_missing_column(tmp_path):
    assert _load_error(tmp_path, "i1,f\na,1\nb,2,3\n") == \
        "row 3 has 3 cells, expected 2"


def test_load_pairs_unparseable_x_cell(tmp_path):
    assert _load_error(tmp_path, "i1,i2,f,x1\na,b,1.0,0.1\nc,a,2.0,oops\n"
                                 "b,c,3.0,0.3\n") == \
        "row 3, column 'x1': cannot parse 'oops' as a number"


def test_load_pairs_missing_i2_column(tmp_path):
    assert _load_error(tmp_path, "i1,f,x1\na,1.0,0.1\n") == \
        "pairs layout needs column 'i2'"


def test_load_pairs_header_only(tmp_path):
    assert _load_error(tmp_path, "i1,i2,f\n") == "need at least 2 subjects"


def test_load_pairs_strips_padded_ids(tmp_path):
    path = _write(tmp_path, "padded.csv",
                  "i1,i2,f\n a ,b,1.0\nc, a,2.0\n b , c ,3.0\n")
    data = load_dataset(path, "pairs")
    assert data.subject_ids == ("a", "b", "c")
    assert data.i1.tolist() == [0, 0, 1] and data.i2.tolist() == [1, 2, 2]
    assert data.f.tolist() == [1.0, 2.0, 3.0]


def test_pairs_id_columns_hold_one_str_per_subject(tmp_path):
    # each of n subjects is named in n - 1 rows; the reader keeps one object
    # per distinct (padded or not) cell, stripped, and leaves other columns
    # as read
    n = 30
    rows = [f"s{a}, s{b} ,{a + b}.0,x\n" for a, b in enumerate_pairs(n)]
    path = _write(tmp_path, "ids.csv", "I1,i2,f,g\n" + "".join(rows))
    header, (c1, c2, f, g) = _read_columns(path, ids=("i1", "i2"))
    assert header == ["I1", "i2", "f", "g"] and len(c1) == len(g) == n * (n - 1) // 2
    for column in (c1, c2):
        assert len({id(cell) for cell in column}) == len(set(column)) == n - 1
    assert set(c1 + c2) == {f"s{k}" for k in range(n)}
    assert f[0] == "1.0" and g[0] == "x"


@pytest.mark.parametrize("text,message", [
    # two rows at fault: the earlier one is reported
    ("i1,i2,f,x1\na,b,1.0,0.1\nc,a,nan,0.2\nb,b,3.0,0.3\n",
     "row 3, column 'f': non-finite value"),
    ("i1,i2,f,x1\na,b,1.0,0.1\nc,a,2.0,0.2\nb,a,3.0,x\n",
     "row 4: duplicate pair (b, a)"),
    ("i1,i2,f,x1\na,b,1.0,zz\nc,c,2.0,0.2\n",
     "row 2, column 'x1': cannot parse 'zz' as a number"),
    # one row at fault twice: self-pair, duplicate, f, then header order
    ("i1,i2,f\na,b,1\nc,c,zz\n", "row 3: pair of a subject with itself"),
    ("i1,i2,f\na,b,1\nb , a,zz\n", "row 3: duplicate pair (b, a)"),
    ("i1,i2,f,x1,x2\na,b,1,1,1\nb,c,inf,zz,1\n",
     "row 3, column 'f': non-finite value"),
    ("i1,i2,f,x1\na,b,1,1\nb,c,q,inf\n",
     "row 3, column 'f': cannot parse 'q' as a number"),
    ("x2,i1,i2,f,x1\n1,a,b,1,1\nyy,b,c,1,zz\n",
     "row 3, column 'x2': cannot parse 'yy' as a number"),
    ("x2,i1,i2,f,x1\n1,a,b,1,1\n1,b,c,1,-inf\n",
     "row 3, column 'x1': non-finite value"),
])
def test_load_pairs_reports_the_first_fault(tmp_path, text, message):
    assert _load_error(tmp_path, text) == message


@st.composite
def _pair_files(draw):
    """A PairData and the text of a pairs file holding it, written with
    ``repr`` floats, its rows shuffled and some pairs in (i2, i1) order."""
    n = draw(st.integers(2, 7))
    p = draw(st.integers(0, 2))
    ids = sorted(draw(st.lists(st.text(string.ascii_letters + string.digits,
                                       min_size=1, max_size=3),
                               min_size=n, max_size=n, unique=True)))
    pairs = enumerate_pairs(n)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    f = draw(st.lists(finite, min_size=len(pairs), max_size=len(pairs)))
    x = draw(st.lists(st.lists(finite, min_size=p, max_size=p),
                      min_size=len(pairs), max_size=len(pairs)))
    swap = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    lines = [",".join(["i1", "i2", "f"] + [f"x{j + 1}" for j in range(p)])]
    for k in draw(st.permutations(range(len(pairs)))):
        a, b = pairs[k][::-1] if swap[k] else pairs[k]
        lines.append(",".join([ids[a], ids[b]] + [repr(v) for v in [f[k]] + x[k]]))
    data = PairData(n=n, i1=pairs[:, 0], i2=pairs[:, 1],
                    x=np.array(x, dtype=float).reshape(len(pairs), p),
                    f=np.array(f), subject_ids=tuple(ids))
    return data, "\n".join(lines) + "\n"


@given(_pair_files())
def test_load_pairs_round_trips_a_shuffled_repr_file(tmp_path_factory, case):
    data, text = case
    path = tmp_path_factory.mktemp("roundtrip") / "pairs.csv"
    path.write_text(text, encoding="utf-8")
    got = load_pairs(path)
    assert got.subject_ids == data.subject_ids
    for name in ("i1", "i2", "x", "f"):
        assert getattr(got, name).tobytes() == getattr(data, name).tobytes(), name
        assert getattr(got, name).shape == getattr(data, name).shape, name
