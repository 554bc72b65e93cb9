import numpy as np
import pytest

from pairgee import InputError, PairData
from pairgee.io import load_dataset


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
