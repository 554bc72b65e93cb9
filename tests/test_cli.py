import json

import numpy as np
import pytest

from pairgee import (FrmModel, WorkingVariance, adaptive_fit, aitchison_distance,
                     apply_pseudocount, gen_nb_scenario)
from pairgee.cli import main


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _write_nb_pairs_csv(tmp_path, n=60, seed=17):
    data = gen_nb_scenario(n, seed)
    lines = ["i1,i2,f,x1"]
    for k in range(data.n_pairs):
        lines.append(f"s{data.i1[k]:03d},s{data.i2[k]:03d},"
                     f"{float(data.f[k])!r},{float(data.x[k, 0])!r}")
    return _write(tmp_path, "nb_pairs.csv", "\n".join(lines) + "\n"), data


def test_fit_identity_on_subjects(tmp_path):
    path = _write(tmp_path, "subj.csv",
                  "id,x1,y1\n" + "\n".join(
                      f"s{i},{0.1 * i},{0.2 * i + 0.01 * (i % 3)}"
                      for i in range(8)) + "\n")
    out = str(tmp_path / "fit.json")
    code = main(["fit", "--data", path, "--layout", "subjects",
                 "--kernel", "sqhalfdiff", "--pair", "diff",
                 "--link", "identity", "--no-intercept",
                 "--working-variance", "const", "--out", out])
    assert code == 0
    payload = json.loads(open(out).read())
    assert payload["converged"] is True
    assert len(payload["beta"]) == 1
    assert payload["n_subjects"] == 8 and payload["n_pairs"] == 28
    assert set(payload) >= {"params", "beta", "se", "z", "p", "covariance",
                            "nuisance", "iterations", "eq_norm"}


def test_fit_result_roundtrips_beta_exactly(tmp_path):
    pairs_csv, data = _write_nb_pairs_csv(tmp_path)
    out = str(tmp_path / "fit.json")
    code = main(["fit", "--data", pairs_csv, "--layout", "pairs",
                 "--link", "exp", "--working-variance", "nb", "--out", out])
    assert code == 0
    payload = json.loads(open(out).read())
    model = FrmModel(link="exp", working_variance=WorkingVariance("nb"),
                     intercept=True)
    res = adaptive_fit(model, data)
    assert payload["beta"] == [float(v) for v in res.beta]  # exact round-trip
    assert payload["nuisance"] == pytest.approx(res.nuisance)


def test_fit_const_reports_larger_se_than_nb_on_overdispersed_counts(tmp_path):
    pairs_csv, _ = _write_nb_pairs_csv(tmp_path, n=80, seed=5)
    ses = {}
    for wv in ("nb", "const"):
        out = str(tmp_path / f"fit_{wv}.json")
        code = main(["fit", "--data", pairs_csv, "--layout", "pairs",
                     "--link", "exp", "--working-variance", wv, "--out", out])
        assert code == 0
        ses[wv] = json.loads(open(out).read())["se"]
    assert ses["const"][1] > ses["nb"][1]


def test_fit_nonconvergence_exits_1_with_result_file(tmp_path):
    pairs_csv, _ = _write_nb_pairs_csv(tmp_path, n=40, seed=2)
    out = str(tmp_path / "fit.json")
    code = main(["fit", "--data", pairs_csv, "--layout", "pairs",
                 "--link", "exp", "--working-variance", "poisson",
                 "--max-iter", "1", "--out", out])
    assert code == 1
    payload = json.loads(open(out).read())
    assert payload["converged"] is False


def test_fit_kernel_layout_mismatch_exits_2(tmp_path):
    path = _write(tmp_path, "subj.csv", "id,x1,y1\na,1,2\nb,3,4\nc,5,6\n")
    code = main(["fit", "--data", path, "--layout", "subjects",
                 "--kernel", "aitchison"])
    assert code == 2


def test_fit_missing_file_exits_2(tmp_path):
    assert main(["fit", "--data", str(tmp_path / "none.csv")]) == 2


def test_distance_triangular_matches_library(tmp_path):
    path = _write(tmp_path, "abund.csv",
                  "id,t1,t2,t3\n"
                  "a,5,5,10\n"
                  "b,1,1,2\n"
                  "c,9,0,1\n"
                  "d,2,3,4\n")
    out = str(tmp_path / "dist.csv")
    assert main(["distance", "--data", path, "--out", out]) == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "i1,i2,distance"
    assert len(lines) == 1 + 6  # n=4 -> 6 pairs
    rows = {tuple(line.split(",")[:2]): float(line.split(",")[2])
            for line in lines[1:]}
    # a and b are proportional rows: distance exactly zero after closure
    assert rows[("a", "b")] == pytest.approx(0.0, abs=1e-14)
    comp_a = apply_pseudocount(np.array([5.0, 5.0, 10.0]), "half-min")
    comp_c = apply_pseudocount(np.array([9.0, 0.0, 1.0]), "half-min")
    assert rows[("a", "c")] == aitchison_distance(comp_a, comp_c)


def test_distance_full_matrix(tmp_path):
    path = _write(tmp_path, "abund.csv",
                  "id,t1,t2\na,1,3\nb,2,2\nc,5,1\n")
    out = str(tmp_path / "dist.csv")
    assert main(["distance", "--data", path, "--full", "--out", out]) == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "id,a,b,c"
    mat = np.array([[float(v) for v in line.split(",")[1:]]
                    for line in lines[1:]])
    assert np.allclose(mat, mat.T)
    assert np.all(np.diag(mat) == 0.0)


def test_simulate_writes_reproducible_reports(tmp_path):
    args = ["simulate", "--scenario", "nb", "--n", "25", "--m", "3",
            "--seed", "7", "--methods", "ugee:poisson"]
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    assert open(out1 + ".csv", "rb").read() == open(out2 + ".csv", "rb").read()
    assert open(out1 + ".json", "rb").read() == open(out2 + ".json", "rb").read()
    payload = json.loads(open(out1 + ".json").read())
    assert payload["rows"][0]["method"] == "ugee:poisson"
    header = open(out1 + ".csv").readline().strip()
    assert header == "scenario,n,method,param,est,asy,emp,failures"


@pytest.mark.parametrize("var,value", [("PAIRGEE_TOL", "abc"),
                                       ("PAIRGEE_MAX_ITER", "x")])
def test_malformed_environment_default_exits_2(tmp_path, monkeypatch, capsys,
                                               var, value):
    monkeypatch.setenv(var, value)
    path = _write(tmp_path, "s.csv", "id,x1,y1\na,0,1\nb,1,2\nc,2,2\n")
    assert main(["fit", "--data", path, "--kernel", "sqhalfdiff"]) == 2
    assert var in capsys.readouterr().err


def test_simulate_invalid_report_exits_nonzero(tmp_path):
    code = main(["simulate", "--scenario", "nb", "--n", "25", "--m", "2",
                 "--seed", "1", "--methods", "ugee:bernoulli",
                 "--out", str(tmp_path / "bad")])
    assert code == 1


def test_simulate_icc_scenario_runs(tmp_path):
    code = main(["simulate", "--scenario", "icc", "--n", "20", "--m", "2",
                 "--seed", "5", "--raters", "4", "--out", str(tmp_path / "icc")])
    assert code == 0
    payload = json.loads(open(str(tmp_path / "icc") + ".json").read())
    params = {row["param"] for row in payload["rows"]}
    assert params == {"tau2", "rho"}
