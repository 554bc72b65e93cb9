import argparse
import ast
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pairgee
from pairgee import (FitConfig, FrmModel, IccModel, Kernel, WorkingVariance,
                     adaptive_fit, aitchison_distance, apply_pseudocount,
                     gen_nb_scenario, make_rng, pairwise_responses)
from pairgee.cli import _SCENARIO_PARAMS, _build_parser, main
from pairgee.io import LAYOUTS
from pairgee.links import LINK_KINDS
from pairgee.simulate import SCENARIOS


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


def _run_fresh(code: str) -> str:
    """stdout of ``code`` run by a fresh interpreter that imports pairgee
    from this source tree."""
    src = str(Path(pairgee.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_and_scipy_free_commands_leave_scipy_unloaded(tmp_path):
    # scipy is loaded by the expit and probitc links and the working MLE
    # alone: importing it would add its start-up time to every pairgee
    # process, also to the exp-link fit and distance runs that never use it
    pairs_csv, _ = _write_nb_pairs_csv(tmp_path, n=20)
    abundance = _write(tmp_path, "ab.csv", "id,t1,t2\na,1,3\nb,2,0\nc,5,1\n")
    fit = ["fit", "--data", pairs_csv, "--layout", "pairs", "--link", "exp",
           "--working-variance", "nb", "--out", str(tmp_path / "fit.json")]
    distance = ["distance", "--data", abundance, "--out", str(tmp_path / "d.csv")]
    out = _run_fresh(
        "import sys\n"
        "def scipy():\n"
        "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "from pairgee.cli import main\n"
        "print(scipy())\n"
        f"assert main({fit!r}) == 0\n"
        "print(scipy())\n"
        f"assert main({distance!r}) == 0\n"
        "print(scipy())\n")
    assert out.splitlines() == ["[]", "[]", "[]"]
    assert json.loads((tmp_path / "fit.json").read_text())["converged"] is True


def test_scipy_links_and_working_mle_load_scipy_special_on_first_use():
    code = ("import sys\n"
            "from pairgee import (FrmModel, WorkingVariance, adaptive_fit,\n"
            "    gen_mww_probit, gen_nb_scenario, mww_pair_data, nb_working_mle)\n"
            "before = 'scipy.special' in sys.modules\n"
            "data = mww_pair_data(gen_mww_probit(30, 3))\n"
            "betas = [adaptive_fit(FrmModel(link, WorkingVariance('bernoulli'),\n"
            "                               intercept=False), data).beta.tolist()\n"
            "         for link in ('expit', 'probitc')]\n"
            "betas.append(nb_working_mle(gen_nb_scenario(30, 3)).beta.tolist())\n"
            "print(repr((before, 'scipy.special' in sys.modules, betas)))\n")
    before, after, betas = ast.literal_eval(_run_fresh(code))
    assert (before, after) == (False, True)
    data = pairgee.mww_pair_data(pairgee.gen_mww_probit(30, 3))
    expected = [adaptive_fit(FrmModel(link, WorkingVariance("bernoulli"),
                                      intercept=False), data).beta.tolist()
                for link in ("expit", "probitc")]
    expected.append(pairgee.nb_working_mle(gen_nb_scenario(30, 3)).beta.tolist())
    assert betas == expected


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


@pytest.mark.parametrize("x1,y1,message", [
    # a constant x1 has a zero difference, collinear with the intercept
    ((1, 1, 1, 1, 1), (0.5, 1.7, 2.2, 0.1, 3.0), "covariate column 0 is constant"),
    # a constant y1 has zero responses, so the constant working variance is 0
    ((0.3, 1.2, 0.8, 2.5, 1.9), (2, 2, 2, 2, 2), "degenerate pairwise responses")],
    ids=["singular", "degenerate"])
def test_fit_that_cannot_be_evaluated_exits_1_with_one_line(tmp_path, capsys, x1, y1,
                                                            message):
    path = _write(tmp_path, "subjects.csv", "id,x1,y1\n" + "".join(
        f"s{k},{x},{y}\n" for k, (x, y) in enumerate(zip(x1, y1))))
    out = tmp_path / "fit.json"
    assert main(["fit", "--data", path, "--kernel", "sqhalfdiff", "--pair", "diff",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cannot evaluate the fit: {message}")
    assert err.count("\n") == 1 and "Traceback" not in err and not out.exists()


def test_fit_on_overflowing_responses_exits_1_with_one_line(tmp_path, capsys):
    # responses up to exp(500) square past the float range in the scoring matrix
    ids = [f"s{k}" for k in range(4)]
    pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    path = _write(tmp_path, "pairs.csv", "i1,i2,f,x\n" + "".join(
        f"{ids[a]},{ids[b]},{math.exp(100.0 * k)!r},{float(k)!r}\n"
        for k, (a, b) in enumerate(pairs)))
    out = tmp_path / "fit.json"
    assert main(["fit", "--data", path, "--layout", "pairs", "--link", "exp",
                 "--working-variance", "poisson", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "cannot evaluate the fit: scoring matrix is not finite\n")
    assert not out.exists()


def test_fit_icc_on_ratings_whose_responses_overflow_exits_2_with_one_line(tmp_path,
                                                                          capsys):
    path = _write(tmp_path, "r.csv", "id,y1,y2,y3\n" + "".join(
        f"s{i},{y[0]!r},{y[1]!r},{y[2]!r}\n" for i, y in
        enumerate((np.random.default_rng(1).normal(size=(20, 3)) * 1e160).tolist())))
    out = tmp_path / "icc.json"
    assert main(["fit", "--data", path, "--kernel", "icc", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "input error: pair data must be finite\n"
    assert not out.exists()


def test_fit_kernel_layout_mismatch_exits_2(tmp_path):
    path = _write(tmp_path, "subj.csv", "id,x1,y1\na,1,2\nb,3,4\nc,5,6\n")
    code = main(["fit", "--data", path, "--layout", "subjects",
                 "--kernel", "aitchison"])
    assert code == 2


def test_fit_onehot_level_beyond_int64_exits_2_naming_the_range(tmp_path, capsys):
    path = _write(tmp_path, "s.csv", "id,x1,y1\na,1,1\nb,2,3\nc,1e30,2\nd,2,5\n")
    assert main(["fit", "--data", path, "--kernel", "sqhalfdiff",
                 "--pair", "onehot:2"]) == 2
    assert capsys.readouterr().err == "input error: categorical level outside 1..2\n"


@pytest.mark.parametrize("argv, unread", [
    (["--layout", "pairs", "--kernel", "mww", "--pair", "onehot:3", "--ties",
      "midrank", "--pseudocount", "additive"], "--kernel, --pair, --ties, --pseudocount"),
    (["--layout", "pairs", "--eps", "0.5"], "--eps"),
    (["--kernel", "sqhalfdiff", "--pair", "diff", "--ties", "le"], "--ties"),
    (["--kernel", "mww", "--pseudocount", "half-min", "--eps", "0"], "--pseudocount, --eps"),
    (["--kernel", "icc", "--pair", "diff"], "--pair"),
    (["--layout", "abundance", "--kernel", "aitchison", "--pair", "diff"], "--pair"),
], ids=["pairs", "pairs-eps", "ties", "pseudocount", "icc-pair", "abundance-pair"])
def test_fit_flag_the_layout_and_kernel_do_not_read_exits_2(tmp_path, capsys,
                                                             argv, unread):
    # each run exits 0 without the unread flags
    pairs, _ = _write_nb_pairs_csv(tmp_path, n=12)
    subjects = _write(tmp_path, "s.csv", "id,x1,y1\n" + "".join(
        f"s{i},{0.1 * i},{(i * 7) % 5}\n" for i in range(8)))
    ratings = _write(tmp_path, "r.csv", "id,y1,y2\n" + "".join(
        f"s{i},{i % 3},{(i * 7) % 5}\n" for i in range(8)))
    abundance = _write(tmp_path, "ab.csv", "id,t1,t2\na,1,3\nb,2,2\nc,5,1\n")
    data = {"pairs": pairs, "mww": subjects, "sqhalfdiff": subjects, "icc": ratings,
            "abundance": abundance}
    layout_or_kernel = argv[1]
    code = main(["fit", "--data", data[layout_or_kernel], "--link", "exp",
                 "--working-variance", "poisson"] + argv)
    assert code == 2
    assert f"input error: {unread} not read with" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["--kernel", "sqhalfdiff", "--pair", "onehot:two"],
     "bad onehot levels in --pair 'onehot:two'"),
    (["--kernel", "sqhalfdiff", "--pair", "product"],
     "unknown pair transform 'product' (expected diff|sum|concat|onehot:K)"),
    (["--layout", "abundance", "--kernel", "icc"], "icc kernel needs the subjects layout"),
    (["--layout", "subjects"], "subject-level layouts need --kernel"),
    (["--layout", "abundance", "--kernel", "aitchison", "--eps", "0.3"],
     "half-min pseudocount takes no eps, got 0.3")],
    ids=["onehot-levels", "pair", "icc-layout", "no-kernel", "half-min-eps"])
def test_fit_input_error_exits_2_with_one_line(tmp_path, capsys, argv, message):
    # the half-min --eps case exited 0 with the beta of no --eps
    data = _write(tmp_path, "ab.csv", "id,y1,y2\na,1,3\nb,2,2\nc,5,1\nd,0,4\n")
    assert main(["fit", "--data", data] + argv) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_an_icc_fit_that_does_not_converge_exits_1_with_one_line(tmp_path, capsys,
                                                                  monkeypatch):
    # a start away from the root, which one scoring step cannot reach
    monkeypatch.setattr(IccModel, "init_theta", lambda self, r_mean: np.array(
        [4.0 * r_mean[1], 0.9]))
    ratings = _write(tmp_path, "r.csv", "id,y1,y2\n" + "".join(
        f"s{i},{i % 3},{(i * 7) % 5}\n" for i in range(8)))
    assert main(["fit", "--data", ratings, "--kernel", "icc", "--max-iter", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("did not converge: no convergence in 1 iterations")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flag", [["--link", "exp"], ["--working-variance", "nb"],
                                  ["--intercept"], ["--no-intercept"]],
                         ids=["link", "working-variance", "intercept", "no-intercept"])
def test_fit_icc_rejects_the_scalar_model_flags(tmp_path, capsys, flag):
    ratings = _write(tmp_path, "r.csv", "id,y1,y2\n" + "".join(
        f"s{i},{i % 3},{(i * 7) % 5}\n" for i in range(10)))
    argv = ["fit", "--data", ratings, "--kernel", "icc", "--out",
            str(tmp_path / "icc.json")]
    assert main(argv) == 0
    assert main(argv + flag) == 2
    assert (f"input error: {flag[0]} not read with --layout subjects and "
            f"--kernel icc") in capsys.readouterr().err


def test_fit_scalar_kernel_on_two_outcome_columns_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "subj.csv", "id,x1,y1,y2\n" + "".join(
        f"s{i},{0.1 * i},{0.2 * i},{(i * 7) % 5}\n" for i in range(8)))
    code = main(["fit", "--data", path, "--layout", "subjects",
                 "--kernel", "sqhalfdiff", "--pair", "diff",
                 "--out", str(tmp_path / "fit.json")])
    assert code == 2
    assert "one outcome column" in capsys.readouterr().err


def test_fit_zero_tolerance_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "subj.csv", "id,x1,y1\n" + "".join(
        f"s{i},{0.1 * i},{0.2 * i}\n" for i in range(8)))
    code = main(["fit", "--data", path, "--layout", "subjects",
                 "--kernel", "sqhalfdiff", "--pair", "diff", "--tol", "0"])
    assert code == 2
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_fit_non_finite_tolerance_exits_2(tmp_path, capsys, tol):
    path = _write(tmp_path, "subj.csv", "id,x1,y1\n" + "".join(
        f"s{i},{0.1 * i},{0.2 * i}\n" for i in range(12)))
    code = main(["fit", "--data", path, "--layout", "subjects",
                 "--kernel", "sqhalfdiff", "--pair", "diff", "--tol", tol])
    assert code == 2
    err = capsys.readouterr().err
    assert "tol_eq must be positive and finite" in err and len(err.splitlines()) == 1


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


@pytest.mark.parametrize("eps", ["inf", "nan"])
def test_distance_non_finite_additive_pseudocount_exits_2_naming_eps(tmp_path, capsys,
                                                                     eps):
    path = _write(tmp_path, "abund.csv", "id,t1,t2\na,1,3\nb,0,2\nc,5,1\n")
    out = tmp_path / "dist.csv"
    assert main(["distance", "--data", path, "--pseudocount", "additive",
                 "--eps", eps, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"input error: additive pseudocount eps must "
                                       f"be finite and nonnegative, got {eps}\n")
    assert not out.exists()


def test_distance_half_min_eps_exits_2_with_one_line(tmp_path, capsys):
    # it exited 0 with the plain half-min distances
    path = _write(tmp_path, "abund.csv", "id,t1,t2\na,1,3\nb,0,2\nc,5,1\n")
    out = tmp_path / "dist.csv"
    assert main(["distance", "--data", path, "--eps", "0.3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("input error: half-min pseudocount takes no "
                                       "eps, got 0.3\n")
    assert not out.exists()


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


@pytest.mark.parametrize("full", [False, True], ids=["triangular", "full"])
def test_distance_cells_are_the_repr_of_each_distance(tmp_path, monkeypatch, full,
                                                      chunk_pairs):
    # a chunk size that splits both layouts into at least 3 chunks
    chunk_pairs(5)
    evaluated, sizes = [], []

    def counting(kernel, Y, i1, i2):
        evaluated.extend(zip(np.asarray(i1).tolist(), np.asarray(i2).tolist()))
        sizes.append(len(i1))
        return pairwise_responses(kernel, Y, i1, i2)

    monkeypatch.setattr(pairgee.cli, "pairwise_responses", counting)
    counts = make_rng(5).poisson(3.0, size=(7, 4)) + np.eye(7, 4, dtype=int)
    ids = [f"s{k}" for k in range(7)]
    path = _write(tmp_path, "ab.csv", "id,t1,t2,t3,t4\n" + "".join(
        f"{sid}," + ",".join(map(str, row)) + "\n" for sid, row in zip(ids, counts)))
    out = tmp_path / "dist.csv"
    assert main(["distance", "--data", path, "--out", str(out)]
                + ["--full"] * full) == 0
    comps = np.vstack([apply_pseudocount(row, "half-min").values
                       for row in counts.astype(float)])
    if full:
        i1, i2 = np.repeat(np.arange(7), 7), np.tile(np.arange(7), 7)
        lines = [",".join(["id"] + ids)] + [
            ",".join([ids[a]] + [repr(v) for v in row]) for a, row in enumerate(
                pairwise_responses(Kernel.aitchison(), comps, i1, i2)
                .reshape(7, 7).tolist())]
    else:
        i1, i2 = np.triu_indices(7, k=1)
        lines = ["i1,i2,distance"] + [
            f"{ids[a]},{ids[b]},{d!r}" for a, b, d in zip(
                i1, i2, pairwise_responses(Kernel.aitchison(), comps, i1, i2).tolist())]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()
    # each of the n(n-1)/2 distances is computed once, also for --full, one
    # chunk of pairs per kernel call
    assert sorted(evaluated) == list(zip(*np.triu_indices(7, k=1)))
    assert sizes == [5, 5, 5, 5, 1]


@pytest.mark.parametrize("module", ["pairgee"] + sorted(
    "pairgee." + m.name for m in pkgutil.iter_modules(pairgee.__path__)))
def test_each_module_imports_alone_without_scipy(module):
    # a fresh interpreter per module, so an import cycle or a module-level
    # scipy import cannot hide behind a module some other test imported
    out = _run_fresh(f"import sys, {module}\n"
                     "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n")
    assert out.strip() == "[]"


def test_the_export_list_names_each_public_name_once():
    names = pairgee.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(pairgee, name)] == []
    star = {}
    exec("from pairgee import *", star)
    assert set(names) <= set(star)


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


def test_environment_variables_are_not_read(tmp_path, monkeypatch, capsys):
    subjects = _write(tmp_path, "s.csv", "id,x1,y1\na,0,1\nb,1,2\nc,2,2\n")
    abundance = _write(tmp_path, "ab.csv", "id,t1,t2\na,1,3\nb,2,2\nc,5,1\n")
    fit = ["fit", "--data", subjects, "--kernel", "sqhalfdiff"]
    assert main(fit) == 0
    expected = capsys.readouterr().out
    monkeypatch.setenv("PAIRGEE_LINK", "bogus")
    monkeypatch.setenv("PAIRGEE_TOL", "abc")
    monkeypatch.setenv("PAIRGEE_OUT", str(tmp_path / "env.json"))
    assert main(["distance", "--data", abundance]) == 0
    capsys.readouterr()
    assert main(fit) == 0
    assert capsys.readouterr().out == expected
    assert not (tmp_path / "env.json").exists()


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


@pytest.mark.parametrize("extra", [
    ["--scenario", "nb", "--methods", "ugee:foo,mle:nb"],
    ["--scenario", "icc", "--methods", "ugee:poisson"],
    ["--scenario", "linear", "--tau", "5"]])
def test_simulate_method_or_parameter_outside_scenario_exits_2(tmp_path, capsys,
                                                               extra):
    out = tmp_path / "bad"
    code = main(["simulate", "--n", "20", "--m", "3", "--out", str(out)] + extra)
    assert code == 2
    assert "input error" in capsys.readouterr().err
    assert not (tmp_path / "bad.json").exists()


@pytest.mark.parametrize("scenario,flag", [
    ("nb", "--tau=nan"), ("nb", "--a=nan"), ("linear", "--sigma-x=inf"),
    ("icc", "--sigma-b2=nan"), ("mww", "--beta=-inf")])
def test_simulate_non_finite_parameter_exits_2_with_one_line(tmp_path, capsys,
                                                             scenario, flag):
    out = tmp_path / "bad"
    code = main(["simulate", "--n", "20", "--m", "3", "--out", str(out),
                 "--scenario", scenario, flag])
    assert code == 2
    name, value = flag[2:].split("=")
    assert capsys.readouterr().err == (f"input error: {name.replace('-', '_')} must be "
                                       f"finite, got {value}\n")
    assert not (tmp_path / "bad.json").exists()


def test_simulate_repeated_method_exits_2_with_one_line(tmp_path, capsys):
    # the ugee:nb rows were printed twice
    out = tmp_path / "bad"
    assert main(["simulate", "--scenario", "nb", "--n", "20", "--m", "3",
                 "--methods", "ugee:nb,ugee:nb", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "input error: method 'ugee:nb' is given twice\n"
    assert not (tmp_path / "bad.json").exists()


def test_simulate_negative_seed_exits_2_with_one_line(tmp_path, capsys):
    out = tmp_path / "bad"
    assert main(["simulate", "--scenario", "linear", "--n", "10", "--m", "2",
                 "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "input error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "bad.json").exists()


def test_simulate_nb_mean_beyond_the_count_draw_exits_2_with_one_line(tmp_path, capsys):
    # exp(1006) overflowed numpy's Poisson draw: "lam value too large", exit 1
    out = tmp_path / "bad"
    assert main(["simulate", "--n", "20", "--m", "3", "--beta0", "1000",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: beta0=1000 and beta1=3 put the mean count")
    assert err.count("\n") == 1 and not (tmp_path / "bad.json").exists()


def test_fit_cell_beyond_the_csv_field_limit_exits_2_naming_the_row(tmp_path, capsys):
    path = _write(tmp_path, "subjects.csv", "id,x1,y1\na,1,2\nb,2,5\n"
                  f"c,{'1' * 200_000},3\nd,4,1\n")
    assert main(["fit", "--data", path, "--layout", "subjects",
                 "--kernel", "sqhalfdiff"]) == 2
    err = capsys.readouterr().err
    assert err == (f"input error: {path}: row 4: field larger than field limit "
                   f"(131072)\n")


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_simulate_outputs_do_not_depend_on_the_cpu_count(tmp_path, capsys,
                                                         limit_cpus, scenario):
    outputs = []
    for cpus in (1, 2):
        limit_cpus(cpus)
        out = tmp_path / f"c{cpus}"
        code = main(["simulate", "--scenario", scenario, "--n", "20", "--m", "4",
                     "--seed", "3", "--out", str(out)])
        outputs.append((code, capsys.readouterr().out,
                        out.with_suffix(".csv").read_bytes(),
                        out.with_suffix(".json").read_bytes()))
    assert outputs[0] == outputs[1]


def _subparser(name):
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


def _action(parser, dest):
    return next(a for a in parser._actions if a.dest == dest)


def test_fit_solver_defaults_are_fit_config_defaults():
    fit = _subparser("fit")
    assert _action(fit, "tol").default == FitConfig.tol_eq
    assert _action(fit, "max_iter").default == FitConfig.max_iter


def test_flag_choices_are_the_library_names():
    assert tuple(_action(_subparser("simulate"), "scenario").choices) == \
        tuple(SCENARIOS)
    assert tuple(_action(_subparser("fit"), "link").choices) == LINK_KINDS
    assert tuple(_action(_subparser("fit"), "layout").choices) == LAYOUTS


def test_every_simulate_parameter_flag_is_a_generator_keyword():
    taken = set().union(*(row.parameters() for row in SCENARIOS.values()))
    sim = _subparser("simulate")
    for name, _ in _SCENARIO_PARAMS:
        assert name in taken
        assert _action(sim, name).option_strings == ["--" + name.replace("_", "-")]


def test_simulate_flags_are_the_generator_keywords_with_numeric_defaults():
    # int or float defaults, from the signature or the scenario's defaults
    assert dict(_SCENARIO_PARAMS) == {
        **dict.fromkeys(("tau", "beta0", "beta1", "a", "b", "beta", "sigma_x",
                         "sigma_eps", "mu", "sigma_b2", "sigma_bg2", "sigma_e2"),
                        float),
        "raters": int}
