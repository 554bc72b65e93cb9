"""Each demo script runs to completion on the public API (cheap arguments)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pairgee

DEMOS = Path(__file__).resolve().parent.parent / "demos"


# cheap arguments for the demos that take any
DEMO_ARGS = {
    "01_diversity_regression.py": [],
    "02_rank_regression.py": [],
    "03_rater_agreement.py": [],
    "04_working_variances.py": ["--n", "30", "--m", "5"],
    "05_full_scale_study.py": ["--m", "2", "--sizes", "20", "--out-prefix", "{tmp}/s"],
}


@pytest.mark.parametrize("script", sorted(DEMO_ARGS))
def test_demo_runs(script, tmp_path):
    src = str(Path(pairgee.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    args = [a.format(tmp=tmp_path) for a in DEMO_ARGS[script]]
    # the suite's warning rule, which a subprocess does not inherit
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(DEMOS / script)] + args,
                          capture_output=True, text=True, env=env, cwd=tmp_path,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
