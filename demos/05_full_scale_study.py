"""Offline reproduction of the full-scale efficiency study.

Runs the overdispersed-count scenario at the published scale (M = 1000
replicates; n = 100, 300, 500) for the likelihood benchmark and the three
working variances, writing one CSV/JSON report per sample size.  This is
deliberately not part of the test suite: the n = 500 block alone fits
4 x 1000 models on 124,750 pairs each.  The replicates run on one process
per usable CPU, and the reports are the same bytes for any number of
CPUs.  On a 2-CPU host the default run takes about 4 minutes; use --m and
--sizes for a cheaper pass.  The reports of
``--out-prefix results/full_study`` are committed under ``results/``.
"""

import argparse
import time

from pairgee import McConfig, run_monte_carlo

parser = argparse.ArgumentParser()
parser.add_argument("--m", type=int, default=1000)
parser.add_argument("--sizes", type=int, nargs="+", default=[100, 300, 500])
parser.add_argument("--seed", type=int, default=11000)
parser.add_argument("--out-prefix", default="full_study")
args = parser.parse_args()

for n in args.sizes:
    config = McConfig(
        scenario="nb", n=n, replicates=args.m, seed=args.seed,
        methods=("mle:nb", "ugee:nb", "ugee:poisson", "ugee:const"),
        params={"tau": 10.0, "beta0": 3.0, "beta1": 3.0, "a": 0.0, "b": 1.0})
    start = time.perf_counter()
    report = run_monte_carlo(config)
    elapsed = time.perf_counter() - start
    print(f"\n===== n={n} ({elapsed:.0f}s) =====")
    print(report.summary())
    report.to_csv(f"{args.out_prefix}_n{n}.csv")
    report.to_json(f"{args.out_prefix}_n{n}.json")
