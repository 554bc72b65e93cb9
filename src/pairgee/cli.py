"""Command-line entry points: ``fit``, ``distance``, ``simulate``.

Exit codes: 0 success, 1 non-convergence or invalid simulation report,
2 input error.  The defaults of ``--out``, ``--layout``, ``--link``,
``--working-variance``, ``--tol``, ``--max-iter``, ``--n``, ``--m`` and
``--seed`` can be overridden by an environment variable named
``PAIRGEE_<FLAG>`` (dashes as underscores), e.g. ``PAIRGEE_TOL=1e-10``; a
value that does not parse is an input error.  Numbers in result files are
serialised with ``repr``, which round-trips float64 exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from . import __version__
from .errors import InputError, NonConvergence
from .fit import FitConfig, PairData, adaptive_fit, build_pairs, fit_icc
from .io import load_dataset
from .kernels import Kernel, apply_pseudocount, pairwise_responses
from .model import FrmModel, PairCovariate, WorkingVariance, stack_subjects
from .simulate import McConfig, run_monte_carlo
from .ustat import CHUNK_PAIRS, chunk_slices, enumerate_pairs

_WV_FLAGS = {"const": "constant", "poisson": "poisson", "propmean": "propmean",
             "nb": "nb", "bernoulli": "bernoulli"}
_PAIR_FLAGS = {"diff": "difference", "sum": "sum", "concat": "concatenate"}


@dataclass
class RunSpec:
    """Parsed command-line request; one command per process."""

    command: str
    data: str | None = None
    layout: str = "subjects"
    kernel: str | None = None
    link: str = "identity"
    pair: str | None = None
    working_variance: str = "const"
    intercept: bool = True
    ties: str = "le"
    pseudocount: str = "half-min"
    eps: float = 0.0
    tol: float = 1e-8
    max_iter: int = 100
    out: str | None = None
    full: bool = False
    seed: int = 0
    scenario: str = "nb"
    n: int = 100
    m: int = 200
    methods: str | None = None
    scenario_params: dict = field(default_factory=dict)


def _env_default(name: str, fallback, cast=str):
    var = f"PAIRGEE_{name.upper().replace('-', '_')}"
    raw = os.environ.get(var)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise InputError(f"environment variable {var}={raw!r} is not a valid "
                         f"{cast.__name__}") from None


def _fit_config(spec: RunSpec) -> FitConfig:
    return FitConfig(tol_eq=spec.tol, tol_step=spec.tol, max_iter=spec.max_iter)


def _parse_pair_flag(value: str | None) -> PairCovariate | None:
    if value is None:
        return None
    if value in _PAIR_FLAGS:
        return PairCovariate(_PAIR_FLAGS[value])
    if value.startswith("onehot:"):
        try:
            levels = int(value.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad onehot levels in --pair {value!r}") from None
        return PairCovariate("onehot", levels=levels)
    raise InputError(f"unknown pair transform {value!r} "
                     f"(expected diff|sum|concat|onehot:K)")


def _make_kernel(spec: RunSpec) -> Kernel:
    if spec.kernel == "aitchison":
        return Kernel.aitchison()
    if spec.kernel == "mww":
        return Kernel.mww(ties=spec.ties)
    if spec.kernel == "sqhalfdiff":
        return Kernel.sqhalfdiff()
    if spec.kernel == "icc":
        return Kernel.icc()
    raise InputError(f"unknown kernel {spec.kernel!r}")


def _result_payload(res) -> dict:
    se = res.se
    z = np.divide(res.beta, se, out=np.full_like(res.beta, np.nan),
                  where=se > 0)
    pvals = 2.0 * ndtr(-np.abs(z))
    return {
        "params": list(res.param_names or
                       [f"beta{k}" for k in range(len(res.beta))]),
        "beta": [float(v) for v in res.beta],
        "se": [float(v) for v in se],
        "z": [None if not np.isfinite(v) else float(v) for v in z],
        "p": [None if not np.isfinite(v) else float(v) for v in pvals],
        "covariance": [[float(v) for v in row] for row in res.cov_beta],
        "nuisance": (None if res.nuisance is None or not np.isfinite(res.nuisance)
                     else float(res.nuisance)),
        "iterations": res.iterations,
        "converged": bool(res.converged),
        "eq_norm": float(res.eq_norm),
        "n_subjects": res.n_subjects,
        "n_pairs": res.n_pairs,
    }


def cmd_fit(spec: RunSpec) -> int:
    """Fit a model to a dataset and write a JSON result."""
    if spec.data is None:
        raise InputError("fit needs --data")
    dataset = load_dataset(spec.data, spec.layout)

    if spec.kernel == "icc":
        if spec.layout != "subjects":
            raise InputError("icc kernel needs the subjects layout")
        _, Y, _ = stack_subjects(dataset)
        result = fit_icc(Y, _fit_config(spec))
    else:
        if isinstance(dataset, PairData):
            data = dataset
        else:
            if spec.kernel is None:
                raise InputError("subject-level layouts need --kernel")
            if spec.kernel == "aitchison" and spec.layout != "abundance":
                raise InputError("aitchison kernel needs the abundance layout")
            pseudo = spec.pseudocount if spec.kernel == "aitchison" else None
            data = build_pairs(dataset, _make_kernel(spec),
                               pair_covariate=_parse_pair_flag(spec.pair),
                               pseudocount=pseudo, eps=spec.eps)
        model = FrmModel(link=spec.link,
                         working_variance=WorkingVariance(
                             _WV_FLAGS.get(spec.working_variance,
                                           spec.working_variance)),
                         intercept=spec.intercept)
        try:
            result = adaptive_fit(model, data, _fit_config(spec))
        except NonConvergence as exc:
            if exc.result is not None:
                _write_json(spec.out, _result_payload(exc.result))
            print(f"fit did not converge: {exc}", file=sys.stderr)
            return 1

    payload = _result_payload(result)
    _write_json(spec.out, payload)
    return 0


def _write_json(out: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_distance(spec: RunSpec) -> int:
    """Write pairwise compositional distances for an abundance file."""
    if spec.data is None:
        raise InputError("distance needs --data")
    records = load_dataset(spec.data, "abundance")
    ids, Y, _ = stack_subjects(records)
    comps = np.vstack([apply_pseudocount(row, spec.pseudocount, spec.eps).values
                       for row in Y])
    if spec.out:
        with open(spec.out, "w", encoding="utf-8", newline="\n") as fh:
            _write_distances(fh, ids, comps, spec.full)
    else:
        _write_distances(sys.stdout, ids, comps, spec.full)
    return 0


def _write_distances(fh, ids, comps: np.ndarray, full: bool) -> None:
    """Write the distances about ``CHUNK_PAIRS`` pairs at a time, so that no
    array over all pairs and taxa is ever built."""
    kernel = Kernel.aitchison()
    n = len(ids)
    if full:
        fh.write("id," + ",".join(str(s) for s in ids) + "\n")
        for rows in chunk_slices(n, max(1, CHUNK_PAIRS // n)):
            block = np.arange(rows.start, rows.stop)
            dist = pairwise_responses(kernel, comps, np.repeat(block, n),
                                      np.tile(np.arange(n), len(block)))
            for a, row in zip(block.tolist(), dist.reshape(len(block), n).tolist()):
                fh.write(f"{ids[a]}," + ",".join(map(repr, row)) + "\n")
        return
    fh.write("i1,i2,distance\n")
    pairs = enumerate_pairs(n)
    for sl in chunk_slices(len(pairs), CHUNK_PAIRS):
        i1, i2 = pairs[sl, 0], pairs[sl, 1]
        dist = pairwise_responses(kernel, comps, i1, i2)
        fh.write("".join(f"{ids[a]},{ids[b]},{d!r}\n" for a, b, d
                         in zip(i1.tolist(), i2.tolist(), dist.tolist())))


def cmd_simulate(spec: RunSpec) -> int:
    """Run a Monte Carlo study; writes CSV + JSON and prints a summary table."""
    methods = tuple(spec.methods.split(",")) if spec.methods else ()
    config = McConfig(scenario=spec.scenario, n=spec.n, replicates=spec.m,
                      seed=spec.seed, methods=methods,
                      params=spec.scenario_params)
    report = run_monte_carlo(config)
    print(report.summary())
    if spec.out:
        report.to_csv(spec.out + ".csv")
        report.to_json(spec.out + ".json")
    return 1 if report.invalid else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairgee",
        description="Regression for between-subject (pairwise) attributes.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=_env_default("out", None))

    fit = sub.add_parser("fit", help="fit a pairwise regression")
    fit.add_argument("--data", required=True)
    fit.add_argument("--layout", choices=("subjects", "pairs", "abundance"),
                     default=_env_default("layout", "subjects"))
    fit.add_argument("--kernel", choices=("aitchison", "mww", "sqhalfdiff", "icc"))
    fit.add_argument("--link", choices=("identity", "exp", "expit", "probitc"),
                     default=_env_default("link", "identity"))
    fit.add_argument("--pair", help="diff | sum | concat | onehot:K")
    fit.add_argument("--working-variance", dest="working_variance",
                     choices=tuple(_WV_FLAGS), default=_env_default(
                         "working_variance", "const"))
    icpt = fit.add_mutually_exclusive_group()
    icpt.add_argument("--intercept", dest="intercept", action="store_true",
                      default=True)
    icpt.add_argument("--no-intercept", dest="intercept", action="store_false")
    fit.add_argument("--ties", choices=("le", "midrank"), default="le")
    fit.add_argument("--pseudocount", choices=("half-min", "additive"),
                     default="half-min")
    fit.add_argument("--eps", type=float, default=0.0,
                     help="additive pseudocount size")
    fit.add_argument("--tol", type=float, default=_env_default("tol", 1e-8, float))
    fit.add_argument("--max-iter", dest="max_iter", type=int,
                     default=_env_default("max_iter", 100, int))
    common(fit)

    dist = sub.add_parser("distance", help="pairwise compositional distances")
    dist.add_argument("--data", required=True)
    dist.add_argument("--pseudocount", choices=("half-min", "additive"),
                      default="half-min")
    dist.add_argument("--eps", type=float, default=0.0)
    dist.add_argument("--full", action="store_true",
                      help="write the full symmetric matrix")
    common(dist)

    sim = sub.add_parser("simulate", help="Monte Carlo study")
    sim.add_argument("--scenario", choices=("nb", "linear", "icc", "mww"),
                     default="nb")
    sim.add_argument("--n", type=int, default=_env_default("n", 100, int))
    sim.add_argument("--m", type=int, default=_env_default("m", 200, int))
    sim.add_argument("--seed", type=int, default=_env_default("seed", 0, int))
    sim.add_argument("--methods", help="comma-separated method list")
    for name in ("tau", "beta0", "beta1", "a", "b", "beta", "sigma-x",
                 "sigma-eps", "mu", "sigma-b2", "sigma-bg2", "sigma-e2"):
        sim.add_argument(f"--{name}", type=float, default=None)
    sim.add_argument("--raters", type=int, default=None)
    common(sim)
    return parser


def _spec_from_args(args: argparse.Namespace) -> RunSpec:
    spec = RunSpec(command=args.command)
    for name in vars(spec):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(spec, name, getattr(args, name))
    if args.command == "simulate":
        params = {}
        for name in ("tau", "beta0", "beta1", "a", "b", "beta", "sigma_x",
                     "sigma_eps", "mu", "sigma_b2", "sigma_bg2", "sigma_e2",
                     "raters"):
            val = getattr(args, name, None)
            if val is not None:
                params[name] = val
        spec.scenario_params = params
    return spec


def main(argv=None) -> int:
    try:
        spec = _spec_from_args(_build_parser().parse_args(argv))
        if spec.command == "fit":
            return cmd_fit(spec)
        if spec.command == "distance":
            return cmd_distance(spec)
        return cmd_simulate(spec)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NonConvergence as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
