"""Command-line entry points: ``fit``, ``distance``, ``simulate``.

Each ``cmd_*`` takes the namespace argparse returns; flag choices and
solver defaults come from the library.  A ``fit`` flag that the layout and
kernel do not read is an input error.  The ``simulate`` parameter flags are
the scenario generators' keywords with numeric defaults; each applies only
to scenarios whose generator takes it, any other one is an input error, as
is a method that does not apply to the scenario.

Exit codes: 0 success, 1 non-convergence, a fit that cannot be evaluated
(a singular scoring matrix, a non-finite mean, degenerate responses) or an
invalid simulation report, 2 input error.  Settings come from the
arguments alone.  Numbers in result files are serialised with ``repr``,
which round-trips float64 exactly.  A fit result's ``z`` and ``p`` are
``FitResult.z`` and ``FitResult.p``, the Wald statistic and its two-sided
normal p-value erfc(|z| / sqrt 2), so this module loads no scipy: an
``exp``-link fit and ``distance`` run without it.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .errors import EvaluationError, InputError, NonConvergence, SingularInformation
from .fit import FitConfig, adaptive_fit, build_pairs, fit_icc
from .io import LAYOUTS, load_dataset
from .kernels import KERNEL_KINDS, Kernel, _close_counts, _responses_of
from .links import LINK_KINDS
from .model import (VARIANCE_FLAGS, FrmModel, PairCovariate, WorkingVariance,
                    stack_subjects)
from .simulate import SCENARIOS, McConfig, run_monte_carlo
from .ustat import pair_chunks

_PAIR_FLAGS = {"diff": "difference", "sum": "sum", "concat": "concatenate"}


def _scenario_params() -> tuple:
    """The simulate flags as (dest, type): one per scenario-generator keyword
    whose default (``Scenario.parameters``) is an int or a float, typed as
    that default."""
    flags = {}
    for row in SCENARIOS.values():
        for name, default in row.parameters().items():
            if type(default) in (int, float):
                flags.setdefault(name, type(default))
    return tuple(flags.items())


_SCENARIO_PARAMS = _scenario_params()


def _fit_config(args: argparse.Namespace) -> FitConfig:
    return FitConfig(tol_eq=args.tol, max_iter=args.max_iter)


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


def _result_payload(res) -> dict:
    return {
        "params": list(res.param_names),
        "beta": [float(v) for v in res.beta],
        "se": [float(v) for v in res.se],
        "z": [None if not np.isfinite(v) else float(v) for v in res.z],
        "p": [None if not np.isfinite(v) else float(v) for v in res.p],
        "covariance": [[float(v) for v in row] for row in res.cov_beta],
        "nuisance": (None if res.nuisance is None or not np.isfinite(res.nuisance)
                     else float(res.nuisance)),
        "iterations": res.iterations,
        "converged": bool(res.converged),
        "eq_norm": float(res.eq_norm),
        "n_subjects": res.n_subjects,
        "n_pairs": res.n_pairs,
    }


def _reject_unread_flags(args: argparse.Namespace) -> None:
    """A given ``fit`` flag that the layout and kernel do not read is an
    input error; only the subjects layout has covariates for ``--pair``,
    and the ``icc`` fit reads none of the scalar model's flags.  The data
    flags are checked before the model flags."""
    subjects = args.layout != "pairs"
    scalar = args.kernel != "icc"
    data_flags = {"kernel": subjects,
                  "pair": args.layout == "subjects" and scalar,
                  "ties": subjects and args.kernel == "mww",
                  "pseudocount": subjects and args.kernel == "aitchison",
                  "eps": subjects and args.kernel == "aitchison"}
    model_flags = {"link": scalar, "working_variance": scalar, "intercept": scalar}
    for reads in (data_flags, model_flags):
        unread = ["--no-intercept" if getattr(args, flag) is False
                  else "--" + flag.replace("_", "-")
                  for flag, read in reads.items()
                  if not read and getattr(args, flag) is not None]
        if unread:
            raise InputError(f"{', '.join(unread)} not read with --layout "
                             f"{args.layout} and --kernel {args.kernel or '(none)'}")


def cmd_fit(args: argparse.Namespace) -> int:
    """Fit a model to a dataset and write a JSON result."""
    _reject_unread_flags(args)
    dataset = load_dataset(args.data, args.layout)

    if args.kernel == "icc":
        if args.layout != "subjects":
            raise InputError("icc kernel needs the subjects layout")
        _, Y, _ = stack_subjects(dataset)
        result = fit_icc(Y, _fit_config(args))
    else:
        if args.layout == "pairs":
            data = dataset
        else:
            if args.kernel is None:
                raise InputError("subject-level layouts need --kernel")
            if args.kernel == "aitchison" and args.layout != "abundance":
                raise InputError("aitchison kernel needs the abundance layout")
            pseudo = args.pseudocount or "half-min"
            data = build_pairs(dataset, Kernel(args.kernel, ties=args.ties or "le"),
                               pair_covariate=_parse_pair_flag(args.pair),
                               pseudocount=pseudo if args.kernel == "aitchison" else None,
                               eps=args.eps or 0.0)
        model = FrmModel(link=args.link or "identity",
                         working_variance=WorkingVariance(
                             VARIANCE_FLAGS[args.working_variance or "const"]),
                         intercept=args.intercept is not False)
        try:
            result = adaptive_fit(model, data, _fit_config(args))
        except NonConvergence as exc:
            if exc.result is not None:
                _write_json(args.out, _result_payload(exc.result))
            print(f"fit did not converge: {exc}", file=sys.stderr)
            return 1

    payload = _result_payload(result)
    _write_json(args.out, payload)
    return 0


def _write_json(out: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_distance(args: argparse.Namespace) -> int:
    """Write pairwise compositional distances for an abundance file."""
    records = load_dataset(args.data, "abundance")
    ids, Y, _ = stack_subjects(records)
    comps = _close_counts(Y, args.pseudocount, args.eps)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            _write_distances(fh, ids, comps, args.full)
    else:
        _write_distances(sys.stdout, ids, comps, args.full)
    return 0


def _write_distances(fh, ids, comps: np.ndarray, full: bool) -> None:
    """Write the n(n-1)/2 distances, each evaluated once, as ``i1,i2,distance``
    rows, one ``ustat.CHUNK_PAIRS``-pair chunk evaluated and written at a time,
    or with ``full`` as the rows of the symmetric n x n matrix with a zero
    diagonal filled from them."""
    n = len(ids)
    chunks = pair_chunks(n)
    distances = _responses_of(Kernel.aitchison(), comps)
    if full:
        matrix = np.zeros((n, n))
        for _, i1, i2 in chunks:
            matrix[i1, i2] = matrix[i2, i1] = distances(i1, i2)
        fh.write("id," + ",".join(str(s) for s in ids) + "\n")
        for sid, row in zip(ids, matrix):
            fh.write(f"{sid}," + ",".join(map(repr, row.tolist())) + "\n")
        return
    fh.write("i1,i2,distance\n")
    for _, i1, i2 in chunks:
        dist = distances(i1, i2)
        fh.write("".join(f"{ids[a]},{ids[b]},{d!r}\n" for a, b, d
                         in zip(i1.tolist(), i2.tolist(), dist.tolist())))


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run a Monte Carlo study; writes CSV + JSON and prints a summary table."""
    methods = tuple(args.methods.split(",")) if args.methods else ()
    params = {name: getattr(args, name) for name, _ in _SCENARIO_PARAMS
              if getattr(args, name) is not None}
    config = McConfig(scenario=args.scenario, n=args.n, replicates=args.m,
                      seed=args.seed, methods=methods, params=params)
    report = run_monte_carlo(config)
    print(report.summary())
    if args.out:
        report.to_csv(args.out + ".csv")
        report.to_json(args.out + ".json")
    return 1 if report.invalid else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairgee",
        description="Regression for between-subject (pairwise) attributes.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a pairwise regression")
    fit.set_defaults(run=cmd_fit)
    fit.add_argument("--data", required=True)
    fit.add_argument("--layout", choices=LAYOUTS, default="subjects")
    fit.add_argument("--kernel", choices=tuple(k for k in KERNEL_KINDS
                                               if k != "custom"))
    fit.add_argument("--link", choices=LINK_KINDS, help="(default identity)")
    fit.add_argument("--pair", help="diff | sum | concat | onehot:K")
    fit.add_argument("--working-variance", dest="working_variance",
                     choices=tuple(VARIANCE_FLAGS), help="(default const)")
    icpt = fit.add_mutually_exclusive_group()
    icpt.add_argument("--intercept", dest="intercept", action="store_true",
                      default=None, help="(default)")
    icpt.add_argument("--no-intercept", dest="intercept", action="store_false",
                      default=None)
    fit.add_argument("--ties", choices=("le", "midrank"),
                     help="mww tie convention (default le)")
    fit.add_argument("--pseudocount", choices=("half-min", "additive"),
                     help="aitchison zero repair (default half-min)")
    fit.add_argument("--eps", type=float,
                     help="additive pseudocount size (default 0)")
    fit.add_argument("--tol", type=float, default=FitConfig.tol_eq)
    fit.add_argument("--max-iter", dest="max_iter", type=int,
                     default=FitConfig.max_iter)
    fit.add_argument("--out")

    dist = sub.add_parser("distance", help="pairwise compositional distances")
    dist.set_defaults(run=cmd_distance)
    dist.add_argument("--data", required=True)
    dist.add_argument("--pseudocount", choices=("half-min", "additive"),
                      default="half-min")
    dist.add_argument("--eps", type=float, default=0.0)
    dist.add_argument("--full", action="store_true",
                      help="write the full symmetric matrix")
    dist.add_argument("--out")

    sim = sub.add_parser("simulate", help="Monte Carlo study")
    sim.set_defaults(run=cmd_simulate)
    sim.add_argument("--scenario", choices=tuple(SCENARIOS), default="nb")
    sim.add_argument("--n", type=int, default=100)
    sim.add_argument("--m", type=int, default=200)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--methods", help="comma-separated method list")
    for name, cast in _SCENARIO_PARAMS:
        sim.add_argument("--" + name.replace("_", "-"), type=cast)
    sim.add_argument("--out")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NonConvergence as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return 1
    except (EvaluationError, SingularInformation) as exc:
        print(f"cannot evaluate the fit: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
