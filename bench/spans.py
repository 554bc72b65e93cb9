"""Span tracing of pairgee from the outside.

``Tracer.install()`` replaces every public function of every ``pairgee``
module by a timing wrapper, in each module namespace that holds it (names
are imported from one module into another, so ``link_mean_deriv`` is
patched in ``pairgee.links``, ``pairgee.fit`` and ``pairgee.model``).  It
also times ``PairData.__post_init__`` (pair validation) and counts the
thread pools that ``pairgee.ustat`` creates.  ``uninstall()`` restores
every replaced name.

A span records its name, layer (the defining module), start, end, parent
span and operation id.  Spans stay in memory until ``write_spans``.
A worker thread's spans take as parent the innermost span open on the
main thread, which is the ``chunked_reduce`` that started the pool.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

MODULES = ("pairgee", "pairgee.cli", "pairgee.errors", "pairgee.fit",
           "pairgee.io", "pairgee.kernels", "pairgee.links", "pairgee.model",
           "pairgee.simulate", "pairgee.ustat")

# Per-layer metrics of a traced operation, in report order, with units.
LAYER_UNITS = {
    "fit.solve_calls": "count", "fit.iterations": "count",
    "fit.assemble_calls": "count", "fit.assemble_s": "s",
    "fit.merit_calls": "count", "fit.merit_s": "s",
    "fit.sandwich_calls": "count", "fit.sandwich_s": "s",
    "fit.nuisance_calls": "count", "fit.nuisance_s": "s",
    "fit.newton_self_s": "s", "fit.pairdata_s": "s",
    "ustat.reduce_calls": "count", "ustat.chunks": "count",
    "ustat.pools_created": "count", "ustat.accumulate_s": "s",
    "ustat.projection_variance_s": "s", "ustat.enumerate_s": "s",
    "links.calls": "count", "links.elements": "count", "links.eval_s": "s",
    "model.variance_calls": "count", "model.variance_s": "s",
    "model.augment_calls": "count", "model.augment_bytes": "bytes",
    "model.pair_covariate_s": "s",
    "kernels.pairs": "count", "kernels.responses_s": "s",
    "simulate.generate_s": "s", "simulate.mle_calls": "count",
    "simulate.mle_s": "s", "simulate.fits_failed": "count",
    "io.rows": "count", "io.load_s": "s",
    "cli.import_s": "s", "cli.self_s": "s", "cli.out_bytes": "bytes",
    "proc.cpu_s": "s", "op.alloc_peak_mb": "MB", "trace.overhead_frac": "ratio",
}


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: str

    @property
    def dur(self) -> float:
        return self.end - self.start


def _count_failures(report) -> int:
    """Failed (replicate, method) fits of a Monte Carlo report."""
    per_method = {}
    for row in report.rows:
        per_method[row.method] = row.failures
    return sum(per_method.values())


def _rows_loaded(dataset) -> int:
    return dataset.n_pairs if hasattr(dataset, "n_pairs") else len(dataset)


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


# Counters taken at layer boundaries: name -> (counter, f(args, kwargs, result)).
HOOKS = {
    "link_mean_deriv": ("links.elements",
                        lambda a, k, r: int(np.size(_arg(a, k, 1, "eta")))),
    "augment": ("model.augment_bytes", lambda a, k, r: int(r.size) * 8),
    "pairwise_responses": ("kernels.pairs", lambda a, k, r: len(_arg(a, k, 2, "i1"))),
    "chunk_slices": ("ustat.chunks", lambda a, k, r: len(r)),
    "load_dataset": ("io.rows", lambda a, k, r: _rows_loaded(r)),
    "run_monte_carlo": ("simulate.fits_failed", lambda a, k, r: _count_failures(r)),
    "solve_ugee": ("fit.iterations", lambda a, k, r: int(r.iterations)),
}


class Tracer:
    """In-memory span recorder that patches pairgee's public functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[tuple[str, str], int] = defaultdict(int)
        self.op = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- recording
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = (self._main_stack
                     if threading.current_thread() is threading.main_thread() else [])
            self._local.stack = stack
        return stack

    def count(self, name: str, value: int) -> None:
        with self._lock:
            self.counters[(self.op, name)] += value

    def _run(self, name: str, layer: str, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, layer, start, end, parent, self.op))

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span recorded under the current operation."""
        return self._run(name, layer, fn, args, kwargs)

    def _wrap(self, fn, name: str, layer: str):
        hook = HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer._run(name, layer, fn, args, kwargs)
            if hook is not None:
                tracer.count(hook[0], hook[1](args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # ------------------------------------------------------------ patching
    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(m) for m in MODULES]
        wrappers = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("pairgee."):
                    continue
                if id(value) not in wrappers:
                    layer = value.__module__.rsplit(".", 1)[1]
                    wrappers[id(value)] = self._wrap(value, value.__name__, layer)
                self._patch(mod, attr, wrappers[id(value)])

        from pairgee import fit, ustat
        self._patch(fit.PairData, "__post_init__",
                    self._wrap(fit.PairData.__post_init__,
                               "PairData.__post_init__", "fit"))
        base_pool = ustat.ThreadPoolExecutor
        tracer = self

        class CountingPool(base_pool):
            def __init__(self, *args, **kwargs):
                tracer.count("ustat.pools_created", 1)
                super().__init__(*args, **kwargs)

        self._patch(ustat, "ThreadPoolExecutor", CountingPool)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- reports
    def self_times(self, op: str) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        spans = [s for s in self.spans if s.op == op]
        children = defaultdict(list)
        for s in spans:
            children[s.parent].append(s)
        out = {}
        for s in spans:
            covered = 0.0
            lo_end = s.start
            for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
                lo = max(c.start, lo_end)
                hi = min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    lo_end = hi
            out[s.sid] = s.dur - covered
        return out

    def layer_table(self, op: str) -> dict[str, dict[str, float]]:
        """Per layer: span count, inclusive time of its outermost spans, self time."""
        spans = {s.sid: s for s in self.spans if s.op == op}
        selfs = self.self_times(op)
        table: dict[str, dict[str, float]] = {}
        for s in spans.values():
            row = table.setdefault(s.layer, {"calls": 0, "inclusive_s": 0.0,
                                             "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += selfs[s.sid]
            parent = spans.get(s.parent)
            if parent is None or parent.layer != s.layer:
                row["inclusive_s"] += s.dur
        return table

    def layer_metrics(self, op: str) -> dict[str, float]:
        """The per-layer metrics of one traced operation."""
        spans = [s for s in self.spans if s.op == op]
        by_id = {s.sid: s for s in spans}
        selfs = self.self_times(op)

        def calls(name):
            return sum(1 for s in spans if s.name == name)

        def total(*names):
            return sum(s.dur for s in spans if s.name in names)

        def counter(name):
            return self.counters.get((op, name), 0)

        merits = [s for s in spans if s.name == "chunked_reduce"
                  and s.parent in by_id and by_id[s.parent].name == "solve_ugee"]
        return {
            "fit.solve_calls": calls("solve_ugee"),
            "fit.iterations": counter("fit.iterations"),
            "fit.assemble_calls": calls("assemble_ugee"),
            "fit.assemble_s": total("assemble_ugee"),
            "fit.merit_calls": len(merits),
            "fit.merit_s": sum(s.dur for s in merits),
            "fit.sandwich_calls": calls("sandwich_variance"),
            "fit.sandwich_s": total("sandwich_variance"),
            "fit.nuisance_calls": calls("estimate_nuisance"),
            "fit.nuisance_s": total("estimate_nuisance"),
            "fit.newton_self_s": sum(selfs[s.sid] for s in spans
                                     if s.name == "solve_ugee"),
            "fit.pairdata_s": total("PairData.__post_init__"),
            "ustat.reduce_calls": calls("chunked_reduce"),
            "ustat.chunks": counter("ustat.chunks"),
            "ustat.pools_created": counter("ustat.pools_created"),
            "ustat.accumulate_s": total("interleaved_accumulate"),
            "ustat.projection_variance_s": total("projection_variance"),
            "ustat.enumerate_s": total("enumerate_pairs"),
            "links.calls": calls("link_mean_deriv"),
            "links.elements": counter("links.elements"),
            "links.eval_s": total("link_mean_deriv"),
            "model.variance_calls": calls("variance_eval"),
            "model.variance_s": total("variance_eval"),
            "model.augment_calls": calls("augment"),
            "model.augment_bytes": counter("model.augment_bytes"),
            "model.pair_covariate_s": total("pair_covariate_matrix",
                                            "pair_covariate_eval"),
            "kernels.pairs": counter("kernels.pairs"),
            "kernels.responses_s": total("pairwise_responses"),
            "simulate.generate_s": total("gen_nb_scenario", "gen_linear_exogenous",
                                         "gen_icc_ratings", "gen_mww_probit"),
            "simulate.mle_calls": calls("nb_working_mle"),
            "simulate.mle_s": total("nb_working_mle"),
            "simulate.fits_failed": counter("simulate.fits_failed"),
            "io.rows": counter("io.rows"),
            "io.load_s": total("load_dataset"),
            "cli.self_s": sum(selfs[s.sid] for s in spans if s.layer == "cli"),
        }

    def write_spans(self, path) -> None:
        """One JSON object per line: name, layer, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "name": s.name, "layer": s.layer,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op}) + "\n")
