"""pairgee benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload fit-nb-n2000 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; pairgee is imported from ``src/``.
Each run prints every metric as ``name value unit`` and, as its last line,
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run (see ``spans.py``).  A record of the
run (environment, samples, check notes; for traced runs also the
per-layer table and the spans) is written under ``bench/out/``.

Operations run closed-loop, one at a time, until ``--seconds`` have passed
and at least ``MIN_OPS`` (or the workload's ``min_ops``) have completed;
``op_s`` is their median.  Set-up
is repeated ``SETUP_REPS`` times and ``setup_s`` is the import time plus
the median set-up.  ``--size smoke`` shrinks the inputs for the smoke test.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MIN_OPS = 3
SETUP_REPS = 3
TRACE_VERSION_REPS = 3

E2E_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    return p.parse_args(argv)


def environment() -> dict:
    """Versions, CPU count, BLAS and its thread setting, git commit."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "PAIRGEE_THREADS") if k in os.environ},
        "git_commit": None,
    }
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            env["git_commit"] = done.stdout.strip()
    return env


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            return int(fn())
    return None


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def attempt(fn):
    """Run one operation: (its output, or None if it raised; seconds)."""
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception:  # noqa: BLE001 - a failed operation is counted
        traceback.print_exc(file=sys.stderr)
        out = None
    return out, time.perf_counter() - t0


def run_ops(wl, seconds: float, min_ops: int):
    """Closed loop: returns (op times, cpu times, outputs, ops that raised)."""
    times, cpus, outputs = [], [], []
    start = time.perf_counter()
    while len(times) < min_ops or time.perf_counter() - start < seconds:
        c0 = _cpu_s()
        out, dt = attempt(wl.op)
        times.append(dt)
        cpus.append(_cpu_s() - c0)
        if out is not None:
            outputs.append(out)
    return times, cpus, outputs, len(times) - len(outputs)


def checked(wl, outputs, raised):
    attempted, failed, notes = wl.check(outputs) if outputs else (0, 0, [])
    units = getattr(wl, "units_per_op", 1)
    return attempted + raised * units, failed + raised * units, notes


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(wl, args, import_s, record):
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup(args.seed)
        wl.warmup()
        setups.append(time.perf_counter() - t0)
    times, cpus, outputs, raised = run_ops(wl, args.seconds,
                                           getattr(wl, "min_ops", MIN_OPS))
    rss = peak_rss_mb(wl)
    attempted, failed, notes = checked(wl, outputs, raised)
    record.update(import_s=import_s, setup_samples=setups, op_samples=times,
                  cpu_samples=cpus, notes=notes, fail_frac=failed / attempted)
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "op_s": statistics.median(times),
        "peak_rss_mb": rss,
        "ok_frac": 1.0 - failed / attempted,
    }
    return attempted, failed, metrics


def traced(wl, args, record, stem):
    from spans import Tracer

    wl.setup(args.seed)
    wl.warmup()
    times, cpus, outputs, raised = run_ops(wl, args.seconds / 2, 1)

    import_s = 0.0
    if hasattr(wl, "version_process"):
        samples = []
        for _ in range(TRACE_VERSION_REPS):
            t0 = time.perf_counter()
            wl.version_process()
            samples.append(time.perf_counter() - t0)
        import_s = statistics.median(samples)

    op_fn = getattr(wl, "traced_op", wl.op)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = "op"
        traced_out, traced_s = attempt(lambda: tracer.span("op", "bench", op_fn))
    finally:
        tracer.uninstall()
    tracemalloc.start()
    try:
        alloc_out, _ = attempt(op_fn)
        alloc_peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()

    extra = [out for out in (traced_out, alloc_out) if out is not None]
    attempted, failed, notes = checked(wl, outputs + extra, raised + 2 - len(extra))
    for label, out in (("traced", traced_out), ("tracemalloc", alloc_out)):
        if outputs and out is not None and not wl.same(out, outputs[0]):
            failed += 1
            notes.append(f"{label} output differs from the untraced output")

    metrics = tracer.layer_metrics("op")
    root = next(s for s in tracer.spans if s.op == "op" and s.name == "op")
    table = tracer.layer_table("op")
    self_sum = sum(row["self_s"] for row in table.values())
    if metrics["ustat.pools_created"] == 0 and \
            abs(self_sum - root.dur) > 1e-9 * max(root.dur, 1.0):
        failed += 1
        notes.append(f"layer self times sum to {self_sum!r}, op span {root.dur!r}")
    metrics.update({
        "cli.import_s": import_s,
        "cli.out_bytes": wl.out_bytes() if hasattr(wl, "out_bytes") else 0,
        "proc.cpu_s": statistics.median(cpus),
        "op.alloc_peak_mb": alloc_peak,
        "trace.overhead_frac": traced_s / statistics.median(times) - 1.0,
    })

    lines = [f"{'layer':<10}{'calls':>10}{'inclusive_s':>14}{'self_s':>12}"]
    for layer in sorted(table):
        row = table[layer]
        lines.append(f"{layer:<10}{row['calls']:>10}{row['inclusive_s']:>14.6f}"
                     f"{row['self_s']:>12.6f}")
    lines.append(f"{'sum':<10}{'':>10}{'':>14}{self_sum:>12.6f}")
    lines.append(f"{'op span':<10}{'':>10}{root.dur:>14.6f}")
    (OUT / f"{stem}-layers.txt").write_text("\n".join(lines) + "\n")
    tracer.write_spans(OUT / f"{stem}-spans.jsonl")
    record.update(op_samples=times, traced_s=traced_s, notes=notes,
                  layers=table, self_sum_s=self_sum, op_span_s=root.dur)
    return attempted, failed, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pairgee" / "__init__.py").is_file():
        print(f"error: no pairgee sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pairgee

    if Path(pairgee.__file__).resolve().parent != (SRC / "pairgee").resolve():
        print(f"error: imported pairgee from {pairgee.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    import_s = time.perf_counter() - T0

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.size, OUT)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "size": args.size,
              "environment": environment()}
    if args.trace:
        from spans import LAYER_UNITS as units
        attempted, failed, metrics = traced(wl, args, record, stem)
    else:
        attempted, failed, metrics = end_to_end(wl, args, import_s, record)
        units = E2E_UNITS

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": unit}
                          for k, unit in units.items()}}
    record["result"] = result
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    for note in record.get("notes", []):
        print(f"check: {note}")
    for k, v in result["metrics"].items():
        print(f"{k} {v['value']!r} {v['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
