"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0]
                             [--out bench/out/collect.json]

For every workload and metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  Runs are made
one after another with the command and ``run_seconds`` of BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "bench" / "out"


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args()

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(spec["run_seconds"]),
                                      "--trace", str(args.trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            runs.append(result)
            print(workload, seed, result["correct"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)
        names = runs[0]["metrics"]
        first = f"{workload}-seed{parse_seeds(args.seeds)[0]}-trace{args.trace}.json"
        summary[workload] = {
            "environment": json.loads((OUT / first).read_text())["environment"],
            "correct": all(r["correct"] for r in runs),
            "metrics": {k: dict(unit=names[k]["unit"], **summarise(
                [r["metrics"][k]["value"] for r in runs])) for k in names},
        }
        for k, s in summary[workload]["metrics"].items():
            print(f"  {k:<28} median {s['median']:.6g} {s['unit']:<6} "
                  f"spread {s['spread']:.4f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
