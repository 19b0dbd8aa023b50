"""Run the benchmark over several seeds and summarise it as a trajectory point.

    python3 perfbench/trajectory.py --seeds 1-10 --label seed --out perfbench/trajectory/0-seed.json

For each workload (and each seed) it runs run.py untraced, and once traced
on the first seed, and records per end-to-end metric the median, the
quartiles and the spread (quartile distance / median), the same for the
times before the machine-speed scaling (`raw`), per-layer metrics of the
traced run, and every run's values.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    raw = [line.split() for line in lines if line.startswith(f"{workload} raw wall ")]
    if raw:  # "<workload> raw wall <s> s, raw setup <s> s, ..."
        result["raw"] = {"wall_s": float(raw[0][3]), "setup_s": float(raw[0][7])}
    print(workload, seed, trace, json.dumps(result), flush=True)
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        config = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    point = {
        "label": args.label,
        "machine": f"{os.cpu_count()} cores, {platform.machine()}, Python {platform.python_version()}",
        "seeds": args.seeds,
        "run_seconds": config["run_seconds"],
        "workloads": {},
    }
    for workload in (w["name"] for w in config["workloads"]):
        runs = [bench(workload, s, config["run_seconds"], 0) for s in args.seeds]
        traced = bench(workload, args.seeds[0], config["run_seconds"], 1)
        names = [m["name"] for m in config["end_to_end"]]
        point["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                n: dict(spread([r["metrics"][n]["value"] for r in runs]),
                        unit=runs[0]["metrics"][n]["unit"],
                        runs=[r["metrics"][n]["value"] for r in runs])
                for n in names
            },
            "raw": {
                n: dict(spread([r["raw"][n] for r in runs]), runs=[r["raw"][n] for r in runs])
                for n in ("wall_s", "setup_s")
            },
            "per_layer": {n: m["value"] for n, m in traced["metrics"].items()},
        }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(point, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
