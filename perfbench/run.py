"""pairideal benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload primes_qq --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run from the root of a source checkout; the program is imported from
./src.  Each job is one `pairideal` CLI command in a fresh interpreter
(closed loop, one client, jobs one after another).  Every job runs once;
then jobs repeat in list order while the next one is expected to end
within --seconds.

--trace 0 prints the end-to-end metrics, measured untraced:
  wall_s       one pass over the job list, setup excluded: the sum over jobs
               of the median time from `import pairideal.cli` done to the
               command's return
  setup_s      median over jobs of spawn until `import pairideal.cli` is done
  peak_rss_mb  max peak RSS over the workers
Both times are scaled to the reference speed (see speed.py); the raw
values and the scale are printed on a text line, with fail_frac (failed /
attempted jobs).

--trace 1 runs every job once, traced, and prints the per-layer metrics
(see layertrace.py), the traced pass time next to the sum of the layer self
times, and the estimated tracing overhead.

Every job's output is checked against expected.json; the last stdout line
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from checker import check, load_expected
from layertrace import Tracer, layer_metrics, merge
from speed import REFERENCE_S
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK_DIR = os.path.join(HERE, ".work")
RUN_LIMIT_S = 170  # a run must end within 180 s; a job still running then fails


def run_job(job, path, trace, deadline=None):
    """Spawn one worker; return its result with setup and end-to-end times."""
    request = json.dumps({"argv": job.argv(path), "trace": trace})
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    spawn_ns = time.monotonic_ns()
    with subprocess.Popen(
        [sys.executable, WORKER, request],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"spawn_ns": spawn_ns, "end_ns": time.monotonic_ns(),
                    "error": f"stopped at the {RUN_LIMIT_S} s run limit"}
    end_ns = time.monotonic_ns()
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"error": f"worker exited {proc.returncode} without a result: {err[-2000:]}"}
    result.update(spawn_ns=spawn_ns, end_ns=end_ns)
    if "imported_ns" in result:
        result["setup_s"] = (result["imported_ns"] - spawn_ns) / 1e9
    return result


def job_seconds(result):
    """Spawn to exit: what a job costs the run."""
    return (result["end_ns"] - result["spawn_ns"]) / 1e9


def program_seconds(result):
    """The command's own time, from `import pairideal.cli` done to its return."""
    if "done_ns" not in result:  # the worker died; charge the whole job
        return job_seconds(result)
    return (result["done_ns"] - result["imported_ns"]) / 1e9


def run_workload(name, seed, seconds, trace, expected):
    from inputs import write_inputs  # imports pairideal, so only once SRC is known

    jobs = WORKLOADS[name]
    paths = write_inputs(jobs, seed, os.path.join(WORK_DIR, "inputs"))
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S

    runs = [(job, run_job(job, paths[(job.fixture, job.field)], trace, deadline))
            for job in jobs]
    times = {job.id: [program_seconds(r)] for job, r in runs}
    costs = {job.id: job_seconds(r) for job, r in runs}
    while not trace:
        # repeat jobs in list order while the next one should end within --seconds
        job = jobs[len(runs) % len(jobs)]
        if time.monotonic() - start + costs[job.id] > seconds:
            break
        result = run_job(job, paths[(job.fixture, job.field)], False, deadline)
        runs.append((job, result))
        times[job.id].append(program_seconds(result))

    failures = []
    for job, result in runs:
        reason = check(job, result, expected)
        if reason:
            failures.append(f"{job.id}: {reason}")
    attempted = len(runs)
    for job in jobs:
        print(f"job {job.id} {statistics.median(times[job.id]):.3f} s ({len(times[job.id])} runs)")
    for line in failures:
        print(f"FAIL {name} {line}")

    if trace:
        total = Tracer().report()
        for _, result in runs:
            if result.get("trace"):
                merge(total, result["trace"])
        metrics = layer_metrics(total)
        traced_wall = sum(program_seconds(r) for _, r in runs)
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_frac"] = {
            "value": metrics["trace.overhead_s"]["value"] / traced_wall, "unit": "ratio"}
        os.makedirs(WORK_DIR, exist_ok=True)
        with open(os.path.join(WORK_DIR, f"trace-{name}-s{seed}.json"), "w") as fh:
            json.dump(total, fh, indent=1, sort_keys=True)
    else:
        setups = [r["setup_s"] for _, r in runs if "setup_s" in r]
        rss = [r["maxrss_kb"] for _, r in runs if "maxrss_kb" in r]
        refs = [r["reference_s"] for _, r in runs if "reference_s" in r]
        scale = REFERENCE_S / statistics.mean(refs) if refs else None
        wall = sum(statistics.median(t) for t in times.values())
        setup = statistics.median(setups) if setups else None
        print(f"{name} raw wall {wall:.4f} s, raw setup {setup} s, "
              f"{len(refs)} reference runs, scale {scale}")
        metrics = {
            "wall_s": {"value": wall * scale if scale else None, "unit": "s"},
            "setup_s": {"value": setup * scale if scale and setup else None, "unit": "s"},
            "peak_rss_mb": {"value": max(rss) / 1024 if rss else None, "unit": "MB"},
        }
    fail_frac = len(failures) / attempted
    for key, metric in metrics.items():
        print(f"{name} {key} {metric['value']} {metric['unit']}")
    print(f"{name} fail_frac {fail_frac} ratio ({len(failures)}/{attempted} jobs)")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    ap.add_argument("--seconds", type=float, default=run_seconds)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pairideal", "__init__.py")):
        print(f"error: no pairideal sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    expected = load_expected()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), expected)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
