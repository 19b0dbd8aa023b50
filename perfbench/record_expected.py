"""Record expected.json: every job's invariant projection, with its sources.

    python3 perfbench/record_expected.py

Runs each job of every workload on the untransformed fixture, through the
same worker the benchmark uses, and keeps the invariant projection of its
output (checker.project).  Before writing, each value is cross-checked by
a second route of the program, or against a closed form, or against a
hand-written assertion of the test suite; `sources` records which.  A
failed cross-check aborts without writing.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from checker import EXPECTED, digest, project  # noqa: E402
from inputs import write_inputs  # noqa: E402
from run import WORK_DIR, run_job  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

# Hand-written values of the test suite, with where they are asserted.
A3_IDEAL_BETTI = {  # tests/test_graded.py A3_IDEAL_BETTI
    (0, (1, 1)): 5, (1, (2, 1)): 1, (1, (1, 2)): 1, (1, (2, 2)): 7, (1, (3, 1)): 1,
    (1, (1, 3)): 1, (2, (3, 2)): 5, (2, (2, 3)): 5, (3, (3, 3)): 3,
}
A3_CYCLIC = [[], [1, 2, 4], [1, 3, 5], [2, 3, 6], [4, 5, 6], [1, 2, 3, 4, 5, 6]]
SEVEN_CYCLIC = [([], 0), ([1, 2, 4, 6], 2), ([1, 3, 5, 7], 2), (list(range(1, 8)), 3)]
SEVEN_EMBEDDED = [
    ([1, 2, 4, 6], list(range(1, 8))),
    ([1, 3, 5, 7], list(range(1, 8))),
    (list(range(1, 8)), list(range(1, 8))),
]
TEST_GRADED = "test assertion: tests/test_graded.py A3_IDEAL_BETTI"
CRITERION = "test assertion: tests/test_acceptance.py criterion {}"


def output(job):
    paths = write_inputs([job], None, os.path.join(WORK_DIR, "reference"))
    result = run_job(job, paths[(job.fixture, job.field)], trace=False)
    if result.get("error") or result["exit_code"] != job.exit_code:
        raise SystemExit(f"{job.id}: {result.get('error') or result['exit_code']}")
    return json.loads(result["stdout"])


def on_field(job, field):
    return output(Job(job.id, job.fixture, field, job.args, job.exit_code))


def require(cond, what):
    if not cond:
        raise SystemExit(f"cross-check failed: {what}")


def entries(table):
    return {(e["p"], (e["i"], e["j"])): e["dim"] for e in table["entries"]}


def pairs_of(primes, tag=None):
    return [(p["I"], p["J"]) for p in primes if tag is None or p["tag"] == tag]


def drop_field(report):
    """Projection without the keys that name the field (QQ vs GF(p) route)."""
    if isinstance(report, dict):
        return {k: drop_field(v) for k, v in report.items()
                if k not in ("field", "char_warning")}
    if isinstance(report, list):
        return [drop_field(v) for v in report]
    return report


def sources(job, out):
    """Cross-check one job's output; return the list of its sources."""
    cmd, fx = job.args[0], job.fixture
    src = ["recorded at the seed commit from the untransformed fixture"]
    if cmd == "betti":
        if "koszul" in out:
            require(out["methods_agree"] and entries(out["koszul"]) == entries(out["resolution"]),
                    f"{job.id}: Koszul and Schreyer tables differ")
            src.append("two routes: Koszul homology table == Schreyer complex table")
        else:
            from pairideal.fixtures import get_fixture
            from pairideal.workbench import Workbench

            kosz = Workbench(get_fixture(fx)).engine.koszul_betti(window=5, hard_cap=5,
                                                                 target="ideal")
            window = {k: v for k, v in entries(out["resolution"]).items() if sum(k[1]) <= 5}
            require(kosz.entries == window, f"{job.id}: windowed Koszul table differs")
            src.append("two routes: Schreyer table == Koszul table on i+j<=5 "
                       "(as in tests/test_acceptance.py criterion 6)")
        if fx == "a3":
            require(entries(out["resolution"]) == A3_IDEAL_BETTI, "a3 Betti table")
            src += [TEST_GRADED, CRITERION.format(1)]
        if fx == "seven":
            require(max(p for p, _ in entries(out["resolution"])) + 1 == 7, "seven pdim 7")
            src.append(CRITERION.format(3) + " (quotient pdim 7)")
    elif cmd == "primes":
        require(pairs_of(out["minimal_primes"]) == pairs_of(out["associated_primes"], "minimal"),
                f"{job.id}: colon scan and cyclic flats disagree on minimal primes")
        require(out["embedded_primes"] == [p for p in out["associated_primes"]
                                           if p["tag"] == "embedded"], f"{job.id}: embedded")
        src.append("two routes: minimal primes by colon scan == by cyclic flats")
        if fx == "a3":
            require(len(out["associated_primes"]) == 6 and not out["embedded_primes"], "a3 primes")
            src.append(CRITERION.format(2))
        if fx == "seven":
            require(pairs_of(out["embedded_primes"]) == SEVEN_EMBEDDED, "seven embedded")
            require(all(d["tag"] == "minimal" for d in out["slice_x"]), "seven slice_x")
            ey = [d for d in out["slice_y"] if d["tag"] == "embedded"]
            require(len(ey) == 1 and ey[0]["is_maximal_ideal"], "seven slice_y")
            src.append(CRITERION.format(3))
    elif cmd == "flats":
        n = int(fx.rsplit(":", 1)[1])
        r = n if fx.startswith("boolean") else int(fx.split(":")[1])
        small = [f for f in out["flats"] if len(f["flat"]) < r]
        require(all(f["rank"] == len(f["flat"]) for f in small), f"{job.id}: flat ranks")
        from math import comb

        require(len(small) == sum(comb(n, k) for k in range(r)), f"{job.id}: flat count")
        cyclic = [[]] if r == n else [[], list(range(1, n + 1))]
        require([f["flat"] for f in out["cyclic_flats"]] == cyclic, f"{job.id}: cyclic flats")
        require(len(out["circuits"]) == (0 if r == n else comb(n, r + 1)), f"{job.id}: circuits")
        src.append("closed form: flats of the boolean / uniform matroid")
    elif cmd == "verify":
        results = out if isinstance(out, list) else [out]
        require(all(r.get("passed") or r.get("skipped") for r in results), f"{job.id}: passed")
        src.append("the verify target compares two routes itself")
        for r in results:
            if r["target"] == "min-primes":
                require(r["certificate"]["verified"], f"{job.id}: radical certificate")
        if job.field == "gfp" or "linear-type" in job.args or "min-primes" in job.args:
            other = "qq" if job.field == "gfp" else "gfp"
            require(drop_field(project(on_field(job, other))) == drop_field(project(out)),
                    f"{job.id}: QQ and GF(p) routes differ")
            src.append("two routes: the QQ and GF(32003) branches agree")
        if fx == "bracelet9" and "slice-min-primes" in job.args:
            require(all(d["tag"] == "minimal" for side in ("slice_x", "slice_y")
                        for d in out[side]), "bracelet9 slice primes")
            src.append(CRITERION.format(4) + " (slice primes all minimal)")
    elif cmd == "der":
        require(drop_field(project(on_field(job, "qq"))) == drop_field(project(out)),
                f"{job.id}: QQ and GF(p) derivation modules differ")
        src.append("two routes: the QQ and GF(32003) branches agree")
    elif cmd == "analyze":
        require(out["betti"]["methods_agree"], f"{job.id}: Betti methods")
        require(drop_field(project(on_field(job, "qq"))) == drop_field(project(out)),
                f"{job.id}: QQ and GF(p) reports differ")
        src += ["two routes: Koszul homology table == Schreyer complex table",
                "two routes: the QQ and GF(32003) branches agree"]
        cyc = [d["flat"] for d in out["realization"]["cyclic_flats"]]
        if fx == "a3":
            d = out["derivations"]
            require(cyc == A3_CYCLIC and d["free"] and d["generator_degrees"] == [0, 1, 2]
                    and d["bounds"]["cyclic_flat_bound"] == 4, "a3 structure")
            src.append(CRITERION.format(2))
        if fx == "seven":
            ranks = [(d["flat"], d["rank"]) for d in out["realization"]["cyclic_flats"]]
            require(ranks == SEVEN_CYCLIC
                    and out["derivations"]["bounds"]["cyclic_flat_bound"] == 4, "seven")
            if "embedded_primes" in out:
                require(pairs_of(out["embedded_primes"]) == SEVEN_EMBEDDED, "seven embedded")
            src.append(CRITERION.format(3))
        if fx.startswith("u:"):
            full = list(range(1, int(fx.rsplit(":", 1)[1]) + 1))
            ass = [(p["I"], p["J"], p["tag"]) for p in out["associated_primes"]]
            require(ass == [([], full, "minimal"), (full, [], "minimal"),
                            (full, full, "embedded")], f"{fx} primes")
            src.append(CRITERION.format(5))
    return src


def summary(projection):
    """Top-level view of a large projection: list lengths, other values."""
    return {k: len(v) if isinstance(v, list) else v for k, v in projection.items()}


def main():
    jobs = {}
    for name in sorted(WORKLOADS):
        for job in WORKLOADS[name]:
            out = output(job)
            proj = project(out)
            entry = {
                "workload": name,
                "command": "pairideal " + " ".join(job.argv(f"<{job.fixture}.{job.field}.json>")),
                "exit_code": job.exit_code,
                "sha256": digest(proj),
                "sources": sources(job, out),
            }
            if len(json.dumps(proj)) <= 20000:
                entry["invariants"] = proj
            else:
                entry["summary"] = summary(proj)
            jobs[job.id] = entry
            print(f"recorded {job.id}", flush=True)
    with open(EXPECTED, "w") as fh:
        json.dump({"projection": "checker.project of the --json output", "jobs": jobs},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
