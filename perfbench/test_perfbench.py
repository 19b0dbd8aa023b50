"""Self-checks of the benchmark (not part of the repository's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pairideal.cli  # noqa: E402
import run  # noqa: E402
from checker import check, digest, load_expected, project  # noqa: E402
from inputs import fixture_rows, input_json, write_inputs  # noqa: E402
from layertrace import layer_metrics, merge  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

SCRATCH = os.path.join(run.WORK_DIR, "tests")


def cli_json(job, seed):
    path = write_inputs([job], seed, SCRATCH)[(job.fixture, job.field)]
    out = io.StringIO()
    with redirect_stdout(out):
        code = pairideal.cli.main(job.argv(path))
    assert code == job.exit_code
    return out.getvalue()


@pytest.mark.parametrize("field", ["qq", "gfp"])
@pytest.mark.parametrize("fixture", ["a3", "fail_A", "fail_PA"])
def test_transform_keeps_invariant_projection(fixture, field):
    job = Job("t", fixture, field, ("analyze",))
    reference = project(json.loads(cli_json(job, None)))
    for seed in (1, 2, 3):
        assert project(json.loads(cli_json(job, seed))) == reference, seed


def test_inputs_follow_the_seed():
    assert input_json("seven", "qq", 5) == input_json("seven", "qq", 5)
    assert input_json("seven", "qq", 5) != input_json("seven", "qq", 6)
    assert input_json("seven", "gfp", 5)["field"] == {"prime": 32003}
    block = fixture_rows("a3+u:2:3")
    assert (len(block), len(block[0])) == (6, 9)
    assert all(v == 0 for row in block[:4] for v in row[6:])
    assert all(v == 0 for row in block[4:] for v in row[:6])


def test_every_job_has_expected_invariants():
    expected = load_expected()
    ids = [job.id for jobs in WORKLOADS.values() for job in jobs]
    assert len(ids) == len(set(ids))
    assert set(ids) == set(expected)


def test_tampered_output_or_exit_code_fails():
    job = next(j for j in WORKLOADS["primes_qq"] if j.fixture == "fail_PA")
    good = {"exit_code": 0, "error": None, "stdout": cli_json(job, 4)}
    expected = load_expected()
    assert check(job, good, expected) is None
    data = json.loads(good["stdout"])
    data["associated_primes"][0]["codim"] += 1
    assert "differs" in check(job, dict(good, stdout=json.dumps(data)), expected)
    assert "exit code" in check(job, dict(good, exit_code=2), expected)
    assert "raised" in check(job, dict(good, error="Traceback\nValueError: x"), expected)


def test_failures_raise_fail_frac(monkeypatch, capsys):
    jobs = [j for j in WORKLOADS["primes_qq"] if j.fixture in ("fail_A", "fail_PA")]
    expected = dict(load_expected())
    expected[jobs[1].id] = dict(expected[jobs[1].id], sha256=digest(["tampered"]))
    monkeypatch.setitem(WORKLOADS, "tiny", jobs)
    result = run.run_workload("tiny", 1, 0, False, expected)
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)
    out = capsys.readouterr().out
    assert "tiny fail_frac 0.5 ratio" in out
    assert "2 reference runs" in out and result["metrics"]["wall_s"]["value"] > 0


def test_trace_counts_repeat():
    job = next(j for j in WORKLOADS["tables_qq"] if j.fixture == "a3" and j.args[0] == "betti")
    jobs = [job, Job("p", "fail_PA", "qq", ("primes",))]
    paths = write_inputs(jobs, 1, SCRATCH)
    counts = []
    for _ in range(2):
        total = {}
        for j in jobs:
            result = run.run_job(j, paths[(j.fixture, j.field)], True)
            assert 0 < result["setup_s"] < run.job_seconds(result) - run.program_seconds(result)
            merge(total, result["trace"])
        assert total["missing"] == []
        metrics = layer_metrics(total)
        assert all(m["value"] is not None for m in metrics.values())
        assert 0 < metrics["trace.overhead_s"]["value"] < metrics["trace.self_sum_s"]["value"]
        counts.append(total["counts"] | total["calls"])
    assert counts[0] == counts[1]
    assert counts[0]["groebner.buchberger"] > 0 and counts[0]["spairs"] > 0


def test_bare_directory_exits_nonzero():
    bare = os.path.join(run.WORK_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "primes_qq", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
