"""Output checks: each job's invariant projection against expected.json.

The invariant projection of a CLI `--json` output keeps every value that
does not depend on coordinates (Betti tables, prime I/J/codim/tag,
derivation degrees/pdim/bounds, linear-type records, verify verdicts,
flats) and drops the few that do.  Projections of transformed inputs equal
the untransformed fixture's for every seed, which test_perfbench.py checks.

A job fails when its worker raised or died, when the exit code is not the
expected one, or when its projection differs from the recorded one.
"""

from __future__ import annotations

import hashlib
import json
import os

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

# Values written in the input's coordinates, found by diffing the outputs of
# transformed inputs against the untransformed fixtures.
COORDINATE_KEYS = (
    "generators",  # the pairs-ideal generators as polynomials
    "radical_memberships",  # a Groebner basis of the prime intersection
)


def project(value):
    """The coordinate-free part of a parsed CLI output.

    Also drops string-valued `certificate`s: a prime's certificate names its
    colon witness variable; its `tag` carries the decision.
    """
    if isinstance(value, dict):
        return {
            k: project(v)
            for k, v in value.items()
            if k not in COORDINATE_KEYS and not (k == "certificate" and isinstance(v, str))
        }
    if isinstance(value, list):
        return [project(v) for v in value]
    return value


def digest(projection):
    text = json.dumps(projection, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected():
    with open(EXPECTED) as fh:
        return json.load(fh)["jobs"]


def check(job, result, expected):
    """None if the job's result is as expected, else the reason it is not."""
    if result.get("error"):
        return "raised: " + result["error"].strip().splitlines()[-1]
    if result["exit_code"] != job.exit_code:
        return f"exit code {result['exit_code']}, expected {job.exit_code}"
    want = expected.get(job.id)
    if want is None:
        return "no expected invariants recorded"
    try:
        got = project(json.loads(result["stdout"]))
    except json.JSONDecodeError:
        return "output is not JSON"
    if digest(got) != want["sha256"]:
        return "invariant projection differs from expected.json"
    return None
