"""Seeded benchmark inputs: projective transforms of the shipped fixtures.

Each input is a shipped fixture matrix (or the block-diagonal sum of two)
put through a transform drawn from a seed:

  * elementary row operations row_i += m * row_j with m = +-1, so the row
    space is unchanged (the transform has determinant 1);
  * then nonzero column scalings drawn from {+-1, +-2, 3}.

Row operations keep the realization; column scalings move it within its
torus orbit.  Neither changes the matroid, so every coordinate-free output
(Betti tables, prime I/J/codim/tag, derivation degrees, pdim and bounds,
flats) is the same for every seed.  Only coordinate-dependent strings such
as colon witnesses change.  That is what lets one expected-invariants file
check runs on any seed.

Inputs are written as JSON input files, so the program's `io` layer parses
them the way it parses a user's file.
"""

from __future__ import annotations

import json
import os
import random

from pairideal.fixtures import get_fixture
from pairideal.io import spec_for_realization

PRIME = 32003
SCALES = (1, -1, 2, -2, 3)


def fixture_rows(name):
    """Integer rows of a fixture; `a+b` names the block-diagonal sum."""
    if "+" in name:
        blocks = [fixture_rows(part) for part in name.split("+")]
        width = sum(len(b[0]) for b in blocks)
        rows, offset = [], 0
        for block in blocks:
            for row in block:
                out = [0] * width
                out[offset : offset + len(row)] = row
                rows.append(out)
            offset += len(block[0])
        return rows
    matrix = spec_for_realization(get_fixture(name)).matrix_rows
    if any(not isinstance(e, int) for row in matrix for e in row):
        raise ValueError(f"fixture {name} has non-integer entries")
    return [list(row) for row in matrix]


def transform(rows, rng):
    """Seeded row operations (multipliers +-1), then column scalings."""
    rows = [list(r) for r in rows]
    m = len(rows)
    if m > 1:
        for _ in range(2 * m):
            i, j = rng.sample(range(m), 2)
            mult = rng.choice((1, -1))
            rows[i] = [a + mult * b for a, b in zip(rows[i], rows[j])]
    scales = [rng.choice(SCALES) for _ in rows[0]]
    return [[a * c for a, c in zip(row, scales)] for row in rows]


def input_json(name, field, seed):
    """The input-file object for one fixture; seed None leaves it untransformed."""
    rows = fixture_rows(name)
    if seed is not None:
        # one stream per (fixture, field), so adding a job leaves others alone
        rng = random.Random(f"{seed}:{name}:{field}")
        rows = transform(rows, rng)
    desc = {"prime": PRIME} if field == "gfp" else "rational"
    return {"name": name, "field": desc, "matrix": rows}


def write_inputs(jobs, seed, directory):
    """Write one input file per (fixture, field) the jobs use; return paths."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for job in jobs:
        key = (job.fixture, job.field)
        if key in paths:
            continue
        tag = "ref" if seed is None else f"s{seed}"
        safe = job.fixture.replace(":", "_").replace("+", "_plus_")
        path = os.path.join(directory, f"{safe}.{job.field}.{tag}.json")
        with open(path, "w") as fh:
            json.dump(input_json(job.fixture, job.field, seed), fh, sort_keys=True)
        paths[key] = path
    return paths
