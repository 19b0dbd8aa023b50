"""Gates on the Buchberger engine's exact behaviour.

`groebner_reduced_bases.json` holds `str(g)` of the reduced Groebner basis
of each fixture's pairs ideal, over QQ and GF(32003), compared byte for
byte.  The S-pair selection order is pinned by hashing the stream that
`groebner.TRACE` receives with `TRACE_EVERY = 1`: one
`(processed, pending, len(basis))` triple per processed pair, where
`pending` counts the live pairs left.  The recorded hashes cover the
colon test on every biflat of a3 (many tracked colon runs: the oracle that
the pruned associated-prime scan is checked against in `test_primes.py`)
and the Schreyer complex of seven (induced module orders).
"""

import hashlib
import json
from pathlib import Path

import pytest

from pairideal import groebner
from pairideal.fixtures import get_fixture
from pairideal.pairs import PairsIdeal
from pairideal.matroid import biflats
from pairideal.primes import LinearPrime
from pairideal.scalars import field_from_descriptor

GOLDEN = Path(__file__).parent / "golden" / "groebner_reduced_bases.json"

FIXTURES = [
    ("a3", "a3", None),
    ("seven", "seven", None),
    ("fail_A", "fail_A", None),
    ("u:2:4", "u:2:4", None),
    ("bracelet9", "bracelet9", None),
    ("a3_gf32003", "a3", {"prime": 32003}),
]


def _pairs(name, field=None):
    if field is None:
        return PairsIdeal(get_fixture(name))
    return PairsIdeal(get_fixture(name, field=field_from_descriptor(field)))


def test_reduced_bases_match_golden():
    bases = {
        label: [str(g) for g in _pairs(name, field).ideal_object().groebner()]
        for label, name, field in FIXTURES
    }
    text = json.dumps(bases, indent=1) + "\n"
    assert text.encode() == GOLDEN.read_bytes()


def _trace_stream(run):
    digest = hashlib.sha256()
    calls = 0

    def hook(processed, pending, basis):
        nonlocal calls
        calls += 1
        digest.update(f"{processed},{pending},{len(basis)};".encode())

    saved = groebner.TRACE, groebner.TRACE_EVERY
    groebner.TRACE, groebner.TRACE_EVERY = hook, 1
    try:
        run()
    finally:
        groebner.TRACE, groebner.TRACE_EVERY = saved
    return calls, digest.hexdigest()


def _a3_associated_primes():
    pairs = _pairs("a3")
    ideal = pairs.ideal_object()
    ideal.groebner()
    for F, G in biflats(pairs.matroid):
        groebner.is_associated(ideal, LinearPrime(pairs, F, G).forms)


def _seven_schreyer_betti():
    _pairs("seven").quotient_complex().minimal_betti()


@pytest.mark.parametrize(
    "run,expected",
    [
        (
            _a3_associated_primes,
            (1584, "960faebad94802331e85ce17e6aef62555e051be61486c10cebc678a65b9f7bc"),
        ),
        (
            _seven_schreyer_betti,
            (522, "bc464ce09a3b097bc34aa7606b997eda22b2567a1bd4e6a22ce431e3d7fd99eb"),
        ),
    ],
    ids=["associated_primes_a3", "schreyer_betti_seven"],
)
def test_spair_selection_order_is_pinned(run, expected):
    assert _trace_stream(run) == expected
