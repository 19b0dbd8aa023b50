"""Byte-for-byte gate on recorded `primes`, `analyze`, `betti`, `verify` and
`flats` reports.

The `primes` files hold the colon witnesses, which depend on the exact
Groebner runs behind the associated-prime tests; any change to those runs
that alters a witness or a verdict shows here.  The `analyze` and `betti`
files gate the Betti tables, derivation data and reports over QQ and
GF(32003); the Koszul table of seven, the widest window reported among
them (i+j <= 12), is gated on both fields, as are both tables
of u:3:5, and the Koszul table of fail_PA over GF(32003).  The `verify`
files gate all eight verification targets on a3
over QQ and GF(32003); syzygy-slices, derivation-param, tor-of-der and
slice-min-primes on seven; slice-min-primes on bracelet9 and on seven
with a dropped zero column, whose labels pass through both the dropped
loop and the role swap; linear-type at bound 3 on seven and on a3 over QQ
and GF(32003), and at bound 2 on bracelet9, which is not of linear type and
has a strict slice at (2;2); linear-type at bound 3 on fail_A, whose
coloop has a zero pair generator, and on boolean:3, where every pair
generator is zero; and min-primes on bracelet9 over QQ and GF(32003),
whose certificate intersects 17 primes into 19 generators.  The `flats`
files gate the matroid layer on bracelet9, on fail_A (a coloop), over
GF(32003), and on seven with a dropped zero column; the n = 12 outputs,
too big for golden files, are pinned by their sha256.
"""

from hashlib import sha256
from pathlib import Path

import pytest

from pairideal.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    (["primes", "a3", "--slices", "--json"], "primes_a3_slices.json"),
    (["primes", "u:2:4", "--slices", "--json"], "primes_u_2_4_slices.json"),
    (["primes", "fail_A", "--json"], "primes_fail_A.json"),
    (
        ["primes", str(GOLDEN / "a3_gf32003.json"), "--slices", "--json"],
        "primes_a3_gf32003_slices.json",
    ),
    (["analyze", "a3", "--json"], "analyze_a3.json"),
    (["analyze", "u:2:4", "--json"], "analyze_u_2_4.json"),
    (["analyze", "fail_A", "--json"], "analyze_fail_A.json"),
    (["analyze", "boolean:3", "--json"], "analyze_boolean_3.json"),
    (["analyze", str(GOLDEN / "a3_gf32003.json"), "--json"], "analyze_a3_gf32003.json"),
    (
        ["betti", "bracelet9", "--method", "resolution", "--json"],
        "betti_bracelet9_resolution.json",
    ),
    (
        ["betti", str(GOLDEN / "bracelet9_gf32003.json"), "--method", "resolution", "--json"],
        "betti_bracelet9_gf32003_resolution.json",
    ),
    (["betti", "seven", "--method", "koszul", "--json"], "betti_seven_koszul.json"),
    (["betti", "u:3:5", "--method", "both", "--json"], "betti_u_3_5_both.json"),
    (
        ["betti", str(GOLDEN / "u_3_5_gf32003.json"), "--method", "both", "--json"],
        "betti_u_3_5_gf32003_both.json",
    ),
    (
        ["betti", str(GOLDEN / "fail_PA_gf32003.json"), "--method", "koszul", "--json"],
        "betti_fail_PA_gf32003_koszul.json",
    ),
    (
        ["betti", str(GOLDEN / "seven_gf32003.json"), "--method", "koszul", "--json"],
        "betti_seven_gf32003_koszul.json",
    ),
    (["verify", "a3", "--bound", "3", "--json"], "verify_a3_bound3.json"),
    (
        ["verify", str(GOLDEN / "a3_gf32003.json"), "--bound", "3", "--json"],
        "verify_a3_gf32003_bound3.json",
    ),
    (
        ["verify", "bracelet9", "--theorem", "min-primes", "--json"],
        "verify_bracelet9_min_primes.json",
    ),
    (
        [
            "verify",
            str(GOLDEN / "bracelet9_gf32003.json"),
            "--theorem",
            "min-primes",
            "--json",
        ],
        "verify_bracelet9_gf32003_min_primes.json",
    ),
    (
        ["verify", "seven", "--theorem", "derivation-param", "--json"],
        "verify_seven_derivation_param.json",
    ),
    (
        ["verify", "seven", "--theorem", "syzygy-slices", "--json"],
        "verify_seven_syzygy_slices.json",
    ),
    (
        ["verify", "seven", "--theorem", "slice-min-primes", "--json"],
        "verify_seven_slice_min_primes.json",
    ),
    (
        ["verify", "seven", "--theorem", "tor-of-der", "--json"],
        "verify_seven_tor_of_der.json",
    ),
    (
        ["verify", "bracelet9", "--theorem", "slice-min-primes", "--json"],
        "verify_bracelet9_slice_min_primes.json",
    ),
    (
        ["verify", str(GOLDEN / "seven_loop.json"), "--theorem", "slice-min-primes", "--json"],
        "verify_seven_loop_slice_min_primes.json",
    ),
    (
        ["verify", "seven", "--theorem", "linear-type", "--bound", "3", "--json"],
        "verify_seven_linear_type_bound3.json",
    ),
    (
        [
            "verify",
            str(GOLDEN / "seven_gf32003.json"),
            "--theorem",
            "linear-type",
            "--bound",
            "3",
            "--json",
        ],
        "verify_seven_gf32003_linear_type_bound3.json",
    ),
    (
        ["verify", "a3", "--theorem", "linear-type", "--bound", "3", "--json"],
        "verify_a3_linear_type_bound3.json",
    ),
    (
        [
            "verify",
            str(GOLDEN / "a3_gf32003.json"),
            "--theorem",
            "linear-type",
            "--bound",
            "3",
            "--json",
        ],
        "verify_a3_gf32003_linear_type_bound3.json",
    ),
    (
        ["verify", "bracelet9", "--theorem", "linear-type", "--bound", "2", "--json"],
        "verify_bracelet9_linear_type_bound2.json",
    ),
    (
        ["verify", "fail_A", "--theorem", "linear-type", "--bound", "3", "--json"],
        "verify_fail_A_linear_type_bound3.json",
    ),
    (
        ["verify", "boolean:3", "--theorem", "linear-type", "--bound", "3", "--json"],
        "verify_boolean_3_linear_type_bound3.json",
    ),
    (["flats", "bracelet9", "--json"], "flats_bracelet9.json"),
    (["flats", "fail_A", "--json"], "flats_fail_A.json"),
    (["flats", str(GOLDEN / "a3_gf32003.json"), "--json"], "flats_a3_gf32003.json"),
    (
        ["flats", str(GOLDEN / "seven_loop.json"), "--drop-loops", "--json"],
        "flats_seven_loop.json",
    ),
]

# sha256 of the `flats --json` bytes of the n = 12 fixtures (221 KB and 494 KB)
FLATS_SHA256 = {
    "u:6:12": "785517e5a2531938d1468df4ca4386ff95ac3bdefbf50261dd88c4e28cf029f9",
    "boolean:12": "8280e35e0d552e5b3ffc0a7c1c36920771f25954323257b6cf14998a64c4c1fe",
}


@pytest.mark.parametrize("argv,name", CASES, ids=[name for _, name in CASES])
def test_primes_report_matches_golden(argv, name, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("fixture", sorted(FLATS_SHA256))
def test_n12_flats_report_matches_its_hash(fixture, capsys):
    assert main(["flats", fixture, "--json"]) == 0
    assert sha256(capsys.readouterr().out.encode()).hexdigest() == FLATS_SHA256[fixture]
