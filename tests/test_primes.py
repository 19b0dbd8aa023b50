import pytest

from pairideal.fixtures import get_fixture
from pairideal.groebner import ModuleContext, buchberger, interreduce, is_associated
from pairideal.linalg import ExactMatrix
from pairideal.matroid import ColoopError, Realization, biflats
from pairideal.pairs import PairsIdeal
from pairideal.primes import (
    LinearPrime,
    associated_primes,
    echelon_forms,
    minimal_primes,
    module_prime_is_associated,
    pairs_ideal_object,
    slice_associated_primes,
    uniform_checks,
    verify_min_primes,
)
from pairideal.resolution import schreyer_quotient_betti
from pairideal.scalars import QQ


def prime_sets(primes):
    return [(tuple(p.labels()["I"]), tuple(p.labels()["J"]), p.tag) for p in primes]


def test_minimal_primes_uniform(u24, u35):
    for bench, n in ((u24, 4), (u35, 5)):
        mins = minimal_primes(bench.pairs)
        full = tuple(range(1, n + 1))
        assert prime_sets(mins) == [((), full, "minimal"), (full, (), "minimal")]


def test_minimal_primes_a3(a3):
    mins = minimal_primes(a3.pairs)
    assert len(mins) == 6
    flats = [tuple(p.labels()["I"]) for p in mins]
    assert () in flats and tuple(range(1, 7)) in flats
    assert sum(1 for f in flats if len(f) == 3) == 4


def test_minimal_primes_boolean(boolean3):
    mins = minimal_primes(boolean3.pairs)
    assert len(mins) == 1
    lbl = mins[0].labels()
    assert lbl["I"] == [] and lbl["codim"] == 0  # the zero ideal


def test_codimension_formula(a3, seven):
    for bench in (a3, seven):
        for p in minimal_primes(bench.pairs):
            M = bench.pairs.matroid
            n, r = bench.pairs.n, bench.pairs.r
            rk = M.rank_of(p.I)
            assert p.codim == 2 * rk - len(p.I) + n - r


def test_verify_min_primes(u12, a3, seven):
    for bench in (u12, a3, seven):
        cert = bench.verify("min-primes")
        assert cert["passed"]
        assert cert["certificate"]["verified"]


def test_associated_primes_uniform(u24, u35):
    for bench, n in ((u24, 4), (u35, 5)):
        full = tuple(range(1, n + 1))
        ass = prime_sets(associated_primes(bench.pairs))
        assert ass == [
            ((), full, "minimal"),
            (full, (), "minimal"),
            (full, full, "embedded"),
        ]


def test_associated_primes_seven(seven):
    ass = associated_primes(seven.pairs)
    embedded = [p for p in ass if p.tag == "embedded"]
    full = tuple(range(1, 8))
    assert prime_sets(embedded) == [
        ((1, 2, 4, 6), full, "embedded"),
        ((1, 3, 5, 7), full, "embedded"),
        (full, full, "embedded"),
    ]
    minimal = [p for p in ass if p.tag == "minimal"]
    assert len(minimal) == 4
    # minimal primes from combinatorics = inclusion-minimal associated primes
    combinatorial = {(p.I, p.J) for p in minimal_primes(seven.pairs)}
    by_inclusion = {
        (p.I, p.J)
        for p in ass
        if not any(
            (q.I < p.I or (q.I <= p.I and q.J < p.J)) and (q.I <= p.I and q.J <= p.J)
            for q in ass
            if q is not p
        )
    }
    assert combinatorial == by_inclusion


def test_slice_primes_uniform(u24, u35):
    for bench, n in ((u24, 4), (u35, 5)):
        out = slice_associated_primes(bench.pairs)
        assert [(d["flat"], d["tag"]) for d in out] == [
            (list(range(1, n + 1)), "minimal")
        ]
        assert out[0]["is_maximal_ideal"]


def test_slice_primes_seven(seven):
    sx = slice_associated_primes(seven.pairs)
    assert [(d["flat"], d["tag"]) for d in sx] == [
        ([1, 2, 4, 6], "minimal"),
        ([1, 3, 5, 7], "minimal"),
    ]
    sy = slice_associated_primes(seven.pairs.swap_roles())
    assert ([d["flat"] for d in sy if d["tag"] == "embedded"]) == [[1, 2, 3, 4, 5, 6, 7]]
    assert [d for d in sy if d["tag"] == "embedded"][0]["is_maximal_ideal"]


def test_slice_primes_a3_minimal_part(a3):
    out = slice_associated_primes(a3.pairs)
    minimal = [d["flat"] for d in out if d["tag"] == "minimal"]
    assert minimal == [[1, 2, 4], [1, 3, 5], [2, 3, 6], [4, 5, 6]]


def test_slice_refuses_coloops(fail_a):
    with pytest.raises(ColoopError):
        slice_associated_primes(fail_a.pairs)


def test_slice_consistency_with_quotient(seven, u24):
    # slice associated primes restrict associated primes of the quotient
    for bench, side, part in (
        (seven, seven.pairs, "I"),
        (seven, seven.pairs.swap_roles(), "J"),
        (u24, u24.pairs, "I"),
    ):
        ass = associated_primes(bench.pairs)
        parts = {tuple(p.labels()[part]) for p in ass}
        for d in slice_associated_primes(side):
            assert tuple(d["flat"]) in parts


def test_uniform_checks(u24, u35, a3):
    for bench in (u24, u35):
        rep = uniform_checks(bench.pairs)
        assert rep["uniform"]
        assert rep["failures"] == []
        assert rep["basis_product_failures"] == []
    rep = uniform_checks(a3.pairs)
    assert not rep["uniform"]
    assert rep["basis_product_failures"] == []


def test_linear_prime_codim_cross_check(a3):
    pairs = a3.pairs
    full = frozenset(range(6))
    p = LinearPrime(pairs, frozenset({0, 1, 3}), full - frozenset({0, 1, 3}))
    assert p.codim == 4
    assert len(p.forms) == 4


def _realization(name):
    """A fixture, or the block-diagonal sum of fixtures for `a+b`."""
    if "+" not in name:
        return get_fixture(name)
    blocks = [get_fixture(part).matrix.entries for part in name.split("+")]
    width = sum(len(block[0]) for block in blocks)
    rows, offset = [], 0
    for block in blocks:
        for row in block:
            out = [QQ.zero] * width
            out[offset : offset + len(row)] = row
            rows.append(out)
        offset += len(block[0])
    return Realization(name, QQ, ExactMatrix(QQ, rows))


def colon_oracle(pairs):
    """Keys of the biflats that the colon test finds associated, none pruned."""
    ideal = pairs_ideal_object(pairs)
    cands = [LinearPrime(pairs, F, G) for F, G in biflats(pairs.matroid)]
    return sorted(p.key() for p in cands if is_associated(ideal, p.forms)[0])


def slice_colon_oracle(side):
    """Labels of the slice flats that the module colon test finds associated."""
    ring, m, cols, _ = side.slice_columns()
    ctx = ModuleContext(ring)
    basis = interreduce(ctx, buchberger(ctx, cols, track=False)[0])
    M = side.matroid
    minimal_cyc = M.minimal_nonempty_cyclic_flats()
    return sorted(
        side.original_labels(F)
        for F in M.flats()
        if any(C <= F for C in minimal_cyc)
        and module_prime_is_associated(
            ctx, basis, m, echelon_forms(ring, [side.f[i] for i in sorted(F)])
        )
    )


# colon tests made by the pruned scan, out of all biflat candidates
PRUNED_COLONS = {"a3": (18, 33), "a3+u:2:3": (106, 198)}


@pytest.mark.parametrize(
    "name", ["a3", "fail_A", "fail_PA", "u:2:4", "u:3:5", "seven", "a3+u:2:3"]
)
def test_pruned_scan_equals_colon_oracle(name, monkeypatch):
    pairs = PairsIdeal(_realization(name))
    colons = 0

    def counting(ideal, forms):
        nonlocal colons
        colons += 1
        return is_associated(ideal, forms)

    seen = []
    monkeypatch.setattr("pairideal.primes.is_associated", counting)
    ass = associated_primes(pairs, progress=lambda cand, verdict: seen.append(cand))
    monkeypatch.undo()
    assert sorted(p.key() for p in ass) == colon_oracle(pairs)
    # every candidate is reported, and only those within pdim get a colon
    gens = [g for _, g in pairs.nonzero_generators()]
    pdim = max(p for p, _ in schreyer_quotient_betti(pairs.ring, gens))
    assert len(seen) == len(list(biflats(pairs.matroid)))
    assert colons == sum(1 for cand in seen if cand.codim <= pdim)
    if name in PRUNED_COLONS:
        assert (colons, len(seen)) == PRUNED_COLONS[name]
    if not pairs.coloops:
        for side in (pairs, pairs.swap_roles()):
            got = sorted(d["flat"] for d in slice_associated_primes(side))
            assert got == slice_colon_oracle(side)
