import pytest

from pairideal.matroid import ColoopError
from pairideal.primes import (
    LinearPrime,
    associated_primes,
    minimal_primes,
    slice_associated_primes,
    uniform_checks,
    verify_min_primes,
)


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
