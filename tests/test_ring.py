from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from pairideal.fixtures import get_fixture
from pairideal.graded import GradedEngine
from pairideal.pairs import PairsIdeal
from pairideal.ring import Poly, PolyRing, RingError, degrevlex, pair_ring, x_ring
from pairideal.scalars import QQ


def naive_multiply(p, q):
    """Term-by-term convolution: an independent multiplication oracle."""
    ring = p.ring
    acc = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = acc.get(e, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return Poly(ring, {e: c for e, c in acc.items() if c})


def naive_evaluate(p, point):
    total = Fraction(0)
    for e, c in p.terms.items():
        v = Fraction(c)
        for x, k in zip(point, e):
            v *= Fraction(x) ** k
    # note: zip stops at shorter sequence; require equal lengths
        total += v
    return total


def test_basic_arithmetic():
    S = pair_ring(QQ, 2, 1)
    x1, x2, y1 = S.var(0), S.var(1), S.var(2)
    assert (x1 * y1).grade() == (1, 1)
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2
    with pytest.raises(RingError):
        x1 + x_ring(QQ, 2).var(0)


def test_a3_generator_expansion_matches_naive_oracle(a3):
    pairs = a3.pairs
    for k in range(pairs.n):
        assert pairs.generators[k] == naive_multiply(pairs.f[k], pairs.g[k])


def test_bidegree_errors():
    S = pair_ring(QQ, 2, 1)
    x1, y1 = S.var(0), S.var(2)
    with pytest.raises(RingError):
        (x1 + y1).grade()
    comps = (x1 + y1).homogeneous_components()
    assert set(comps) == {(1, 0), (0, 1)}


def test_monomial_basis_counts():
    S = pair_ring(QQ, 3, 3)
    assert S.monomial_basis((0, 0)) == [(0,) * 6]
    assert len(S.monomial_basis((1, 1))) == 9
    big = pair_ring(QQ, 4, 5)
    assert len(big.monomial_basis((2, 1))) == comb(5, 3) * comb(5, 4)
    for (i, j) in [(2, 2), (3, 1), (0, 4)]:
        assert len(big.monomial_basis((i, j))) == big.monomial_count((i, j))


def test_evaluate():
    S = pair_ring(QQ, 2, 1)
    one = S.one()
    assert one.evaluate([3, 4, 5]) == 1
    p = S.var(0) * S.var(2) + S.var(1)
    with pytest.raises(RingError):
        p.evaluate([1, 2])


@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
            st.integers(-5, 5),
        ),
        max_size=6,
    ),
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
)
@settings(max_examples=50, deadline=None)
def test_evaluate_matches_naive(terms, point):
    S = pair_ring(QQ, 2, 1)
    p = S.from_terms(terms)
    assert p.evaluate(point) == naive_evaluate(p, point)


exponents3 = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))


@given(exponents3, exponents3, exponents3)
@settings(max_examples=100, deadline=None)
def test_order_multiplicative(m1, m2, m):
    k1, k2 = degrevlex(m1), degrevlex(m2)
    if k1 == k2:
        assert m1 == m2  # total order
        return
    lo, hi = (m1, m2) if k1 < k2 else (m2, m1)
    shifted_lo = tuple(a + b for a, b in zip(lo, m))
    shifted_hi = tuple(a + b for a, b in zip(hi, m))
    assert degrevlex(shifted_lo) < degrevlex(shifted_hi)


def test_printing_deterministic():
    S = pair_ring(QQ, 2, 1)
    p = S.from_terms([((1, 0, 1), Fraction(5)), ((0, 1, 0), -1)])
    assert str(p) == "5*x1*y1 - x2"


@pytest.mark.parametrize("name", ["a3", "seven", "bracelet9"])
def test_monomial_basis_is_in_descending_degrevlex(name):
    # within one multigrade every monomial has the same total degree, so the
    # basis is built in the order of its reversed exponents, with no
    # degrevlex key; S and S[a] have blocks of consecutive variables, and
    # the reversed pair ring does not
    eng = GradedEngine(PairsIdeal(get_fixture(name)))
    S, Sa = eng.ring, eng.symmetric_pieces().ring
    swapped = PolyRing(QQ, S.names[::-1], S.grades[::-1])
    for ring, grades in [
        (S, [(0, 0), (1, 0), (0, 2), (2, 1), (3, 3)]),
        (swapped, [(1, 0), (2, 1), (2, 3)]),
        (Sa, [(0, 0, 1), (1, 0, 2), (0, 2, 1), (2, 2, 2)]),
    ]:
        for grade in grades:
            basis = ring.monomial_basis(grade)
            assert len(basis) == ring.monomial_count(grade), grade
            assert basis == sorted(basis, key=degrevlex, reverse=True), grade
