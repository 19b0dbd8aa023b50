"""Differential oracles against sympy.

Small integer ideals (at most 3 variables, 3 generators, degree 2), and
ideals of up to 4 linear forms, are drawn by hypothesis; the monic reduced
basis of `Ideal.groebner()` must equal `sympy.groebner(...,
order="grevlex")` over QQ and over GF(32003).
So must that of `Ideal.intersect`, against sympy's own intersection
(`old_poly_ring(...).ideal(...).intersect`), on two such ideals over QQ,
on two or three over GF(32003) (sympy needs up to 9 s for one QQ draw of
three), and on the minimal primes of four fixtures over QQ, whose
intersection the min-prime certificate reads.

The fixtures' pairs ideals, and two of their squares, are checked
degreewise: the dimensions of the grown bidegree pieces, and for the pairs
ideals those of the cokernel quotient pieces, must match the counts of
sympy's grevlex standard monomials, and degreewise membership
must match sympy's `contains` on seeded random elements.
sympy is an optional test dependency; the package itself does not use it.
"""

import random
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest
from conftest import bench_for
from hypothesis import given, settings, strategies as st

from pairideal.groebner import Ideal
from pairideal.io import InputSpec
from pairideal.primes import _prime_ideal, minimal_primes
from pairideal.ring import PolyRing, degrevlex
from pairideal.scalars import QQ, PrimeField
from pairideal.workbench import Workbench

sympy = pytest.importorskip("sympy")

NVARS = 3
PRIME = 32003
EXPS = [e for e in product(range(3), repeat=NVARS) if sum(e) <= 2]

polys = st.dictionaries(
    st.sampled_from(EXPS), st.integers(-5, 5).filter(bool), min_size=1, max_size=4
)
ideals = st.lists(polys, min_size=1, max_size=3)
# ideals of linear forms, whose bases come from row echelon forms
linear_ideals = st.lists(
    st.dictionaries(
        st.sampled_from([e for e in EXPS if sum(e) == 1]),
        st.integers(-5, 5).filter(bool),
        min_size=1,
    ),
    min_size=1,
    max_size=4,
)
XS = sympy.symbols(f"x0:{NVARS}")


def _monic(field, terms):
    """The term set divided by its degrevlex leading coefficient."""
    inv = field.div(field.one, terms[max(terms, key=degrevlex)])
    return frozenset((e, field.mul(c, inv)) for e, c in terms.items())


def _ring(field):
    return PolyRing(field, [f"x{i}" for i in range(NVARS)], [(1,)] * NVARS)


def _ideal(ring, gens):
    return Ideal(ring, [ring.from_terms(g.items()) for g in gens])


def _ours_monic(ideal):
    field = ideal.ring.field
    return {_monic(field, g.terms) for g in ideal.groebner()}


def _expr(g):
    return sum(c * sympy.Mul(*(x**k for x, k in zip(XS, e))) for e, c in g.items())


def _sympys(field, exprs, xs=XS):
    """sympy's monic reduced grevlex basis of the ideal of the expressions."""
    options = {"modulus": field.p} if field.char else {}
    basis = sympy.groebner(exprs, *xs, order="grevlex", **options)
    out = set()
    for g in basis.polys:
        terms = {e: field.of(str(c)) for e, c in g.terms()}
        out.add(_monic(field, terms))
    return out


def _check(field, gens):
    ours = _ours_monic(_ideal(_ring(field), gens))
    assert ours == _sympys(field, [_expr(g) for g in gens])


def _sympy_intersection(field, gen_lists, xs):
    """sympy's intersection of the ideals of the expression lists, as gens."""
    domain = sympy.GF(field.p) if field.char else sympy.QQ
    R = domain.old_poly_ring(*xs)
    acc = R.ideal(*gen_lists[0])
    for gens in gen_lists[1:]:
        acc = acc.intersect(R.ideal(*gens))
    return [R.to_sympy(g) for g in acc.gens]


def _check_intersection(field, ideal_list):
    ring = _ring(field)
    first, *rest = [_ideal(ring, gens) for gens in ideal_list]
    ours = _ours_monic(first.intersect(*rest))
    exprs = [[_expr(g) for g in gens] for gens in ideal_list]
    assert ours == _sympys(field, _sympy_intersection(field, exprs, XS))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ideals)
def test_groebner_matches_sympy_over_qq(gens):
    _check(QQ, gens)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ideals)
def test_groebner_matches_sympy_over_gf32003(gens):
    _check(PrimeField(PRIME), gens)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(linear_ideals)
def test_linear_groebner_matches_sympy_over_qq(gens):
    _check(QQ, gens)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(linear_ideals)
def test_linear_groebner_matches_sympy_over_gf32003(gens):
    _check(PrimeField(PRIME), gens)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.lists(ideals, min_size=2, max_size=2))
def test_intersect_matches_sympy_over_qq(ideal_list):
    _check_intersection(QQ, ideal_list)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.lists(ideals, min_size=2, max_size=3))
def test_intersect_matches_sympy_over_gf32003(ideal_list):
    _check_intersection(PrimeField(PRIME), ideal_list)


# -- the fixtures' pairs ideals ---------------------------------------------------

A3_GF32003 = Path(__file__).parent / "golden" / "a3_gf32003.json"
WINDOW = 4


def _bench(name):
    if name == "a3_gf32003":
        return Workbench(InputSpec.from_file(A3_GF32003).realization())
    return bench_for(name)


def _to_sympy(poly, xs):
    field = poly.ring.field
    coeff = (lambda c: c) if field.char else (lambda c: sympy.Rational(c.numerator, c.denominator))
    return sum(
        (coeff(c) * sympy.Mul(*(x**k for x, k in zip(xs, e))) for e, c in poly.terms.items()),
        sympy.S.Zero,
    )


def _sympy_basis(ring, gens):
    xs = sympy.symbols(ring.names)
    options = {"modulus": ring.field.char} if ring.field.char else {}
    basis = sympy.groebner([_to_sympy(g, xs) for g in gens], *xs, order="grevlex", **options)
    return basis, xs


def _standard_counts(ring, basis, window):
    """Grevlex standard monomials of each bidegree i + j <= window."""
    leads = [g.monoms(order="grevlex")[0] for g in basis.polys]
    return {
        (i, j): sum(
            not any(all(a >= b for a, b in zip(m, lead)) for lead in leads)
            for m in ring.monomial_basis((i, j))
        )
        for i in range(window + 1)
        for j in range(window + 1 - i)
    }


@pytest.mark.parametrize("name", ["a3", "fail_A", "u:2:4", "seven", "a3_gf32003"])
def test_pairs_quotient_dims_match_sympy(name):
    eng = _bench(name).engine
    basis, _ = _sympy_basis(eng.ring, eng.pairs.generators)
    standard = _standard_counts(eng.ring, basis, WINDOW)
    assert eng.hilbert(WINDOW) == standard
    assert {b: eng.quotient_piece_dim(b) for b in standard} == standard


@pytest.mark.parametrize("name", ["a3", "seven"])
def test_pairs_square_dims_match_sympy(name):
    eng = _bench(name).engine
    gens = eng.pairs.generators
    square = [f * g for f, g in combinations_with_replacement(gens, 2)]
    basis, _ = _sympy_basis(eng.ring, square)
    standard = _standard_counts(eng.ring, basis, WINDOW + 1)
    pieces = eng.power_pieces(2)
    for bideg, count in standard.items():
        assert pieces.dim(bideg) == eng.ring.monomial_count(bideg) - count, bideg


@pytest.mark.parametrize("name", ["a3", "fail_A", "u:2:4", "seven", "a3_gf32003"])
def test_pairs_membership_matches_sympy(name):
    eng = _bench(name).engine
    ring, gens = eng.ring, eng.pairs.generators
    basis, xs = _sympy_basis(ring, gens)
    rng = random.Random(f"pairs-membership-{name}")
    verdicts = []
    for trial in range(24):
        elem = ring.zero()
        for _ in range(rng.randint(1, 3)):
            mons = ring.monomial_basis((rng.randint(0, 2), rng.randint(0, 2)))
            coeff = rng.choice((-2, -1, 1, 3))
            elem = elem + rng.choice(gens).mul_monomial(rng.choice(mons), coeff)
        if trial % 2:
            # a stray term, outside the ideal whenever it lies on an axis
            mons = ring.monomial_basis((rng.randint(0, 2), rng.randint(0, 2)))
            elem = elem + ring.from_terms([(rng.choice(mons), rng.randint(1, 3))])
        ours = eng.member(elem)
        assert ours == basis.contains(_to_sympy(elem, xs)), elem
        verdicts.append(ours)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("name", ["a3", "seven", "u:3:5", "fail_A"])
def test_min_prime_intersection_matches_sympy(name):
    pairs = bench_for(name).pairs
    ring = pairs.ring
    primes = [_prime_ideal(p) for p in minimal_primes(pairs)]
    first, *rest = primes
    xs = sympy.symbols(ring.names)
    exprs = [[_to_sympy(g, xs) for g in P.gens] for P in primes]
    theirs = _sympys(ring.field, _sympy_intersection(ring.field, exprs, xs), xs)
    assert _ours_monic(first.intersect(*rest)) == theirs
