"""Differential oracle: reduced Groebner bases against sympy.

Small integer ideals (at most 3 variables, 3 generators, degree 2) are
drawn by hypothesis; the monic reduced basis of `Ideal.groebner()` must
equal `sympy.groebner(..., order="grevlex")` over QQ and over GF(32003).
sympy is an optional test dependency; the package itself does not use it.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from pairideal.groebner import Ideal
from pairideal.ring import PolyRing
from pairideal.scalars import QQ, PrimeField

sympy = pytest.importorskip("sympy")

NVARS = 3
PRIME = 32003
EXPS = [e for e in product(range(3), repeat=NVARS) if sum(e) <= 2]

polys = st.dictionaries(
    st.sampled_from(EXPS), st.integers(-5, 5).filter(bool), min_size=1, max_size=4
)
ideals = st.lists(polys, min_size=1, max_size=3)


def _monic(field, terms, key):
    """The term set divided by its leading coefficient under `key`."""
    inv = field.inv(terms[max(terms, key=key)])
    return frozenset((e, field.mul(c, inv)) for e, c in terms.items())


def _ours(field, gens):
    ring = PolyRing(field, [f"x{i}" for i in range(NVARS)], [(1,)] * NVARS)
    ideal = Ideal(ring, [ring.from_terms(g.items()) for g in gens])
    return {_monic(field, g.terms, ring.order.key) for g in ideal.groebner()}, ring


def _sympys(field, gens, ring):
    xs = sympy.symbols(f"x0:{NVARS}")
    exprs = [
        sum(c * sympy.Mul(*(x**k for x, k in zip(xs, e))) for e, c in g.items())
        for g in gens
    ]
    options = {"modulus": field.p} if field.char else {}
    basis = sympy.groebner(exprs, *xs, order="grevlex", **options)
    out = set()
    for g in basis.polys:
        terms = {e: field.of(str(c)) for e, c in g.terms()}
        out.add(_monic(field, terms, ring.order.key))
    return out


def _check(field, gens):
    ours, ring = _ours(field, gens)
    assert ours == _sympys(field, gens, ring)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ideals)
def test_groebner_matches_sympy_over_qq(gens):
    _check(QQ, gens)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ideals)
def test_groebner_matches_sympy_over_gf32003(gens):
    _check(PrimeField(PRIME), gens)
