import math
import random
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from pairideal.fixtures import get_fixture
from pairideal.groebner import (
    WIDTH,
    GroebnerError,
    Ideal,
    ModuleContext,
    _linear_basis,
    _normal_form,
    buchberger,
    colon_module,
    complement,
    interreduce,
    is_associated,
    poly_to_raw,
    raw_to_poly,
)
from pairideal.matroid import biflats
from pairideal.pairs import PairsIdeal
from pairideal.primes import LinearPrime
from pairideal.resolution import induced_key
from pairideal.ring import degrevlex, pair_ring
from pairideal.scalars import QQ, PrimeField


@pytest.fixture(scope="module")
def xy_ring():
    return pair_ring(QQ, 1, 1)


def test_principal_gb(xy_ring):
    S = xy_ring
    x, y = S.var(0), S.var(1)
    I = Ideal(S, [x * y])
    assert [str(g) for g in I.groebner()] == ["x1*y1"]
    assert I.member(x * x * y)
    assert not I.member(x)


def test_reduced_gb_unique_under_permutation(a3, u24):
    for bench in (a3, u24):
        gens = [g for _, g in bench.pairs.nonzero_generators()]
        base = None
        rng = random.Random(7)
        for _ in range(4):
            perm = list(gens)
            rng.shuffle(perm)
            gb = [str(g) for g in Ideal(bench.pairs.ring, perm).groebner()]
            if base is None:
                base = gb
            assert gb == base


def test_buchberger_criterion_post_hoc(a3):
    # every S-pair of the returned reduced basis reduces to zero
    I = Ideal(a3.pairs.ring, [g for _, g in a3.pairs.nonzero_generators()])
    ctx, basis = I._gb_elements()
    from pairideal.groebner import _addexp, _normal_form, _scaled_combination

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            gi, gj = basis[i], basis[j]
            if gi.lead[0] != gj.lead[0]:
                continue
            lcm, mi, mj, ci, cj = _scaled_combination(ctx, gi, gj)
            raw = {}
            for (q, e), v in gi.raw.items():
                raw[(q, _addexp(e, mi))] = ci * v
            for (q, e), v in gj.raw.items():
                key = (q, _addexp(e, mj))
                acc = raw.get(key, 0) - cj * v
                if acc:
                    raw[key] = acc
                else:
                    raw.pop(key, None)
            assert not _normal_form(ctx, raw, basis)


def test_colon_and_double_colon(xy_ring):
    S = xy_ring
    x, y = S.var(0), S.var(1)
    I = Ideal(S, [x * y])
    cx = I.colon_ideal(Ideal(S, [x]))
    assert [str(g) for g in cx.groebner()] == ["y1"]
    c_m = I.colon_ideal(Ideal(S, [x, y]))
    assert [str(g) for g in c_m.groebner()] == ["x1*y1"]
    double = I.colon_ideal(c_m)
    assert double.is_whole_ring()


def test_intersect_and_saturate(xy_ring):
    S = xy_ring
    x, y = S.var(0), S.var(1)
    assert [str(g) for g in Ideal(S, [x]).intersect(Ideal(S, [y])).groebner()] == ["x1*y1"]
    # inhomogeneous: (x1*y1 + 1) and (x1) are coprime, so they meet in their product
    meet = Ideal(S, [x * y + S.one()]).intersect(Ideal(S, [x]))
    assert [str(g) for g in meet.groebner()] == ["x1^2*y1 + x1"]
    three = Ideal(S, [x]).intersect(Ideal(S, [y]), Ideal(S, [x + y]))
    assert [str(g) for g in three.groebner()] == ["x1^2*y1 + x1*y1^2"]
    sat = Ideal(S, [x * y]).saturation(Ideal(S, [x]))
    assert [str(g) for g in sat.groebner()] == ["y1"]


def test_radical_membership(u12):
    I = u12.pairs.ideal_object()
    pairs = u12.pairs
    # sqrt of the pairs ideal is (x1) /\ (y1): cross products are in it
    assert I.radical_member(pairs.f[0] * pairs.g[1])
    assert not I.radical_member(pairs.f[0])
    assert not I.radical_member(pairs.ring.one())


def test_krull_dimension_matches_cyclic_flats(u12, u24, a3, seven, fail_a):
    for bench in (u12, u24, a3, seven, fail_a):
        pairs = bench.pairs
        M = pairs.matroid
        dual = M.dual()
        full = frozenset(range(pairs.n))
        expected = max(
            pairs.n - M.rank_of(F) - dual.rank_of(full - F) for F in M.cyclic_flats()
        )
        assert bench.pairs.ideal_object().quotient_dimension() == expected


def test_is_associated_examples(xy_ring):
    S = xy_ring
    x, y = S.var(0), S.var(1)
    I = Ideal(S, [x * y])
    assert is_associated(I, [x])[0]
    assert is_associated(I, [y])[0]
    assert not is_associated(I, [x, y])[0]


def test_dual_form_products_in_ideal_u24(u24):
    # products of dual forms over index pairs, times any form, via the GB
    pairs = u24.pairs
    I = u24.pairs.ideal_object()
    for i1 in range(4):
        for i2 in range(i1, 4):
            prod = pairs.g[i1] * pairs.g[i2]
            for a in range(4):
                assert I.member(prod * pairs.f[a])


def test_membership_oracles_agree(a3, u24):
    # the Groebner route and the degreewise route agree on random elements
    for bench in (a3, u24):
        pairs = bench.pairs
        I = bench.pairs.ideal_object()
        eng = bench.engine
        S = pairs.ring
        rng = random.Random(42)
        gens = [g for _, g in pairs.nonzero_generators()]
        checked = 0
        for _ in range(60):
            if rng.random() < 0.5:
                elem = S.zero()
                for g in gens:
                    mono = rng.choice(S.monomial_basis((1, 1)))
                    if rng.random() < 0.5:
                        elem = elem + g.mul_monomial(mono, rng.randint(-3, 3))
            else:
                bideg = (rng.randint(0, 3), rng.randint(0, 3))
                monos = S.monomial_basis(bideg)
                elem = S.from_terms(
                    (rng.choice(monos), rng.randint(-2, 2)) for _ in range(3)
                )
            assert I.member(elem) == eng.member(elem)
            checked += 1
        assert checked == 60


def test_standard_monomial_count_matches_hilbert(bracelet):
    # initial-ideal staircase count agrees with the degreewise dimensions
    I = bracelet.pairs.ideal_object()
    eng = bracelet.engine
    for i in range(4):
        for j in range(4):
            assert I.standard_monomial_count((i, j)) == eng.quotient_dim((i, j))


def test_module_syzygies_are_relations(a3):
    pairs = a3.pairs
    ctx = ModuleContext(pairs.ring)
    inputs = [poly_to_raw(g) for _, g in pairs.nonzero_generators()]
    from pairideal.groebner import module_syzygies

    syz = module_syzygies(ctx, inputs)
    assert syz
    for s in syz:
        acc = {}
        for (idx, e), v in s.items():
            for (pos, e2), v2 in inputs[idx].items():
                key = (pos, tuple(a + b for a, b in zip(e, e2)))
                acc[key] = acc.get(key, 0) + v * v2
        assert all(v == 0 for v in acc.values())


# -- term keys --------------------------------------------------------------------


def _tuple_key(shifts):
    """The term order as a tuple: (degree + shift, degrevlex(exp), -pos)."""
    return lambda term: (sum(term[1]) + shifts.get(term[0], 0), degrevlex(term[1]), -term[0])


NVARS = 4
exps = st.tuples(*[st.integers(0, 6)] * NVARS)
terms = st.tuples(st.integers(0, 5), exps)
shift_maps = st.dictionaries(st.integers(0, 5), st.integers(0, 4))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(terms, min_size=2, max_size=12, unique=True), shift_maps, exps)
def test_int_keys_sort_as_tuple_keys_and_add(sample, shifts, m):
    ring = pair_ring(QQ, 2, 2)
    key = ModuleContext(ring, shifts).term_key
    assert sorted(sample, key=key) == sorted(sample, key=_tuple_key(shifts))
    # additive: the key of x^m * term is the term's key plus one delta for m
    deltas = {key((q, tuple(map(add, e, m)))) - key((q, e)) for q, e in sample}
    assert len(deltas) == 1


@pytest.mark.parametrize("name", ["seven", "a3"])
def test_induced_keys_sort_as_tuple_chain_keys(name):
    pairs = PairsIdeal(get_fixture(name))
    res = pairs.quotient_complex()
    zero = pairs.ring.zero_exp
    base_key = int_key = ModuleContext(pairs.ring, {0: 0}).term_key
    base_tuple = tuple_key = _tuple_key({0: 0})
    origin, tuple_origin = [(0, zero, 0)], [(0, zero, ())]
    for p, level in enumerate(res.levels):
        level_terms = sorted({t for raw in level for t in raw}, key=tuple_key)
        assert sorted(level_terms, key=int_key) == level_terms
        leads = [max(raw, key=tuple_key) for raw in level]
        assert leads == [max(raw, key=int_key) for raw in level]
        int_key, origin = induced_key(base_key, origin, leads, WIDTH * (p + 1))
        # the nested key flattened: the image's tuple key, then the negated positions
        tuple_origin = [
            (amb, tuple(map(add, shift, le)), chain + (-i,))
            for i, (lp, le) in enumerate(leads)
            for amb, shift, chain in [tuple_origin[lp]]
        ]
        tuple_key = lambda t, o=tuple_origin: base_tuple(
            (o[t[0]][0], tuple(map(add, o[t[0]][1], t[1])))
        ) + o[t[0]][2]
    assert len(res.levels) >= 3


def test_key_fields_that_overflow_raise(xy_ring):
    S = xy_ring
    big = S.from_terms([((2**32, 0), 1)])
    with pytest.raises(GroebnerError):
        Ideal(S, [big, S.var(1) ** 2]).groebner()
    edge = S.from_terms([((2**32 - 1, 0), 1)])
    assert Ideal(S, [edge]).groebner() == [edge]
    ctx = ModuleContext(S)
    with pytest.raises(GroebnerError):
        ctx.term_key((2**WIDTH, (1, 0)))
    with pytest.raises(GroebnerError):
        ctx.term_key((-1, (1, 0)))
    with pytest.raises(GroebnerError):
        ModuleContext(S, {0: 2**WIDTH}).term_key((0, (0, 0)))
    with pytest.raises(GroebnerError):
        buchberger(ModuleContext(S, {0: 2**WIDTH - 1, 1: -1}), [{(0, (0, 0)): 1}])
    with pytest.raises(GroebnerError):
        complement(2**WIDTH)


# -- ideals of linear forms ----------------------------------------------------------


LINEAR_FIXTURES = ["a3", "seven", "fail_A", "bracelet9", "u:3:5"]


def test_linear_bases_equal_buchberger_bases():
    checked = 0
    for name in LINEAR_FIXTURES:
        for field in (QQ, PrimeField(32003)):
            pairs = PairsIdeal(get_fixture(name, field=field))
            for F, G in biflats(pairs.matroid):
                forms = [pairs.f[i] for i in sorted(F)] + [pairs.g[j] for j in sorted(G)]
                ctx = ModuleContext(pairs.ring)
                ours = _linear_basis(ctx, forms)
                theirs = interreduce(ctx, buchberger(ctx, [poly_to_raw(f) for f in forms])[0])
                assert [g.raw for g in ours] == [g.raw for g in theirs], (name, F, G)
                assert [g.raw for g in Ideal(pairs.ring, forms)._gb_elements()[1]] == [
                    g.raw for g in theirs
                ]
                checked += 1
    assert checked == 746


# -- colons with untracked inert blocks --------------------------------------------


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("name", ["a3", "seven", "fail_A"])
def test_colon_module_equals_fully_tracked_restriction(name, field):
    # the first colon (I : P) of the associated-prime test, whose copies of
    # I's basis enter inert and untracked, against a run that tracks every
    # input and keeps no inert group, restricted to the colon's element
    pairs = PairsIdeal(get_fixture(name, field=field))
    ring = pairs.ring
    ctx, gb = pairs.ideal_object()._gb_elements()
    raws = [g.raw for g in gb]
    checked = 0
    for F, G in biflats(pairs.matroid):
        forms = [poly_to_raw(f) for f in LinearPrime(pairs, F, G).forms]
        elem = {(t, e): v for t, f in enumerate(forms) for (_z, e), v in f.items()}
        ours = colon_module(ctx, raws, 1, [elem], copies=len(forms))
        inputs = [{(t, e): v for (_z, e), v in g.items()} for t in range(len(forms)) for g in raws]
        first = len(inputs)
        _, syz = buchberger(ctx, inputs + [elem], track=True)
        theirs = [{(0, e): v for (i, e), v in s.items() if i == first} for s in syz]
        assert all(w and {b for b, _e in w} == {0} for w in ours)
        assert (
            Ideal(ring, [raw_to_poly(ring, w) for w in ours]).groebner()
            == Ideal(ring, [raw_to_poly(ring, w) for w in theirs]).groebner()
        ), (F, G)
        checked += 1
    assert checked == len(biflats(pairs.matroid)) > 0


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
def test_normal_forms_are_canonical_up_to_scale(field):
    # monic over GF(p), primitive with a positive lead over QQ, and the same
    # for every nonzero multiple of the input
    pairs = PairsIdeal(get_fixture("a3", field=field))
    ctx, gb = pairs.ideal_object()._gb_elements()
    p = field.char
    n = pairs.ring.nvars
    rng = random.Random(24)
    nonzero = 0
    for _ in range(60):
        raw = {}
        for _t in range(rng.randint(1, 6)):
            i, j = rng.randrange(n), rng.randrange(n)
            e = tuple((k == i) + (k == j) for k in range(n))
            raw[(0, e)] = rng.choice([-1, 1]) * rng.randint(1, 9)
        nf = _normal_form(ctx, raw, gb)
        if nf:
            nonzero += 1
            lead = nf[max(nf, key=ctx.term_key)]
            if p:
                assert lead == 1
            else:
                assert lead > 0 and math.gcd(*nf.values()) == 1
        for c in (2, -3, 12, p - 1 if p else -45):
            scaled = {k: c * v % p if p else c * v for k, v in raw.items()}
            assert _normal_form(ctx, scaled, gb) == nf
    assert nonzero > 30
