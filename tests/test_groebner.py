import random

import pytest

from pairideal.groebner import (
    Ideal,
    ModuleContext,
    buchberger,
    is_associated,
    poly_to_raw,
)
from pairideal.ring import pair_ring
from pairideal.scalars import QQ


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
    from pairideal.groebner import _reduce, _scaled_combination, _addexp

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
            res, _ = _reduce(ctx, raw, None, basis, full=True)
            assert not res


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
