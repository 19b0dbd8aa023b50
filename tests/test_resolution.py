from math import comb

import pytest

from pairideal.groebner import poly_to_raw
from pairideal.resolution import (
    ModulePieces,
    ResolutionError,
    minimal_generators,
    resolve_quotient_by_ideal,
    resolve_submodule,
    schreyer_quotient_betti,
    schreyer_resolution,
    quotient_betti_entries,
)
from pairideal.ring import x_ring
from pairideal.scalars import QQ

from test_graded import A3_IDEAL_BETTI


def test_free_module_input_resolves_in_one_step():
    R = x_ring(QQ, 2)
    gens = [{(0, (1, 0)): 1}, {(1, (0, 1)): 1}]
    res = resolve_submodule(R, gens, [(0,), (0,)])
    assert res.length == 1  # generators only, no syzygies
    assert res.is_minimal()
    assert res.verify_complex()


def test_minimal_generators_drop_redundant():
    R = x_ring(QQ, 2)
    x = {(0, (1, 0)): 1}
    xx = {(0, (2, 0)): 1}
    y = {(0, (0, 1)): 1}
    mins = minimal_generators(R, [xx, x, y], [(0,)])
    assert len(mins) == 2


def test_module_pieces_grow_and_keep_degree_order():
    R = x_ring(QQ, 2)
    pieces = ModulePieces(R, [(0,)])
    pieces.register({(0, (1, 0)): 1})
    # the degree-2 piece of (x) is spanned by x^2 and x*y
    assert pieces.piece((2,)).dim == 2
    assert pieces.lower_span((1,)).dim == 0
    with pytest.raises(ResolutionError):
        pieces.register({(0, (0, 1)): 1})


def test_a3_quotient_resolution(a3):
    gens = [g for _, g in a3.pairs.nonzero_generators()]
    res = resolve_quotient_by_ideal(a3.pairs.ring, gens)
    assert res.length == 4
    assert res.is_minimal(include_first=True)
    assert res.verify_complex()
    ent = quotient_betti_entries(res)
    shifted = {(p - 1, g): v for (p, g), v in ent.items() if p >= 1}
    assert shifted == A3_IDEAL_BETTI


def test_a3_schreyer_agrees(a3):
    gens = [g for _, g in a3.pairs.nonzero_generators()]
    ent = schreyer_quotient_betti(a3.pairs.ring, gens)
    shifted = {(p - 1, g): v for (p, g), v in ent.items() if p >= 1}
    assert shifted == A3_IDEAL_BETTI


def test_resolution_hilbert_alternation(a3):
    # alternating free-module Hilbert sums reproduce the quotient dimensions
    gens = [g for _, g in a3.pairs.nonzero_generators()]
    res = resolve_quotient_by_ideal(a3.pairs.ring, gens)
    ent = quotient_betti_entries(res)
    eng = a3.engine

    def free_dim(shift, bideg):
        i, j = bideg[0] - shift[0], bideg[1] - shift[1]
        if i < 0 or j < 0:
            return 0
        return comb(i + 2, 2) * comb(j + 2, 2)

    for bideg in [(2, 2), (3, 3), (4, 2), (4, 4)]:
        total = 0
        for (p, g), v in ent.items():
            total += (-1) ** p * v * free_dim(g, bideg)
        assert total == eng.quotient_dim(bideg)


def test_seven_schreyer_pdim(seven):
    gens = [g for _, g in seven.pairs.nonzero_generators()]
    raws = [poly_to_raw(g) for g in gens]
    res = schreyer_resolution(seven.pairs.ring, raws, [(0, 0)])
    ent = res.minimal_betti()
    assert max(p for p, _ in ent) == 7
    totals = {}
    for (p, _), v in ent.items():
        totals[p] = totals.get(p, 0) + v
    assert totals == {0: 1, 1: 6, 2: 23, 3: 40, 4: 37, 5: 21, 6: 7, 7: 1}


def test_der_module_resolution_free_a3(a3):
    dm = a3.derivations
    assert dm.resolution.length == 1
    assert [g[0] for g in dm.resolution.steps[0]["grades"]] == [1, 2, 3]


def test_bracelet_resolution_and_transpose(bracelet):
    gens = [g for _, g in bracelet.pairs.nonzero_generators()]
    ent = schreyer_quotient_betti(bracelet.pairs.ring, gens)
    assert max(p for p, _ in ent) == 6
    sw = bracelet.pairs.swap_roles()
    ent_sw = schreyer_quotient_betti(sw.ring, [g for _, g in sw.nonzero_generators()])
    assert {(p, (g[1], g[0])): v for (p, g), v in ent_sw.items()} == ent
