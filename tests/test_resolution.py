from math import comb

import pytest

from pairideal.groebner import poly_to_raw
from pairideal.resolution import (
    ModulePieces,
    ResolutionError,
    SchreyerResolution,
    minimal_generators,
    schreyer_quotient_complex,
    schreyer_resolution,
)
from pairideal.derivations import DerivationModule
from pairideal.fixtures import get_fixture
from pairideal.ring import x_ring
from pairideal.scalars import QQ
from pairideal.workbench import Workbench

from test_graded import A3_IDEAL_BETTI


def test_free_module_input_resolves_in_one_step():
    R = x_ring(QQ, 2)
    gens = [{(0, (1, 0)): 1}, {(1, (0, 1)): 1}]
    res = schreyer_resolution(R, gens, [(0,), (0,)])
    assert len(res.levels) == 1  # generators only, no syzygies
    assert res.verify_complex()
    assert res.minimal_betti() == {(0, (0,)): 2, (1, (1,)): 2}


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


def test_a3_schreyer_agrees(a3):
    gens = [g for _, g in a3.pairs.nonzero_generators()]
    ent = schreyer_quotient_complex(a3.pairs.ring, gens).minimal_betti()
    shifted = {(p - 1, g): v for (p, g), v in ent.items() if p >= 1}
    assert shifted == A3_IDEAL_BETTI


def test_resolution_hilbert_alternation(a3):
    # alternating free-module Hilbert sums reproduce the quotient dimensions
    gens = [g for _, g in a3.pairs.nonzero_generators()]
    ent = schreyer_quotient_complex(a3.pairs.ring, gens).minimal_betti()
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
    assert dm.pdim == 0
    assert dm.tor_dims() == {(0, 0): 1, (0, 1): 1, (0, 2): 1}


def test_bracelet_resolution_and_transpose(bracelet):
    gens = [g for _, g in bracelet.pairs.nonzero_generators()]
    ent = schreyer_quotient_complex(bracelet.pairs.ring, gens).minimal_betti()
    assert max(p for p, _ in ent) == 6
    sw = bracelet.pairs.swap_roles()
    gens_sw = [g for _, g in sw.nonzero_generators()]
    ent_sw = schreyer_quotient_complex(sw.ring, gens_sw).minimal_betti()
    assert {(p, (g[1], g[0])): v for (p, g), v in ent_sw.items()} == ent


def _quotient_complex(bench):
    gens = bench.pairs.nonzero_generators()
    return schreyer_resolution(bench.pairs.ring, [poly_to_raw(g) for _, g in gens], [(0, 0)])


@pytest.mark.parametrize("name", ["a3", "seven"])
def test_schreyer_complex_composes_to_zero(name, request):
    res = _quotient_complex(request.getfixturevalue(name))
    assert len(res.levels) >= 4
    assert res.verify_complex()


def test_verify_complex_sees_one_altered_coefficient(a3):
    res = _quotient_complex(a3)
    raw = res.levels[2][0]
    term = next(iter(raw))
    raw[term] = raw[term] + 1
    assert not res.verify_complex()


def test_derivation_module_refuses_a_broken_complex(a3, monkeypatch):
    monkeypatch.setattr(SchreyerResolution, "verify_complex", lambda self: False)
    with pytest.raises(ResolutionError):
        DerivationModule(a3.pairs)


@pytest.mark.parametrize(
    "name,pdim,tor",
    [
        ("u:4:6", 2, {(0, 0): 1, (0, 2): 10, (1, 3): 10, (2, 4): 3}),
        ("u:5:7", 3, {(0, 0): 1, (0, 2): 20, (1, 3): 30, (2, 4): 18, (3, 5): 4}),
    ],
)
def test_derivation_tor_beyond_pdim_one(name, pdim, tor):
    # Tor_p(D) = Tor_{p+1}(F/D) for p >= 1; Tor_0 from the generator grades
    bench = Workbench(get_fixture(name))
    dm = bench.derivations
    assert dm.pdim == pdim
    assert dm.tor_dims() == tor
    assert bench.verify("tor-of-der")["passed"]
