from math import comb
from pathlib import Path

import pytest

from pairideal import groebner, resolution
from pairideal import pairs as pairs_module
from pairideal.cli import main
from pairideal.groebner import (
    ModuleContext,
    buchberger,
    module_syzygies,
    poly_to_raw,
    reduced_basis,
)
from pairideal.io import InputSpec
from pairideal.linalg import ExactMatrix
from pairideal.matroid import Realization
from pairideal.resolution import (
    ModulePieces,
    ResolutionError,
    SchreyerResolution,
    minimal_generators,
    raw_grade,
    schreyer_resolution,
)
from pairideal.derivations import DerivationModule
from pairideal.fixtures import get_fixture
from pairideal.pairs import PairsIdeal
from pairideal.primes import slice_associated_primes
from pairideal.ring import x_ring
from pairideal.scalars import QQ, PrimeField
from pairideal.workbench import Workbench

from test_graded import A3_IDEAL_BETTI


def test_free_module_input_resolves_in_one_step():
    R = x_ring(QQ, 2)
    gens = [{(0, (1, 0)): 1}, {(1, (0, 1)): 1}]
    ctx = ModuleContext(R)
    res = schreyer_resolution(ctx, reduced_basis(ctx, gens), [(0,), (0,)])
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
    pieces = ModulePieces(R, [(0,)], [{(0, (1, 0)): 1}])
    # the degree-2 piece of (x) is spanned by x^2 and x*y
    assert pieces.piece((2,)).dim == 2
    assert pieces.lower_span((1,)).dim == 0


def test_a3_schreyer_agrees(a3):
    ent = a3.pairs.quotient_complex().minimal_betti()
    shifted = {(p - 1, g): v for (p, g), v in ent.items() if p >= 1}
    assert shifted == A3_IDEAL_BETTI


def test_resolution_hilbert_alternation(a3):
    # alternating free-module Hilbert sums reproduce the quotient dimensions
    ent = a3.pairs.quotient_complex().minimal_betti()
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
    ent = _quotient_complex(seven).minimal_betti()
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
    ent = bracelet.pairs.quotient_complex().minimal_betti()
    assert max(p for p, _ in ent) == 6
    ent_sw = bracelet.pairs.swap_roles().quotient_complex().minimal_betti()
    assert {(p, (g[1], g[0])): v for (p, g), v in ent_sw.items()} == ent


def _quotient_complex(bench):
    """A fresh Schreyer complex of S/I, from the ideal's reduced basis."""
    ctx, basis = bench.pairs.ideal_object()._gb_elements()
    return schreyer_resolution(ctx, basis, [(0, 0)])


@pytest.mark.parametrize("name", ["a3", "seven"])
def test_schreyer_complex_composes_to_zero(name, request):
    res = _quotient_complex(request.getfixturevalue(name))
    assert len(res.levels) >= 4
    assert res.verify_complex()


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize(
    "name", ["a3", "seven", "bracelet9", "fail_A", "fail_PA", "boolean:3", "u:2:4", "u:3:5"]
)
def test_quotient_complex_starts_from_the_ideal_basis(name, field):
    # level 1 of the complex of S/I is the reduced basis of the ideal's
    # generators (boolean:3 is all coloops: the zero ideal, and no level)
    pairs = PairsIdeal(get_fixture(name, field=field))
    ctx = ModuleContext(pairs.ring)
    basis = reduced_basis(ctx, [poly_to_raw(g) for g in pairs.ideal_object().gens])
    level1 = [[g.raw for g in basis]] if basis else []
    assert pairs.quotient_complex().levels[:1] == level1


def test_verify_complex_sees_one_altered_coefficient(a3):
    res = _quotient_complex(a3)
    raw = res.levels[2][0]
    term = next(iter(raw))
    raw[term] = raw[term] + 1
    assert not res.verify_complex()


def test_derivation_module_refuses_a_broken_complex(monkeypatch):
    # the slice complex is memoized on its PairsIdeal: a fresh one builds it
    monkeypatch.setattr(SchreyerResolution, "verify_complex", lambda self: False)
    with pytest.raises(ResolutionError):
        DerivationModule(PairsIdeal(get_fixture("a3")))


def test_slice_primes_refuse_a_broken_complex(monkeypatch):
    monkeypatch.setattr(SchreyerResolution, "verify_complex", lambda self: False)
    with pytest.raises(ResolutionError):
        slice_associated_primes(PairsIdeal(get_fixture("a3")))


def test_slice_complex_is_built_once():
    pairs = PairsIdeal(get_fixture("seven"))
    assert pairs.slice_complex() is pairs.slice_complex()


def test_verify_seven_buchberger_runs(monkeypatch, capsys):
    # the derivation module and the slice scans read one slice complex per
    # side, where the derivation module once made three runs of its own
    runs = 0

    def counted(*args, **kw):
        nonlocal runs
        runs += 1
        return buchberger(*args, **kw)

    for module in (groebner, pairs_module, resolution):
        monkeypatch.setattr(module, "buchberger", counted)
    assert main(["verify", "seven"]) == 0
    capsys.readouterr()
    assert 0 < runs <= 24


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("name", ["a3", "seven", "fail_A", "boolean:3", "u:3:5"])
def test_slice_complex_starts_from_the_reduced_basis_of_the_columns(name, field):
    # a reduced basis is unique: the tracked run's, interreduced, is the
    # untracked one's (boolean:3 is all coloops: zero columns, no level)
    pairs = PairsIdeal(get_fixture(name, field=field))
    ring, m, cols, _ = pairs.slice_columns()
    ctx, basis, _, res = pairs.slice_complex()
    assert [g.raw for g in basis] == [g.raw for g in reduced_basis(ModuleContext(ring), cols)]
    assert res.levels[:1] == ([[g.raw for g in basis]] if basis else [])
    assert res.free_rank(0) == m


def _tor_from_f_mod_d(pairs):
    """Tor of D by a second route: a tracked run for D, then the Schreyer
    complex of F/D, F free on the columns; Tor_0(D) from the minimal
    generators and Tor_p(D) = Tor_(p+1)(F/D) for p >= 1."""
    R, _, cols, scales = pairs.slice_columns()
    syz = [
        {(k, e): v * scales[k] for (k, e), v in sz.items()}
        for sz in module_syzygies(ModuleContext(R), cols)
    ]
    shifts = [(1,)] * pairs.n
    gens = minimal_generators(R, syz, shifts)
    tor = {}
    for raw in gens:
        d = raw_grade(R, raw, shifts)[0] - 1
        tor[(0, d)] = tor.get((0, d), 0) + 1
    ctx = ModuleContext(R, shifts={k: 1 for k in range(pairs.n)})
    res = schreyer_resolution(ctx, reduced_basis(ctx, gens), shifts)
    assert res.verify_complex()
    for (p, g), v in res.minimal_betti().items():
        if p >= 2:
            tor[(p - 1, g[0] - 1)] = v
    return tor


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize(
    "name",
    [
        "a3",
        "seven",
        "bracelet9",
        "u:3:5",
        "u:4:6",
        "u:5:7",
        "fail_A",
        "fail_PA",
        "boolean:3",
        "seven_loop",
    ],
)
def test_derivation_tor_equals_the_f_mod_d_route(name, field):
    # Tor_p(D) read off E/N at p + 2 equals Tor_(p+1)(F/D)
    if name == "seven_loop":
        spec = InputSpec.from_file(Path(__file__).parent / "golden" / "seven_loop.json")
        pairs = PairsIdeal(
            Realization(name, field, ExactMatrix(field, spec.matrix_rows)), drop_loops=True
        )
    else:
        pairs = PairsIdeal(get_fixture(name, field=field))
    assert DerivationModule(pairs).tor_dims() == _tor_from_f_mod_d(pairs)


@pytest.mark.parametrize(
    "name,pdim,tor",
    [
        ("u:4:6", 2, {(0, 0): 1, (0, 2): 10, (1, 3): 10, (2, 4): 3}),
        ("u:5:7", 3, {(0, 0): 1, (0, 2): 20, (1, 3): 30, (2, 4): 18, (3, 5): 4}),
    ],
)
def test_derivation_tor_beyond_pdim_one(name, pdim, tor):
    # Tor_p(D) = Tor_{p+2}(E/N) for p >= 1; Tor_0 from the generator grades
    bench = Workbench(get_fixture(name))
    dm = bench.derivations
    assert dm.pdim == pdim
    assert dm.tor_dims() == tor
    assert bench.verify("tor-of-der")["passed"]
