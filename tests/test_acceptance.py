"""Acceptance suite: the exit criteria, one printed pass/fail line each.

Every check is an exact integer or rational equality (zero tolerance).
The braid-arrangement Betti table is pinned by three independent methods
(Koszul homology, the exact induced-order complex, and the minimal
resolution); its top corner is 3, forced by the Euler characteristic of
the Koszul complex at bidegree (3,3) together with the quotient Hilbert
function, and all three methods agree on it.
"""

import random
import zlib

from pairideal.derivations import recipe_check
from pairideal.fixtures import get_fixture
from pairideal.primes import (
    associated_primes,
    slice_associated_primes,
    uniform_checks,
)

from conftest import bench_for
from test_graded import A3_IDEAL_BETTI


def criterion(num, description):
    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {num} [FAIL]: {description}")
                raise
            print(f"ACCEPTANCE {num} [PASS]: {description}")

        run.__name__ = fn.__name__
        return run

    return wrap


@criterion(1, "braid fixture: 5 minimal generators at (1,1), full Betti table, pdim 3, methods agree")
def test_criterion_1_a3_betti():
    a3 = bench_for("a3")
    koszul = a3.koszul_betti(target="ideal")
    resolution = a3.resolution_betti(target="ideal")
    minimal_gens = {b: v for (p, b), v in koszul.entries.items() if p == 0}
    assert minimal_gens == {(1, 1): 5}
    assert koszul.entries == A3_IDEAL_BETTI
    assert resolution.entries == A3_IDEAL_BETTI
    assert koszul.max_p() == 3
    assert resolution.max_p() == 3


@criterion(2, "braid fixture: free derivations {0,1,2}, cyclic flats, no embedded primes, sharp bound 4")
def test_criterion_2_a3_structure():
    a3 = bench_for("a3")
    dm = a3.derivations
    assert dm.free and dm.generator_degrees == [0, 1, 2]
    M = a3.pairs.matroid
    cyc = [a3.pairs.original_labels(F) for F in M.cyclic_flats()]
    assert cyc == [[], [1, 2, 4], [1, 3, 5], [2, 3, 6], [4, 5, 6], [1, 2, 3, 4, 5, 6]]
    ass = associated_primes(a3.pairs)
    assert len(ass) == 6 and all(p.tag == "minimal" for p in ass)
    from pairideal.derivations import pdim_bounds

    bounds = pdim_bounds(a3.pairs)
    assert bounds["cyclic_flat_bound"] == 4
    quotient_pdim = a3.resolution_betti(target="quotient").max_p()
    assert quotient_pdim == 4  # the bound is attained


@criterion(3, "seven-line fixture: cyclic flats, bound 4 vs certified pdim 7, exact embedded primes")
def test_criterion_3_seven():
    seven = bench_for("seven")
    M = seven.pairs.matroid
    cyc = [(seven.pairs.original_labels(F), M.rank_of(F)) for F in M.cyclic_flats()]
    assert cyc == [
        ([], 0),
        ([1, 2, 4, 6], 2),
        ([1, 3, 5, 7], 2),
        ([1, 2, 3, 4, 5, 6, 7], 3),
    ]
    from pairideal.derivations import pdim_bounds

    assert pdim_bounds(seven.pairs)["cyclic_flat_bound"] == 4
    resolution = seven.resolution_betti(target="quotient")
    assert resolution.max_p() == 7  # certified by the exact complex
    koszul_top = seven.engine.koszul_homology_dim(7, (4, 6))
    assert koszul_top == resolution.get(7, (4, 6)) and koszul_top > 0
    ass = associated_primes(seven.pairs)
    full = list(range(1, 8))
    embedded = [(p.labels()["I"], p.labels()["J"]) for p in ass if p.tag == "embedded"]
    assert embedded == [
        ([1, 2, 4, 6], full),
        ([1, 3, 5, 7], full),
        (full, full),
    ]
    sx = slice_associated_primes(seven.pairs)
    assert all(d["tag"] == "minimal" for d in sx)
    sy = slice_associated_primes(seven.pairs.swap_roles())
    embedded_y = [d for d in sy if d["tag"] == "embedded"]
    assert len(embedded_y) == 1 and embedded_y[0]["is_maximal_ideal"]


@criterion(4, "bracelet fixture: no embedded primes anywhere, new (2;2) relation, non-free with rank-2 flats")
def test_criterion_4_bracelet():
    bracelet = bench_for("bracelet9", window=5, bound=2)
    pairs = bracelet.pairs
    ass = associated_primes(pairs)
    assert all(p.tag == "minimal" for p in ass)
    assert len(ass) == len(pairs.matroid.cyclic_flats())
    for side in (pairs, pairs.swap_roles()):
        assert all(d["tag"] == "minimal" for d in slice_associated_primes(side))
    eng = bracelet.engine
    assert eng.ix_new_generators(2, 2) == 1
    dm = bracelet.derivations
    log = eng.ilog_slice(dm.c_vectors, 2, 2)
    assert all(map(eng.ix_contains, log.rows.values()))
    assert log.dim < eng.ix_dim(2, 2)  # strict inclusion
    M = pairs.matroid
    assert all(M.rank_of(F) == 2 for F in M.minimal_nonempty_cyclic_flats())
    assert not dm.free


@criterion(5, "uniform fixtures: three associated primes, all product memberships, unique slice prime")
def test_criterion_5_uniform():
    for name, n in (("u:2:4", 4), ("u:3:5", 5)):
        bench = bench_for(name)
        full = list(range(1, n + 1))
        ass = [(p.labels()["I"], p.labels()["J"], p.tag) for p in associated_primes(bench.pairs)]
        assert ass == [
            ([], full, "minimal"),
            (full, [], "minimal"),
            (full, full, "embedded"),
        ]
        rep = uniform_checks(bench.engine)
        assert rep["uniform"] and rep["failures"] == [] and rep["products_checked"] > 0
        slices = slice_associated_primes(bench.pairs)
        assert [(d["flat"], d["tag"]) for d in slices] == [(full, "minimal")]


ALL_FIXTURES = ["boolean:3", "u:1:2", "u:2:4", "u:3:5", "a3", "seven", "fail_A"]


@criterion(6, "property suites: slices, derivation identities, symmetry, oracle agreement, certificates")
def test_criterion_6_properties():
    benches = {name: bench_for(name) for name in ALL_FIXTURES}
    benches["bracelet9"] = bench_for("bracelet9", window=5, bound=2)

    # dim of the (1,1) syzygy slice equals the component count
    for name, bench in benches.items():
        assert bench.engine.derivation_slice_dim(1) == bench.pairs.kappa, name

    # a-degree-one identities: relation slice = logarithmic slice = derivations
    for name, bench in benches.items():
        dm = bench.derivations
        for i in range(0, min(bench.window, 4)):
            ix = bench.engine.ix_dim(i, 1)
            il = bench.engine.ilog_slice(dm.c_vectors, i, 1).dim
            der = bench.engine.derivation_slice_dim(i + 1)
            assert ix == il == der, (name, i)

    # syzygy-column identities against the derivation resolutions
    for name in ("a3", "bracelet9", "seven", "u:2:4", "u:3:5"):
        res = benches[name].verify("tor-of-der")
        assert res["passed"], (name, res.get("first_violation"))

    # Betti transpose symmetry under role swap (loopless duals only)
    for name in ("u:1:2", "u:2:4", "u:3:5", "a3", "seven", "bracelet9"):
        bench = benches[name]
        ent = bench.resolution_betti(target="quotient").entries
        ent_sw = bench.pairs.swap_roles().quotient_complex().minimal_betti()
        assert {(p, (b[1], b[0])): v for (p, b), v in ent_sw.items()} == ent, name

    # Koszul and resolution methods agree (full tables at small scale,
    # windowed comparison for the nine-line fixture)
    for name in ("u:1:2", "u:2:4", "u:3:5", "a3", "seven", "fail_A", "boolean:3"):
        bench = benches[name]
        k = bench.koszul_betti(target="quotient")
        r = bench.resolution_betti(target="quotient")
        assert k.entries == r.entries, name
        assert k.certified_window, name
    bb = benches["bracelet9"]
    kosz = bb.engine.koszul_betti(window=5, hard_cap=5, target="quotient")
    resol = bb.resolution_betti(target="quotient")
    window_entries = {
        key: v for key, v in resol.entries.items() if key[1][0] + key[1][1] <= 5
    }
    assert dict(kosz.entries) == window_entries

    # the zero-set certificate succeeds on every loopless fixture
    for name, bench in benches.items():
        from pairideal.primes import verify_min_primes

        assert verify_min_primes(bench.pairs)["verified"], name

    # Groebner membership agrees with the degreewise oracle, 200 elements each
    for name, bench in benches.items():
        pairs = bench.pairs
        S = pairs.ring
        ideal = bench.pairs.ideal_object()
        eng = bench.engine
        rng = random.Random(zlib.crc32(name.encode()))
        gens = [g for _, g in pairs.nonzero_generators()]
        agreements = 0
        for _ in range(200):
            if gens and rng.random() < 0.5:
                elem = S.zero()
                for g in gens:
                    if rng.random() < 0.6:
                        mono = rng.choice(S.monomial_basis((1, 1)))
                        elem = elem + g.mul_monomial(mono, rng.randint(-3, 3))
            else:
                i, j = rng.randint(0, 2), rng.randint(0, 2)
                monos = S.monomial_basis((i, j)) or S.monomial_basis((i, 0))
                elem = S.from_terms(
                    (rng.choice(monos), rng.randint(-2, 2)) for _ in range(2)
                )
            assert ideal.member(elem) == eng.member(elem), name
            agreements += 1
        assert agreements == 200


@criterion(7, "recipe: separating certificate on the transvected pair, none at rank three")
def test_criterion_7_recipe():
    cert = recipe_check(get_fixture("fail_A"), get_fixture("fail_PA"))
    assert cert is not None
    assert cert["flat"] == [1, 2, 3, 5]
    assert "not isomorphic" in cert["verdict"]
    from fractions import Fraction

    from pairideal.linalg import ExactMatrix
    from pairideal.matroid import Realization
    from pairideal.scalars import QQ

    rows = [[Fraction(t + 3) ** i for t in range(6)] for i in range(3)]
    other = Realization("u36b", QQ, ExactMatrix(QQ, rows))
    assert recipe_check(get_fixture("u:3:6"), other) is None
