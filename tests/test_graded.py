"""Degreewise engine: pieces, Hilbert data, Koszul homology, slices."""

from fractions import Fraction
from itertools import combinations
from math import comb, prod
from operator import add, ge, le
from pathlib import Path

import pytest
from conftest import bench_for

from pairideal import graded, spans
from pairideal.fixtures import get_fixture
from pairideal.graded import GradedEngine, IdealPieces, theta_from_syzygy
from pairideal.io import InputSpec
from pairideal.linalg import ExactMatrix
from pairideal.matroid import Realization
from pairideal.pairs import PairsIdeal
from pairideal.resolution import ModulePieces
from pairideal.ring import RingError, _compositions, pair_ring
from pairideal.scalars import QQ, PrimeField
from pairideal.spans import Echelon, grow
from pairideal.workbench import Workbench

A3_GF32003 = Path(__file__).parent / "golden" / "a3_gf32003.json"
FRACTIONAL = [[2, 1, 3, 1], [1, 3, 1, 0], [0, 5, 0, 7]]  # pinned basis has fractions


# the worked braid-arrangement table, pinned by two independent methods
# (Koszul homology and the exact induced-order complex); the top corner is
# 3, forced by the Euler characteristic of the Koszul complex at (3,3)
A3_IDEAL_BETTI = {
    (0, (1, 1)): 5,
    (1, (2, 1)): 1,
    (1, (1, 2)): 1,
    (1, (2, 2)): 7,
    (1, (3, 1)): 1,
    (1, (1, 3)): 1,
    (2, (3, 2)): 5,
    (2, (2, 3)): 5,
    (3, (3, 3)): 3,
}


def test_ideal_pieces_vanish_on_axes(a3, u24):
    for bench in (a3, u24):
        eng = bench.engine
        for i in range(4):
            assert eng.ideal_dim((i, 0)) == 0
            assert eng.ideal_dim((0, i)) == 0


def test_u12_piece_dims(u12):
    assert u12.engine.ideal_dim((1, 1)) == 1
    assert u12.engine.quotient_dim((2, 2)) == 0
    assert u12.engine.quotient_dim((3, 0)) == 1
    assert u12.engine.quotient_dim((0, 2)) == 1


def test_boolean_hilbert(boolean3):
    eng = boolean3.engine
    for i in range(3):
        for j in range(3):
            assert eng.quotient_dim((i, j)) == eng.ring.monomial_count((i, j))


def test_hilbert_additivity(a3, seven):
    for bench in (a3, seven):
        eng = bench.engine
        for i in range(4):
            for j in range(4):
                assert eng.ideal_dim((i, j)) + eng.quotient_dim((i, j)) == eng.ring.monomial_count((i, j))


@pytest.mark.parametrize("name", ["a3", "seven", "fail_A", "u:3:5", "boolean:3", "a3_gf32003"])
def test_cokernel_dims_equal_ideal_piece_route(name):
    # two routes to the Hilbert function: cokernels of the Koszul relations
    # on the lower quotient pieces, and monomials minus the ideal's pieces
    if name == "a3_gf32003":
        eng = Workbench(InputSpec.from_file(A3_GF32003).realization()).engine
    else:
        eng = GradedEngine(PairsIdeal(get_fixture(name)))
    for i in range(7):
        for j in range(7 - i):
            assert eng.quotient_piece_dim((i, j)) == eng.quotient_dim((i, j)), (i, j)


def _compose(field, first, second):
    """second after first, as columns of field values (see `mult_map`)."""
    out = []
    for w, lam in first:
        col = {}
        for t, v in w.items():
            w2, lam2 = second[t]
            for c, u in w2.items():
                col[c] = field.add(col.get(c, field.zero), field.of(Fraction(v * u, lam * lam2)))
        out.append({c: x for c, x in col.items() if not field.is_zero(x)})
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("name", ["a3", "seven"])
def test_mult_maps_commute(name, field):
    # x_l x_k == x_k x_l from M_delta: the cokernel labels of different
    # variables name one class exactly when the Koszul relations say so
    eng = GradedEngine(PairsIdeal(get_fixture(name, field)))
    grades = eng.ring.grades
    for i in range(3):
        for j in range(3 - i):
            for k, l in combinations(range(eng.ring.nvars), 2):
                via_k = tuple(map(add, (i, j), grades[k]))
                via_l = tuple(map(add, (i, j), grades[l]))
                kl = _compose(field, eng.mult_map((i, j), k), eng.mult_map(via_k, l))
                lk = _compose(field, eng.mult_map((i, j), l), eng.mult_map(via_l, k))
                assert kl == lk, ((i, j), k, l)
                assert len(kl) == eng.quotient_piece_dim((i, j))


def test_koszul_table_grows_no_ideal_piece():
    # the Koszul route reads its quotient pieces off the cokernels; the
    # ideal's pieces are the other Hilbert route and stay unbuilt
    eng = Workbench(get_fixture("seven")).engine
    assert sum(v for (p, _), v in eng.koszul_betti().entries.items() if p == 7) == 1
    assert all(map(le, g, (1, 1)) for g in eng.ideal._pieces)


def test_a3_koszul_table(a3):
    table = a3.koszul_betti(target="ideal")
    assert table.entries == A3_IDEAL_BETTI
    assert table.certified_window
    assert table.max_p() == 3  # projective dimension of the ideal


def test_workbench_answers_both_targets_from_one_koszul_scan():
    bench = Workbench(get_fixture("u:2:4"))
    scans = []
    scan = bench.engine.koszul_betti
    bench.engine.koszul_betti = lambda **kw: scans.append(kw) or scan(**kw)
    quotient = bench.koszul_betti(target="quotient")
    ideal = bench.koszul_betti(target="ideal")
    assert len(scans) == 1
    assert ideal.target == "ideal"
    assert ideal.entries == scan(window=bench.window, target="ideal").entries
    assert quotient.entries == scan(window=bench.window).entries


def test_u12_principal_ideal_betti(u12):
    table = u12.koszul_betti(target="ideal")
    assert table.entries == {(0, (1, 1)): 1}


def test_seven_koszul_totals(seven):
    table = seven.koszul_betti(target="quotient")
    totals = {}
    for (p, _), v in table.entries.items():
        totals[p] = totals.get(p, 0) + v
    assert totals == {0: 1, 1: 6, 2: 23, 3: 40, 4: 37, 5: 21, 6: 7, 7: 1}
    assert table.certified_window


def test_koszul_euler_characteristic(a3):
    # alternating Tor sums equal the alternating Koszul chain sums
    eng = a3.engine
    r, s = a3.pairs.r, a3.pairs.s
    table = a3.koszul_betti(target="quotient")
    for (i, j) in [(2, 2), (3, 3), (2, 1)]:
        chi_tor = sum(
            (-1) ** p * table.get(p, (i, j)) for p in range(0, 8)
        )
        chi_chain = sum(
            (-1) ** (a + b)
            * comb(r, a)
            * comb(s, b)
            * eng.quotient_dim((i - a, j - b))
            for a in range(r + 1)
            for b in range(s + 1)
            if i - a >= 0 and j - b >= 0
        )
        assert chi_tor == chi_chain


# (fixture, i+j bound): the default Koszul window n + 2, seven's cut to 7
KOSZUL_WINDOWS = [("a3", 8), ("u:3:5", 7), ("fail_A", 7), ("seven", 7)]


def _differential(eng, p, bideg):
    """The columns of d_p in one bidegree, one per basis element of C_p,
    rebuilt from `_chain_basis` and `mult_map` as {target: field value}."""
    F = eng.field
    toffset = {tu: off for tu, off, _ in eng._chain_basis(p - 1, bideg)[0]}
    cols = []
    for (T, U), _, qdim in eng._chain_basis(p, bideg)[0]:
        src = (bideg[0] - len(T), bideg[1] - len(U))
        faces = []
        for k, t in enumerate(T + U):
            face = (tuple(v for v in T if v != t), tuple(v for v in U if v != t))
            if face in toffset:
                faces.append(((-1) ** k, toffset[face], eng.mult_map(src, t)))
        for m in range(qdim):
            col = {}
            for sign, off, cols_t in faces:
                w, lam = cols_t[m]
                col.update((off + c, F.of(Fraction(sign * v, lam))) for c, v in w.items())
            cols.append(col)
    return cols


def _koszul_bidegrees(name, field, window):
    eng = GradedEngine(PairsIdeal(get_fixture(name, field)))
    nvars = eng.ring.nvars
    for i in range(window + 1):
        for j in range(window + 1 - i):
            for p in range(nvars + 1):
                yield eng, p, (i, j)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("name,window", KOSZUL_WINDOWS)
def test_koszul_boundaries_compose_to_zero(name, window, field):
    # the rank bound u = dim ker d_(p-1) rests on d_(p-1) d_p = 0: every
    # built column of d_p, sent through d_(p-1) rebuilt from the mult maps,
    # is zero
    for eng, p, bideg in _koszul_bidegrees(name, field, window):
        if p < 2:
            continue
        lower = _differential(eng, p - 1, bideg)
        for _, parts in eng._boundary_columns(eng._boundary_faces(p, bideg)):
            image = {}
            for c, v in eng._boundary_column(parts).items():
                for r, x in lower[c].items():
                    image[r] = field.add(image.get(r, field.zero), field.mul(field.of(v), x))
            assert all(map(field.is_zero, image.values())), (p, bideg)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("name,window", KOSZUL_WINDOWS)
def test_bounded_koszul_ranks_equal_full_elimination(name, window, field):
    # the rank certified by its bounds, or eliminated only up to u, is the
    # rank of every column of d_p put into one echelon
    for eng, p, bideg in _koszul_bidegrees(name, field, window):
        full = Echelon(field)
        for col in _differential(eng, p, bideg):
            full.insert(col)
        assert eng._koszul_rank(p, bideg) == full.dim, (p, bideg)


def test_koszul_table_builds_few_columns(monkeypatch):
    # eliminating every boundary column, the Koszul table of seven made
    # 84,723 inserts; the rank bounds and the lead certificate leave 37,043
    eng = GradedEngine(PairsIdeal(get_fixture("seven")))
    depth, calls = [0], []
    rank, insert = GradedEngine._koszul_rank, Echelon.insert

    def counted_rank(self, p, bideg):
        depth[0] += 1
        try:
            return rank(self, p, bideg)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(GradedEngine, "_koszul_rank", counted_rank)
    monkeypatch.setattr(
        Echelon, "insert", lambda self, vec: (depth[0] and calls.append(1)) or insert(self, vec)
    )
    assert sum(v for (p, _), v in eng.koszul_betti().entries.items() if p == 7) == 1
    assert len(calls) <= 45_000


def test_koszul_rank_refuses_more_leads_than_its_bound(monkeypatch):
    # with each multiplication map by x_var replaced by the selection
    # t -> t + var (mod the target dimension), d_(p-1) d_p is no longer
    # zero, and d_3 at (3,1) has 30 distinct leads where ker d_2 has room
    # for 28: that must raise, never clip to u
    eng = GradedEngine(PairsIdeal(get_fixture("a3")))
    grades = eng.ring.grades
    mult_map = GradedEngine.mult_map

    def planted(self, bideg, var):
        cols = mult_map(self, bideg, var)
        dim = self.quotient_piece_dim(tuple(map(add, bideg, grades[var])))
        return [({(t + var) % dim: 1}, 1) for t in range(len(cols))] if dim else cols

    for i in range(6):
        for j in range(6 - i):
            eng.quotient_piece((i, j))  # the cokernels keep the true maps
    monkeypatch.setattr(GradedEngine, "mult_map", planted)
    with pytest.raises(RingError, match=r"d_\d+ d_\d+ != 0"):
        for p in range(eng.ring.nvars + 1):
            for i in range(6):
                for j in range(6 - i):
                    eng._koszul_rank(p, (i, j))


def test_derivation_slices(a3, boolean3, seven):
    assert a3.engine.derivation_slice_dim(1) == 1
    assert boolean3.engine.derivation_slice_dim(1) == 3
    assert seven.engine.derivation_slice_dim(1) == 1
    # free model for the braid arrangement: degrees 0,1,2
    R = 3
    for d in (1, 2, 3, 4):
        expected = sum(
            comb(d - 1 - e + R - 1, R - 1) for e in (0, 1, 2) if d - 1 - e >= 0
        )
        assert a3.engine.derivation_slice_dim(d) == expected


def test_derivation_new_generators(a3, bracelet):
    counts = [a3.engine.derivation_new_generator_count(d) for d in (-1, 0, 1, 2, 3, 4)]
    assert counts == [0, 0, 1, 1, 1, 0]
    # bracelet: Euler in degree 1 and four generators one degree higher
    counts = [bracelet.engine.derivation_new_generator_count(d) for d in (-1, 0, 1, 2, 3)]
    assert counts == [0, 0, 1, 0, 4]


def test_theta_from_syzygy(a3, u12):
    eng = a3.engine
    euler = {(k, (0,) * 6): 1 for k in range(6)}
    theta = theta_from_syzygy(a3.pairs, euler)
    assert [str(t) for t in theta] == ["x1", "x2", "x3"]
    # degree-2 slice elements define derivations with exact divisibility
    for c in eng.derivation_slice(2):
        theta_from_syzygy(a3.pairs, c)  # raises on failure
    bad = {(0, (0,) * 6): 1}
    with pytest.raises(RingError):
        theta_from_syzygy(a3.pairs, bad)
    tu = theta_from_syzygy(u12.pairs, {(0, (0, 0)): 1, (1, (0, 0)): 1})
    assert str(tu[0]) == "x1"


@pytest.mark.parametrize("name", ["a3", "seven", "u:2:4", "a3_gf32003"])
def test_slice_vectors_expand_to_zero(name):
    # each kernel vector is expanded in S with Poly arithmetic alone, so the
    # check is independent of the echelon code that produced it
    if name == "a3_gf32003":
        bench = Workbench(InputSpec.from_file(A3_GF32003).realization())
    else:
        bench = bench_for(name)
    eng, pairs = bench.engine, bench.pairs
    S = pairs.ring
    fg = [pairs.f[k] * pairs.g[k] for k in range(pairs.n)]

    def expand(vec, term):
        total = S.zero()
        for key, v in vec.items():
            m, p = term(key)
            total = total + p.mul_monomial(m, v)
        return total

    def syzygy_term(key):
        k, m = key
        return m, fg[k]

    def ix_term(key):
        m, gamma = key
        return m, prod((fg[k] ** e for k, e in enumerate(gamma)), start=S.one())

    for d in range(1, 5):
        assert eng.derivation_slice(d) == eng.syzygy_slice(d, 1)
    seen = 0
    for c in range(1, 4):
        for d in range(1, 5 - c):
            for vec in eng.syzygy_slice(c, d):
                assert vec and expand(vec, syzygy_term).is_zero()
                seen += 1
    for i in range(3):
        for j in range(1, 3):
            for vec in eng.ix_slice(i, j):
                assert vec and expand(vec, ix_term).is_zero()
                seen += 1
    assert seen


def test_ix_slices(a3, bracelet):
    for bench in (a3, bracelet):
        eng = bench.engine
        assert eng.ix_slice(2, 0) == []
        for i in range(3):
            assert eng.ix_dim(i, 1) == eng.derivation_slice_dim(i + 1)
        # at i = 0 only the a-multiples of the (0;j-1) piece are lower: the
        # Euler element is the one new generator, at (0;1)
        assert [eng.ix_new_generators(0, j) for j in (0, 1, 2)] == [0, 1, 0]
    assert bracelet.engine.ix_dim(2, 2) == 123
    assert bracelet.engine.ix_new_generators(2, 2) == 1


def test_ilog_slices(a3, bracelet):
    dm = a3.derivations
    eng = a3.engine
    for (i, j) in [(0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2)]:
        log = eng.ilog_slice(dm.c_vectors, i, j)
        assert log.dim == eng.ix_dim(i, j)
        assert all(map(eng.ix_contains, log.rows.values()))
    dmb = bracelet.derivations
    engb = bracelet.engine
    log = engb.ilog_slice(dmb.c_vectors, 2, 2)
    assert log.dim == 122
    assert all(map(engb.ix_contains, log.rows.values()))


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("name", ["a3", "u:3:5", "fail_A", "boolean:3"])
def test_ix_dim_equals_tracked_kernel(name, field):
    # the product kernel of `ix_slice` stays as the oracle of the Rees-side
    # count
    pairs = PairsIdeal(get_fixture(name, field))
    zeros = {"fail_A": 1, "boolean:3": pairs.n}.get(name, 0)
    assert len(pairs.zero_generator_indices) == zeros
    eng = GradedEngine(pairs)
    for j in range(4):
        for i in range(-1, 5):
            assert eng.ix_dim(i, j) == len(eng.ix_slice(i, j)), (i, j)


@pytest.mark.parametrize("name", ["a3", "seven"])
def test_ix_contains_matches_echelon_route(name):
    # the product map against reduction by an Echelon of the kernel vectors,
    # on the logarithmic rows, the kernel vectors, every key of R_i (x) A_j
    # alone, and each logarithmic row plus one such key
    bench = bench_for(name)
    eng, dm = bench.engine, bench.derivations
    n = bench.pairs.n
    for j in (1, 2):
        for i in range(3):
            kernel = eng.ix_slice(i, j)
            ix = Echelon(eng.field)
            for vec in kernel:
                ix.insert(vec)
            log = list(eng.ilog_slice(dm.c_vectors, i, j).rows.values())
            keys = [
                (m, gamma)
                for m in eng.ring.monomial_basis((i, 0))
                for gamma in _compositions(j, n)
            ]
            units = [{key: 1} for key in keys]
            plus = [{**row, key: row.get(key, 0) + 1} for row in log for key in keys[:3]]
            vectors = log + kernel + units + plus
            got = [eng.ix_contains(vec) for vec in vectors]
            assert got == [ix.contains(vec) for vec in vectors], (i, j)
            assert all(got[: len(log) + len(kernel)]) and not any(got[len(log) + len(kernel) :])


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
def test_ix_contains_accepts_kernel_vectors_and_refuses_perturbed_ones(field):
    # the integerized product map: each kernel vector maps to zero, and one
    # more unit on any key does not, as no pair product is zero; over QQ the
    # products of this realization are integerized with scales 1, 5 and 25
    pairs = PairsIdeal(Realization("frac", field, ExactMatrix(field, FRACTIONAL)))
    assert not pairs.zero_generator_indices
    eng = GradedEngine(pairs)
    tested = 0
    for j in (1, 2):
        for i in range(3):
            for vec in eng.ix_slice(i, j):
                assert eng.ix_contains(vec)
                for key in vec:
                    assert not eng.ix_contains({**vec, key: vec[key] + 1})
                tested += 1
    assert tested


def test_ix_contains_refuses_an_extra_term(a3):
    eng, dm = a3.engine, a3.derivations
    n = a3.pairs.n
    row = next(iter(eng.ilog_slice(dm.c_vectors, 1, 2).rows.values()))
    extra = next(
        (m, gamma)
        for m in eng.ring.monomial_basis((1, 0))
        for gamma in _compositions(2, n)
        if (m, gamma) not in row
    )
    assert eng.ix_contains(row)
    assert not eng.ix_contains({**row, extra: 1})
    # the same at the generators: a derivation vector with one extra term is
    # no syzygy, so its logarithmic slice leaves the relation slice
    cvec = dm.c_vectors[-1]
    d = sum(next(iter(cvec))[1])
    extra = next(
        (k, e)
        for e in eng.ring.monomial_basis((d, 0))
        for k in range(n)
        if (k, e) not in cvec
    )
    for gens, inside in (([cvec], True), ([{**cvec, extra: 1}], False)):
        log = eng.ilog_slice(gens, d, 1)
        assert all(map(eng.ix_contains, log.rows.values())) == inside


@pytest.mark.parametrize("target", ["linear-type", "derivation-param"])
def test_verify_builds_no_ix_kernel(target, monkeypatch):
    calls = []
    ix_slice = GradedEngine.ix_slice

    def counted(self, i, j):
        calls.append((i, j))
        return ix_slice(self, i, j)

    monkeypatch.setattr(GradedEngine, "ix_slice", counted)
    bench = Workbench(get_fixture("a3"), bound=3)
    assert bench.verify(target)["passed"]
    assert calls == []


def test_derivation_param_builds_each_log_slice_once(monkeypatch):
    calls = []
    ilog_slice = GradedEngine.ilog_slice

    def counted(self, gens, i, j):
        calls.append((i, j))
        return ilog_slice(self, gens, i, j)

    monkeypatch.setattr(GradedEngine, "ilog_slice", counted)
    bench = Workbench(get_fixture("a3"))
    assert bench.verify("derivation-param")["passed"]
    assert calls == [(i, 1) for i in range(bench.window)]


def test_linear_type(u12, a3, bracelet):
    ok, records = u12.engine.linear_type_check(4)
    assert ok
    ok3, _ = a3.engine.linear_type_check(3)
    assert ok3
    okb, recs = bracelet.engine.linear_type_check(2)
    assert not okb
    fails = [r for r in recs if not r["equal"]]
    assert {"x": 2, "y": 0, "a": 2, "rees": 123, "sym": 122, "equal": False} in fails
    assert all(r["sym"] <= r["rees"] for r in recs)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize(
    "name,bound",
    [("a3", 3), ("seven", 3), ("bracelet9", 2), ("u:3:5", 3), ("fail_A", 3), ("boolean:3", 3)],
)
def test_bounded_power_pieces_equal_full_growth(name, bound, field):
    # the linear-type check grows the symmetric piece and the piece of I^q of
    # each degree together, and stops both once they fill the domain; a
    # fresh engine grows every piece in full, and the spans must agree
    # (bracelet9 has degrees where the two sides never meet)
    pairs = PairsIdeal(get_fixture(name, field))
    bounded, full = GradedEngine(pairs), GradedEngine(pairs)
    _, records = bounded.linear_type_check(bound)
    assert records
    for q in range(1, bound + 1):
        for total in range(bound + 1):
            for c in range(total + 1):
                d = total - c
                sides = [(e.symmetric_pieces(), e.power_pieces(q)) for e in (bounded, full)]
                for got, want, grade in zip(*sides, [(c, d, q), (c + q, d + q)]):
                    got, want = got.piece(grade), want.piece(grade)
                    assert got.pivot_columns() == want.pivot_columns(), grade


def test_squeezed_linear_type_makes_few_dependent_inserts(monkeypatch):
    # each side grown alone, the symmetric pieces in full and the Rees pieces
    # up to domain - sym, linear_type_check(3) on seven made 6,757 dependent
    # inserts; grown together until they fill the domain, 1,110
    eng = GradedEngine(PairsIdeal(get_fixture("seven")))
    dependent = []
    insert = Echelon.insert
    monkeypatch.setattr(
        Echelon, "insert", lambda self, vec: insert(self, vec) or dependent.append(1) or False
    )
    eng.linear_type_check(3)
    assert len(dependent) <= 2000


def test_bounded_rees_pieces_skip_their_zero_reductions(monkeypatch):
    # growing every candidate, the Rees pieces of I, I^2 and I^3 on seven at
    # bound 3 eliminate 5,019 multiples to zero (4,669 in I^2 and I^3); the
    # lead-new pass and the rank-nullity bound leave 359
    eng = Workbench(get_fixture("seven")).engine
    calls = []
    insert = Echelon.insert
    monkeypatch.setattr(
        Echelon, "insert", lambda self, vec: calls.append((self, grew := insert(self, vec))) or grew
    )
    eng.linear_type_check(3)
    pieces = {id(e) for q in (1, 2, 3) for e in eng.power_pieces(q)._pieces.values()}
    assert sum(1 for ech, grew in calls if id(ech) in pieces and not grew) <= 500


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize(
    "name,bound",
    [("a3", 3), ("seven", 3), ("bracelet9", 2), ("u:3:5", 3), ("fail_A", 3), ("boolean:3", 3)],
)
def test_symmetric_pieces_match_the_relation_slices(name, bound, field):
    # the symmetric ideal comes from the Groebner syzygies of the pair
    # generators; at a-degree 1 it must be the product-kernel relation slice,
    # and above it the span of the a-multiples of the piece below (not the
    # one side `lower_span` picks), since the ideal is generated in a-degree 1
    eng = GradedEngine(PairsIdeal(get_fixture(name, field)))
    sym = eng.symmetric_pieces()
    avars = [((0, 0, 1), 0, t) for t in range(eng.ring.nvars, sym.ring.nvars)]

    def rows(grade):
        return sym.piece(grade).rows.values()

    for total in range(bound + 1):
        for c in range(total + 1):
            d = total - c
            assert sym.dim((c, d, 1)) == len(eng.syzygy_slice(c + 1, d + 1)), (c, d)
            for q in range(2, bound + 1):
                want = grow(field, (c, d, q), avars, rows, sym.columns)
                got = sym.piece((c, d, q))
                assert got.pivot_columns() == want.pivot_columns(), (c, d, q)


def test_symmetric_pieces_bound_their_zero_reductions(monkeypatch):
    # the relation-slice echelons and their x-, y- and a-multiples made
    # 19,643 dependent inserts on seven at bound 3; the one-sided growth of
    # the symmetric ideal from its syzygy generators makes 6,398
    eng = Workbench(get_fixture("seven")).engine
    calls = []
    insert = Echelon.insert
    monkeypatch.setattr(
        Echelon, "insert", lambda self, vec: calls.append((self, grew := insert(self, vec))) or grew
    )
    eng.linear_type_check(3)
    pieces = {id(e) for e in eng.symmetric_pieces()._pieces.values()}
    assert sum(1 for ech, grew in calls if id(ech) in pieces and not grew) <= 8000


def _insert_every_candidate(monkeypatch):
    """Send every `fill` candidate through `Echelon.insert`, none stored as a
    row with no elimination."""
    multiples = spans.multiples
    monkeypatch.setattr(
        spans,
        "multiples",
        lambda *args: ((lead, build, arg, False) for lead, build, arg, _ in multiples(*args)),
    )


def _assert_same_rows(got, want):
    assert got._pieces.keys() == want._pieces.keys()
    for grade, ech in got._pieces.items():
        rows = want._pieces[grade].rows
        assert list(ech.rows) == list(rows), grade
        assert all(list(ech.rows[c].items()) == list(rows[c].items()) for c in rows), grade


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize(
    "name,bound", [("a3", 3), ("seven", 3), ("bracelet9", 2), ("u:3:5", 3), ("fail_A", 3)]
)
def test_stored_multiples_equal_inserted_ones(name, bound, field, monkeypatch):
    # a multiple of an echelon row whose lead is new is stored as it is; the
    # pieces of I, I^2, I^3 and of the symmetric ideal must hold, row for
    # row, what inserting every candidate gives
    direct = GradedEngine(PairsIdeal(get_fixture(name, field)))
    direct.linear_type_check(bound)
    _insert_every_candidate(monkeypatch)
    inserted = GradedEngine(PairsIdeal(get_fixture(name, field)))
    inserted.linear_type_check(bound)
    assert direct.power_pieces(1)._pieces
    for q in range(1, bound + 1):
        _assert_same_rows(direct.power_pieces(q), inserted.power_pieces(q))
    _assert_same_rows(direct.symmetric_pieces(), inserted.symmetric_pieces())


def test_stored_module_multiples_equal_inserted_ones(monkeypatch):
    # the same for the pieces of every level of seven's Schreyer complex, at
    # the grades of its generators
    pairs = PairsIdeal(get_fixture("seven"))
    S = pairs.ring
    cx = pairs.quotient_complex()
    inserts = []
    insert = Echelon.insert
    monkeypatch.setattr(Echelon, "insert", lambda self, vec: inserts.append(1) or insert(self, vec))

    def grown():
        levels = []
        for p, level in enumerate(cx.levels):
            M = ModulePieces(S, cx.level_grades[p - 1] if p else [(0, 0)], level)
            for grade in sorted(cx.level_grades[p], key=lambda g: (sum(g), g)):
                M.piece(grade)
            levels.append(M)
        return levels, len(inserts)

    direct, direct_inserts = grown()
    _insert_every_candidate(monkeypatch)
    inserted, all_inserts = grown()
    for got, want in zip(direct, inserted):
        _assert_same_rows(got, want)
    assert direct_inserts < all_inserts - direct_inserts


def test_linear_type_inserts_only_what_needs_elimination(monkeypatch):
    # with every candidate inserted, linear_type_check(3) on a fresh seven
    # engine made 15,469 Echelon.insert calls; storing the multiples of rows
    # with a new lead as they are leaves 1,557, the same 1,124 dependent
    eng = GradedEngine(PairsIdeal(get_fixture("seven")))
    calls = []
    insert = Echelon.insert
    monkeypatch.setattr(Echelon, "insert", lambda self, vec: calls.append(1) or insert(self, vec))
    eng.linear_type_check(3)
    assert len(calls) <= 8000


def test_linear_type_refuses_a_relation_outside_the_kernel(monkeypatch):
    # the Rees bound needs every generator of the symmetric ideal in the
    # kernel of the product map; a planted non-syzygy a_0, which maps to
    # f_0 g_0, is refused
    eng = GradedEngine(PairsIdeal(get_fixture("a3")))
    zero = (0,) * eng.ring.nvars
    syzygies = graded.module_syzygies
    monkeypatch.setattr(
        graded, "module_syzygies", lambda ctx, inputs: [{(0, zero): 1}] + syzygies(ctx, inputs)
    )
    with pytest.raises(RingError, match="a syzygy of the pair generators is not in the kernel"):
        eng.linear_type_check(1)


def test_linear_type_refuses_more_new_leads_than_the_domain(monkeypatch):
    # with the kernel check of the syzygy generators bypassed, a planted
    # non-syzygy a_1 gives the symmetric and Rees pieces at (0,0;1) 7 new
    # leads where the domain has room for 6: that must raise, never clip
    eng = GradedEngine(PairsIdeal(get_fixture("a3")))
    zero = (0,) * eng.ring.nvars
    syzygies = graded.module_syzygies
    monkeypatch.setattr(
        graded, "module_syzygies", lambda ctx, inputs: [{(1, zero): 1}] + syzygies(ctx, inputs)
    )
    monkeypatch.setattr(GradedEngine, "ix_contains", lambda self, vec: True)
    with pytest.raises(RingError, match="7 leads, past the bound 6"):
        eng.linear_type_check(1)


def test_membership_degreewise(a3):
    eng = a3.engine
    pairs = a3.pairs
    gens = [g for _, g in pairs.nonzero_generators()]
    member = gens[0] * pairs.ring.var(0) + gens[3] * pairs.ring.var(4)
    assert eng.member(member)
    assert not eng.member(pairs.ring.var(0))


# -- one-sided growth of the generated pieces -------------------------------------


def _all_sides(P, grade):
    """The piece at `grade` grown by every variable, over P's lower pieces."""
    ech = grow(P.field, grade, P.variables, lambda g: P.piece(g).rows.values(), P.columns)
    for vec in P.generators(grade):
        ech.insert(vec)
    return ech


def _assert_one_sided_exact(P, window):
    for i in range(window + 1):
        for j in range(window + 1 - i):
            got, want = P.piece((i, j)), _all_sides(P, (i, j))
            assert got.dim == want.dim, (i, j)
            assert got.pivot_columns() == want.pivot_columns(), (i, j)


@pytest.mark.parametrize("fixture", ["a3", "seven", "bracelet"])
def test_one_sided_ideal_pieces_match_all_variable_growth(fixture, request):
    eng = request.getfixturevalue(fixture).engine
    _assert_one_sided_exact(eng.ideal, 6)
    if fixture != "bracelet":
        _assert_one_sided_exact(eng.power_pieces(2), 6)


def test_mixed_generator_degrees_fall_back_to_all_variables():
    # generators in bidegrees (1,0) and (0,2): at (1,2) neither coordinate
    # lies above both, so no side may be left out
    sympy = pytest.importorskip("sympy")
    S = pair_ring(QQ, 3, 2)
    terms = [
        {(1, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0): 2, (0, 0, 1, 0, 0): -1},
        {(0, 0, 0, 2, 0): 1, (0, 0, 0, 1, 1): -1},
        {(0, 0, 0, 0, 2): 1, (0, 0, 0, 1, 1): 3},
    ]
    P = IdealPieces(S, [S.from_terms((e, QQ.of(c)) for e, c in g.items()) for g in terms])
    _assert_one_sided_exact(P, 5)
    xs = sympy.symbols(S.names)
    exprs = [sum(c * sympy.prod(v**k for v, k in zip(xs, e)) for e, c in g.items()) for g in terms]
    basis = sympy.groebner(exprs, *xs, order="grevlex")
    leads = [g.monoms(order="grevlex")[0] for g in basis.polys]
    for i in range(6):
        for j in range(6 - i):
            mons = S.monomial_basis((i, j))
            standard = sum(not any(all(map(ge, m, lead)) for lead in leads) for m in mons)
            assert P.dim((i, j)) == len(mons) - standard, (i, j)

    M = ModulePieces(
        S,
        [(0, 0), (0, 0)],
        [
            {(0, (1, 0, 0, 0, 0)): 1, (1, (0, 1, 0, 0, 0)): -1},
            {(0, (0, 0, 1, 0, 0)): 1},
            {(1, (0, 0, 0, 2, 0)): 1, (0, (0, 0, 0, 1, 1)): 2},
        ],
    )
    _assert_one_sided_exact(M, 5)
    # and there each side alone spans less
    for pieces in (P, M):
        whole = pieces.lower_span((1, 2)).dim
        for side in (0, 1):
            one = [v for v in pieces.variables if v[0][side]]
            lower = lambda g: pieces.piece(g).rows.values()
            assert grow(S.field, (1, 2), one, lower, pieces.columns).dim < whole


def test_hilbert_inserts_stay_one_sided(monkeypatch):
    # growing the seven pieces by all variables makes 19,719 inserts
    eng = Workbench(get_fixture("seven")).engine
    calls = []
    insert = Echelon.insert
    monkeypatch.setattr(Echelon, "insert", lambda self, vec: calls.append(1) or insert(self, vec))
    eng.hilbert(8)
    assert len(calls) <= 10_735
