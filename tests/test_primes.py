from pathlib import Path

import pytest

from pairideal import groebner, primes, resolution
from pairideal.cli import main
from pairideal.fixtures import get_fixture
from pairideal.groebner import (
    GroebnerError,
    Ideal,
    ModuleContext,
    buchberger,
    interreduce,
    is_associated,
    prime_containing,
    reduced_basis,
)
from pairideal.linalg import ExactMatrix
from pairideal.matroid import ColoopError, Realization, biflats
from pairideal.pairs import PairsIdeal
from pairideal.primes import (
    LinearPrime,
    PointError,
    associated_primes,
    echelon_forms,
    minimal_primes,
    module_prime_is_associated,
    point_on,
    ranks_rule_out,
    slice_associated_primes,
    uniform_checks,
    verify_min_primes,
)
from pairideal.resolution import schreyer_resolution
from pairideal.ring import pair_ring
from pairideal.scalars import QQ, PrimeField
from pairideal.spans import Echelon, axpy


def prime_sets(primes):
    return [(tuple(p.labels()["I"]), tuple(p.labels()["J"]), p.tag) for p in primes]


def test_minimal_primes_uniform(u24, u35):
    for bench, n in ((u24, 4), (u35, 5)):
        mins = minimal_primes(bench.pairs)
        full = tuple(range(1, n + 1))
        assert prime_sets(mins) == [((), full, "minimal"), (full, (), "minimal")]


def test_minimal_primes_a3(a3):
    mins = minimal_primes(a3.pairs)
    assert len(mins) == 6
    flats = [tuple(p.labels()["I"]) for p in mins]
    assert () in flats and tuple(range(1, 7)) in flats
    assert sum(1 for f in flats if len(f) == 3) == 4


def test_minimal_primes_boolean(boolean3):
    mins = minimal_primes(boolean3.pairs)
    assert len(mins) == 1
    lbl = mins[0].labels()
    assert lbl["I"] == [] and lbl["codim"] == 0  # the zero ideal


def test_codimension_formula(a3, seven):
    for bench in (a3, seven):
        for p in minimal_primes(bench.pairs):
            M = bench.pairs.matroid
            n, r = bench.pairs.n, bench.pairs.r
            rk = M.rank_of(p.I)
            assert p.codim == 2 * rk - len(p.I) + n - r


def test_verify_min_primes(u12, a3, seven):
    for bench in (u12, a3, seven):
        cert = bench.verify("min-primes")
        assert cert["passed"]
        assert cert["certificate"]["verified"]


def test_verify_min_primes_by_saturation_alone(monkeypatch, a3, seven, bracelet):
    # every fixture meets a power k <= 8 in the ideal, so the saturation
    # fallback is forced here: each record must then be a radical one
    monkeypatch.setattr(primes, "_power_membership", lambda ideal, h: None)
    for bench in (a3, seven, bracelet):
        cert = verify_min_primes(bench.pairs)
        assert cert["verified"]
        records = cert["radical_memberships"]
        assert records
        assert all(set(r) == {"element", "radical_membership"} for r in records)
        assert {r["radical_membership"] for r in records} == {"saturation certificate"}


def test_radical_member_needs_a_ninth_power():
    S = pair_ring(QQ, 1, 1)
    x, y = S.var(0), S.var(1)
    I = Ideal(S, [x**9])
    assert primes._power_membership(I, x) is None
    assert I.radical_member(x)
    assert not I.radical_member(y)


def test_associated_primes_uniform(u24, u35):
    for bench, n in ((u24, 4), (u35, 5)):
        full = tuple(range(1, n + 1))
        ass = prime_sets(associated_primes(bench.pairs))
        assert ass == [
            ((), full, "minimal"),
            (full, (), "minimal"),
            (full, full, "embedded"),
        ]


def test_associated_primes_seven(seven):
    ass = associated_primes(seven.pairs)
    embedded = [p for p in ass if p.tag == "embedded"]
    full = tuple(range(1, 8))
    assert prime_sets(embedded) == [
        ((1, 2, 4, 6), full, "embedded"),
        ((1, 3, 5, 7), full, "embedded"),
        (full, full, "embedded"),
    ]
    minimal = [p for p in ass if p.tag == "minimal"]
    assert len(minimal) == 4
    # minimal primes from combinatorics = inclusion-minimal associated primes
    combinatorial = {(p.I, p.J) for p in minimal_primes(seven.pairs)}
    by_inclusion = {
        (p.I, p.J)
        for p in ass
        if not any(
            (q.I < p.I or (q.I <= p.I and q.J < p.J)) and (q.I <= p.I and q.J <= p.J)
            for q in ass
            if q is not p
        )
    }
    assert combinatorial == by_inclusion


def test_slice_primes_uniform(u24, u35):
    for bench, n in ((u24, 4), (u35, 5)):
        out = slice_associated_primes(bench.pairs)
        assert [(d["flat"], d["tag"]) for d in out] == [
            (list(range(1, n + 1)), "minimal")
        ]
        assert out[0]["is_maximal_ideal"]


def test_slice_primes_seven(seven):
    sx = slice_associated_primes(seven.pairs)
    assert [(d["flat"], d["tag"]) for d in sx] == [
        ([1, 2, 4, 6], "minimal"),
        ([1, 3, 5, 7], "minimal"),
    ]
    sy = slice_associated_primes(seven.pairs.swap_roles())
    assert ([d["flat"] for d in sy if d["tag"] == "embedded"]) == [[1, 2, 3, 4, 5, 6, 7]]
    assert [d for d in sy if d["tag"] == "embedded"][0]["is_maximal_ideal"]


def test_slice_primes_a3_minimal_part(a3):
    out = slice_associated_primes(a3.pairs)
    minimal = [d["flat"] for d in out if d["tag"] == "minimal"]
    assert minimal == [[1, 2, 4], [1, 3, 5], [2, 3, 6], [4, 5, 6]]


def test_slice_refuses_coloops(fail_a):
    with pytest.raises(ColoopError):
        slice_associated_primes(fail_a.pairs)


def test_slice_consistency_with_quotient(seven, u24):
    # slice associated primes restrict associated primes of the quotient
    for bench, side, part in (
        (seven, seven.pairs, "I"),
        (seven, seven.pairs.swap_roles(), "J"),
        (u24, u24.pairs, "I"),
    ):
        ass = associated_primes(bench.pairs)
        parts = {tuple(p.labels()[part]) for p in ass}
        for d in slice_associated_primes(side):
            assert tuple(d["flat"]) in parts


def test_uniform_checks(u24, u35, a3):
    for bench in (u24, u35):
        rep = uniform_checks(bench.engine)
        assert rep["uniform"]
        assert rep["failures"] == []
        assert rep["basis_product_failures"] == []
    rep = uniform_checks(a3.engine)
    assert not rep["uniform"]
    assert rep["basis_product_failures"] == []


def test_linear_prime_codim_cross_check(a3):
    pairs = a3.pairs
    full = frozenset(range(6))
    p = LinearPrime(pairs, frozenset({0, 1, 3}), full - frozenset({0, 1, 3}))
    assert p.codim == 4
    assert len(p.forms) == 4


def _realization(name):
    """A fixture, or the block-diagonal sum of fixtures for `a+b`."""
    if "+" not in name:
        return get_fixture(name)
    blocks = [get_fixture(part).matrix.entries for part in name.split("+")]
    width = sum(len(block[0]) for block in blocks)
    rows, offset = [], 0
    for block in blocks:
        for row in block:
            out = [QQ.zero] * width
            out[offset : offset + len(row)] = row
            rows.append(out)
        offset += len(block[0])
    return Realization(name, QQ, ExactMatrix(QQ, rows))


def colon_oracle(pairs):
    """Keys of the biflats that the colon test finds associated, none pruned."""
    ideal = pairs.ideal_object()
    cands = [LinearPrime(pairs, F, G) for F, G in biflats(pairs.matroid)]
    return sorted(p.key() for p in cands if is_associated(ideal, p.forms)[0])


def slice_colon_oracle(side):
    """Labels of the slice flats that the module colon test finds associated."""
    ring, m, cols, _ = side.slice_columns()
    ctx = ModuleContext(ring)
    basis = interreduce(ctx, buchberger(ctx, cols, track=False)[0])
    M = side.matroid
    minimal_cyc = M.minimal_nonempty_cyclic_flats()
    return sorted(
        side.original_labels(F)
        for F in M.flats()
        if any(C <= F for C in minimal_cyc)
        and module_prime_is_associated(
            ctx, basis, m, echelon_forms(ring, [side.f[i] for i in sorted(F)])
        )
    )


# colon tests made by the pruned scan, out of all biflat candidates
PRUNED_COLONS = {"a3": (6, 33), "a3+u:2:3": (12, 198)}


def _counted_scan(pairs, monkeypatch):
    """(associated primes, candidates reported, colon tests made)."""
    colons = 0

    def counting(ideal, forms):
        nonlocal colons
        colons += 1
        return is_associated(ideal, forms)

    seen = []
    with monkeypatch.context() as patch:
        patch.setattr("pairideal.primes.is_associated", counting)
        ass = associated_primes(pairs, progress=lambda cand, verdict: seen.append(cand))
    return ass, seen, colons


def _check_slices(pairs):
    if not pairs.coloops:
        for side in (pairs, pairs.swap_roles()):
            got = sorted(d["flat"] for d in slice_associated_primes(side))
            assert got == slice_colon_oracle(side)


@pytest.mark.parametrize(
    "name", ["a3", "fail_A", "fail_PA", "u:2:4", "u:3:5", "seven", "a3+u:2:3"]
)
def test_pruned_scan_equals_colon_oracle(name, monkeypatch):
    pairs = PairsIdeal(_realization(name))
    ass, seen, colons = _counted_scan(pairs, monkeypatch)
    assert sorted(p.key() for p in ass) == colon_oracle(pairs)
    # every candidate is reported, and the point decides every one that is
    # not associated, so only the associated ones get a colon
    assert len(seen) == len(list(biflats(pairs.matroid)))
    assert colons == len(ass)
    if name in PRUNED_COLONS:
        assert (colons, len(seen)) == PRUNED_COLONS[name]
    _check_slices(pairs)


def test_origin_point_falls_back_to_colons(monkeypatch, capsys):
    # at the origin the ranks decide only what codim > pdim decides
    monkeypatch.setattr(
        "pairideal.primes.point_on", lambda ring, forms: [ring.field.zero] * ring.nvars
    )
    pairs = PairsIdeal(_realization("a3"))
    ass, seen, colons = _counted_scan(pairs, monkeypatch)
    assert sorted(p.key() for p in ass) == colon_oracle(pairs)
    pdim = max(p for p, _ in pairs.quotient_betti())
    assert colons == sum(1 for cand in seen if cand.codim <= pdim) == 18
    _check_slices(pairs)
    assert main(["primes", "a3", "--slices", "--json"]) == 0
    golden = Path(__file__).parent / "golden" / "primes_a3_slices.json"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_point_off_the_prime_is_refused(a3, monkeypatch):
    pairs = a3.pairs
    cand = LinearPrime(pairs, frozenset({0, 1, 3}), frozenset(range(6)) - {0, 1, 3})
    res = pairs.quotient_complex()
    assert point_on(pairs.ring, cand.forms)[2] == 2 + 2  # a free coordinate
    ranks_rule_out(res, cand.codim, cand.forms)  # the scan's own point passes
    one = pairs.ring.field.one
    monkeypatch.setattr("pairideal.primes.point_on", lambda ring, forms: [one] * ring.nvars)
    with pytest.raises(PointError):
        ranks_rule_out(res, cand.codim, cand.forms)


def _slice_complex(pairs):
    """The Schreyer complex of the (.,1) slice, from the reduced basis of N."""
    ring, m, cols, _ = pairs.slice_columns()
    ctx = ModuleContext(ring)
    return schreyer_resolution(ctx, reduced_basis(ctx, cols), [(0,) * ring.ngrades] * m)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)])
def test_rank_at_matches_field_evaluation(field):
    # a rational point off every variety, evaluated entry by entry with field
    # operations, on the slice presentation and on S/I
    rows = [[field.of(v) for v in row] for row in get_fixture("a3").matrix.entries]
    pairs = PairsIdeal(Realization("a3", field, ExactMatrix(field, rows)))
    for res in (_slice_complex(pairs), pairs.quotient_complex()):
        F = res.ring.field
        point = [F.div(F.of(i + 3), F.of(2 * i + 5)) for i in range(res.ring.nvars)]
        for p in range(1, len(res.levels) + 1):
            ech = Echelon(F)
            for raw in res.levels[p - 1]:
                col = [F.zero] * res.free_rank(p - 1)
                for (pos, e), c in raw.items():
                    v = c
                    for x, k in zip(point, e):
                        for _ in range(k):
                            v = F.mul(v, x)
                    col[pos] = F.add(col[pos], v)
                ech.insert(dict(enumerate(col)))
            full = ech.dim
            assert res.rank_at(p, point) == full > 0
            # a bound on the rank stops the columns once it is met
            for bound in range(full + 2):
                assert res.rank_at(p, point, bound) == min(bound, full)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("name", ["a3", "seven", "fail_A", "bracelet9", "u:3:5"])
def test_containment_by_factors_agrees_with_prime_containing(name, field):
    pairs = PairsIdeal(get_fixture(name, field=field))
    ideal = pairs.ideal_object()
    planted = 0
    for F, G in biflats(pairs.matroid):
        cand = LinearPrime(pairs, F, G)
        cand.check_contains_ideal()
        assert prime_containing(ideal, cand.forms) is not None
        # keep only G inside F: the f_j with j outside F are not in the span,
        # and with F empty the planted prime is zero
        short = LinearPrime(pairs, F, G & F)
        verdicts = []
        for check in (short.check_contains_ideal, lambda: prime_containing(ideal, short.forms)):
            try:
                check()
                verdicts.append(True)
            except GroebnerError:
                verdicts.append(False)
        assert verdicts[0] == verdicts[1], (F, G)
        planted += not verdicts[0]
    assert planted


@pytest.mark.parametrize("name", ["a3", "seven"])
def test_linear_prime_forms_are_the_echelon_forms(name):
    # the forms are read off the prime's own span
    pairs = PairsIdeal(get_fixture(name))
    for F, G in biflats(pairs.matroid):
        forms = [pairs.f[i] for i in sorted(F)] + [pairs.g[j] for j in sorted(G)]
        assert LinearPrime(pairs, F, G).forms == echelon_forms(pairs.ring, forms)


def _rank_by_evaluation(res, p, point):
    """rank of d_p at the point, each entry a Poly put through `Poly.evaluate`
    (the field scalars go into an `Echelon`, as they are)."""
    ring = res.ring
    ech = Echelon(ring.field)
    for raw in res.levels[p - 1]:
        entries = {}
        for (pos, e), c in raw.items():
            entries.setdefault(pos, []).append((e, ring.field.of(c)))
        ech.insert({pos: ring.from_terms(terms).evaluate(point) for pos, terms in entries.items()})
    return ech.dim


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("name", ["a3", "seven"])
def test_rank_at_equals_term_by_term_evaluation(name, field):
    # the ranks the rank test reads, d_c and d_(c+1) at a point of V(P) for
    # P of codimension c: the biflat primes on the complex of S/I, the flat
    # primes on the complex of the (.,1) slice
    pairs = PairsIdeal(get_fixture(name, field=field))
    ring = pairs.slice_columns()[0]
    slices = _slice_complex(pairs)
    quotient = pairs.quotient_complex()
    cases = [(quotient, LinearPrime(pairs, F, G).forms) for F, G in biflats(pairs.matroid)]
    cases += [
        (slices, echelon_forms(ring, [pairs.f[i] for i in sorted(F)]))
        for F in pairs.matroid.flats()
    ]
    ranks = 0
    for res, forms in cases:
        point = point_on(res.ring, forms)
        for p in (len(forms), len(forms) + 1):
            if 1 <= p <= len(res.levels):
                assert res.rank_at(p, point) == _rank_by_evaluation(res, p, point), (forms, p)
                ranks += 1
    assert ranks


def test_primes_seven_slices_tracked_entries(monkeypatch, capsys):
    # the copies of N's basis in a colon run enter untracked, so tracked
    # combinations carry only the coordinates the colon reads: 5,844 entries
    # pass through `axpy` (21,989 when every input was tracked)
    entries = 0

    def counted(dst, items, beta, p):
        nonlocal entries
        items = list(items)
        entries += len(items)
        axpy(dst, items, beta, p)

    monkeypatch.setattr(groebner, "axpy", counted)
    assert main(["primes", "seven", "--slices"]) == 0
    capsys.readouterr()
    assert 0 < entries <= 6_430


def test_primes_seven_slices_buchberger_runs(monkeypatch, capsys):
    # ideals of linear forms get their bases by linear algebra, and each
    # module gets one reduced basis, shared by its Schreyer complex and its
    # colon tests: one untracked run for S/I and one per slice side
    runs = untracked = 0

    def counted(*args, track=False, **kw):
        nonlocal runs, untracked
        runs += 1
        untracked += not track
        return buchberger(*args, track=track, **kw)

    for module in (groebner, resolution):
        monkeypatch.setattr(module, "buchberger", counted)
    assert main(["primes", "seven", "--slices"]) == 0
    capsys.readouterr()
    assert 0 < runs <= 60
    assert untracked == 3
