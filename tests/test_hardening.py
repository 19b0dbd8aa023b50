"""Stress the paths the integer-friendly fixtures never reach: fractional
pinned bases, prime-field engines, and syzygy completeness against a
degreewise kernel oracle."""

import random
from fractions import Fraction
from math import comb
from pathlib import Path

from pairideal.graded import GradedEngine, theta_from_syzygy
from pairideal.groebner import Ideal, ModuleContext, module_syzygies
from pairideal.io import InputSpec
from pairideal.linalg import ExactMatrix
from pairideal.matroid import Realization
from pairideal.pairs import PairsIdeal
from pairideal.primes import (
    _power_membership,
    associated_primes,
    minimal_primes,
    verify_min_primes,
)
from pairideal.ring import x_ring
from pairideal.scalars import QQ, PrimeField
from pairideal.spans import Echelon, kernel_of_stacked_vectors
from pairideal.derivations import DerivationModule
from pairideal.workbench import Workbench


FRACTIONAL = [[2, 1, 3, 1], [1, 3, 1, 0], [0, 5, 0, 7]]  # pinned basis has fractions


def test_fractional_realization_full_stack():
    bench = Workbench(Realization("frac", QQ, ExactMatrix(QQ, FRACTIONAL)))
    pairs = bench.pairs
    assert any(
        Fraction(c).denominator > 1 for f in pairs.f for c in f.terms.values()
    )
    assert pairs.euler_relation_holds()
    eng = bench.engine
    assert eng.derivation_slice_dim(1) == pairs.kappa
    for c in eng.derivation_slice(2):
        theta_from_syzygy(pairs, c)  # exact identity with fractional forms
    dm = bench.derivations
    assert dm.pdim >= 0
    for i in range(0, 3):
        assert eng.ix_dim(i, 1) == eng.ilog_slice(dm.c_vectors, i, 1).dim
        assert eng.ix_dim(i, 1) == eng.derivation_slice_dim(i + 1)
    k = bench.koszul_betti(target="quotient")
    r = bench.resolution_betti(target="quotient")
    assert k.entries == r.entries
    assert verify_min_primes(pairs)["verified"]
    ass = associated_primes(pairs)
    mins = minimal_primes(pairs)
    assert {(p.I, p.J) for p in mins} <= {(p.I, p.J) for p in ass}


def test_prime_field_full_stack():
    F = PrimeField(101)
    rows = [[1, 1, 1, 0, 0, 0], [100, 0, 0, 1, 1, 0], [0, 100, 0, 100, 0, 1], [0, 0, 100, 0, 100, 100]]
    bench = Workbench(Realization("a3-fp", F, ExactMatrix(F, rows)))
    k = bench.koszul_betti(target="ideal")
    r = bench.resolution_betti(target="ideal")
    assert k.entries == r.entries
    # same table as over the rationals at this characteristic
    from conftest import bench_for

    assert k.entries == bench_for("a3").koszul_betti(target="ideal").entries
    dm = bench.derivations
    assert dm.free and dm.generator_degrees == [0, 1, 2]
    ass = associated_primes(bench.pairs)
    assert len(ass) == 6 and all(p.tag == "minimal" for p in ass)
    assert verify_min_primes(bench.pairs)["verified"]


def _random_columns(rng, ring, rank, count, degree):
    monos = ring.monomial_basis((degree,))
    cols = []
    for _ in range(count):
        raw = {}
        for pos in range(rank):
            for m in monos:
                if rng.random() < 0.4:
                    raw[(pos, m)] = rng.randint(-2, 2)
        cols.append({k: v for k, v in raw.items() if v})
    return cols


def test_syzygy_completeness_against_kernel_oracle():
    """Tracked-run syzygies span the full kernel, degree by degree."""
    rng = random.Random(2718)
    R = x_ring(QQ, 3)
    for trial in range(6):
        cols = _random_columns(rng, R, rank=2, count=4, degree=1)
        if not any(cols):
            continue
        ctx = ModuleContext(R)
        syz = module_syzygies(ctx, cols)
        # validity
        for s in syz:
            acc = {}
            for (idx, e), v in s.items():
                for (pos, e2), v2 in cols[idx].items():
                    key = (pos, tuple(a + b for a, b in zip(e, e2)))
                    acc[key] = acc.get(key, 0) + v * v2
            assert all(v == 0 for v in acc.values())
        # completeness: span of syzygy generators matches the kernel dims
        for d in range(0, 4):
            monos = R.monomial_basis((d,))
            # the kernel's columns are ints: one index per (pos, monomial)
            index, vectors = {}, []
            for col in cols:
                for m in monos:
                    vec = {}
                    for (pos, e), v in col.items():
                        key = (pos, tuple(a + b for a, b in zip(e, m)))
                        vec[index.setdefault(key, len(index))] = v
                    vectors.append(vec)
            expected = len(kernel_of_stacked_vectors(QQ, vectors))
            span = Echelon(QQ)
            got = 0
            for s in syz:
                sd = max((sum(e) for (_i, e) in s), default=0)
                for m in R.monomial_basis((d - sd,)) if d >= sd else []:
                    vec = {}
                    for (idx, e), v in s.items():
                        vec[(idx, tuple(a + b for a, b in zip(e, m)))] = v
                    if span.insert(vec):
                        got += 1
            assert got == expected, (trial, d)


def _cyclic_labels(pairs):
    return sorted(pairs.original_labels(F) for F in pairs.matroid.cyclic_flats())


def test_swap_roles_involution(a3, u24):
    # seven with a zero column at position 2: labels pass through the
    # dropped loop and both swaps
    seven_loop = InputSpec.from_file(Path(__file__).parent / "golden" / "seven_loop.json")
    for pairs in (a3.pairs, u24.pairs, PairsIdeal(seven_loop.realization(), drop_loops=True)):
        double = pairs.swap_roles().swap_roles()
        assert pairs.matroid.rank_function_equal(double.matroid)
        assert _cyclic_labels(double) == _cyclic_labels(pairs)
        full = set(pairs.labels)
        assert _cyclic_labels(pairs.swap_roles()) == sorted(
            sorted(full - set(F)) for F in _cyclic_labels(pairs)
        )


def test_koszul_cap_marks_window(seven):
    eng = GradedEngine(seven.pairs)
    table = eng.koszul_betti(window=3, hard_cap=3)
    assert not table.certified_window
    full = seven.resolution_betti(target="quotient")
    in_window = {k: v for k, v in full.entries.items() if k[1][0] + k[1][1] <= 3}
    assert dict(table.entries) == in_window


def test_schreyer_betti_fractional_inputs():
    # exact complexes over a ring where the pinned generators carry fractions
    pairs = PairsIdeal(Realization("frac", QQ, ExactMatrix(QQ, FRACTIONAL)))
    ent = pairs.quotient_complex().minimal_betti()
    assert ent[(0, (0, 0))] == 1
    assert sum(v for (p, _), v in ent.items() if p == 1) == len(
        pairs.nonzero_generators()
    ) - pairs.kappa


def test_quotient_pdim_dominates_cyclic_flat_bound(a3, seven, bracelet, u24, u35, u12, fail_a):
    from pairideal.derivations import pdim_bounds

    for bench in (a3, seven, bracelet, u24, u35, u12, fail_a):
        bound = pdim_bounds(bench.pairs)["cyclic_flat_bound"]
        quotient = bench.resolution_betti(target="quotient")
        ideal = bench.resolution_betti(target="ideal")
        assert quotient.max_p() >= bound
        assert quotient.max_p() == ideal.max_p() + 1


def test_ideal_operations_prime_field():
    F = PrimeField(13)
    from pairideal.ring import pair_ring

    S = pair_ring(F, 1, 1)
    x, y = S.var(0), S.var(1)
    I = Ideal(S, [x * y])
    assert [str(g) for g in I.colon_ideal(Ideal(S, [x])).groebner()] == ["y1"]
    assert I.radical_member(x * y * S.one().scale(5))
    assert not I.radical_member(x + y)
    assert I.quotient_dimension() == 1
    # a needed power of 9, past the power bound of the min-prime certificate
    I9 = Ideal(S, [x**9])
    assert _power_membership(I9, x) is None
    assert I9.radical_member(x)
    assert not I9.radical_member(y)


def test_package_exports_resolve():
    import pairideal

    missing = [name for name in pairideal.__all__ if not hasattr(pairideal, name)]
    assert not missing
