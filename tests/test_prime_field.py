"""The workbench over a prime field: same structure, flagged reports."""

from fractions import Fraction

from pairideal.fixtures import vandermonde_matrix
from pairideal.linalg import ExactMatrix
from pairideal.matroid import Realization
from pairideal.scalars import PrimeField
from pairideal.workbench import Workbench


def bench_fp(p=101):
    F = PrimeField(p)
    rows = [[int(Fraction(x)) % p for x in row] for row in vandermonde_matrix(2, 4)]
    return Workbench(Realization("u24-fp", F, ExactMatrix(F, rows)))


def test_uniform_over_prime_field():
    bench = bench_fp()
    assert bench.pairs.matroid.is_uniform()
    assert bench.pairs.kappa == 1
    assert bench.pairs.char_warning
    assert bench.summary()["char_warning"]


def test_graded_and_groebner_over_prime_field():
    bench = bench_fp()
    eng = bench.engine
    assert eng.ideal_dim((1, 1)) == 3
    table = bench.koszul_betti(target="ideal")
    res = bench.resolution_betti(target="ideal")
    assert table.entries == res.entries
    I = bench.pairs.ideal_object()
    pairs = bench.pairs
    assert I.member(pairs.generators[0] * pairs.ring.var(0))
    assert not I.member(pairs.f[0])


def test_derivations_over_prime_field():
    bench = bench_fp()
    dm = bench.derivations
    assert dm.generator_degrees == bench_rational_degrees()
    rep = bench.derivation_report()
    assert rep["char_warning"]


def bench_rational_degrees():
    from conftest import bench_for

    return bench_for("u:2:4").derivations.generator_degrees


def test_verify_targets_over_prime_field():
    bench = bench_fp()
    for target in ("syzygy-slices", "derivation-param", "min-primes", "uniform-products"):
        assert bench.verify(target)["passed"]
