"""Properties of the ideal of pairs on random small integer realizations.

Loopless, coloopless realizations of rank 2 or 3 on at most five elements:
over QQ and over GF(32003), the Koszul and Schreyer routes give one Betti
table, swapping the roles of the realization and its dual transposes it,
and no biflat that the ranks of the Schreyer complex at a point of V(P)
rule out passes the colon test; over both fields the targets that read
product kernels (syzygy-slices, derivation-param, parameterization-points)
verify, and over QQ the slice-min-primes, tor-of-der and min-primes
targets.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from pairideal.groebner import is_associated
from pairideal.linalg import ExactMatrix
from pairideal.matroid import Realization, biflats
from pairideal.primes import LinearPrime, ranks_rule_out
from pairideal.scalars import QQ, PrimeField
from pairideal.workbench import Workbench

GF = PrimeField(32003)


@st.composite
def realizations(draw):
    r = draw(st.integers(2, 3))
    n = draw(st.integers(r + 1, 5))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    real = Realization("random", QQ, ExactMatrix(QQ, draw(st.lists(row, min_size=r, max_size=r))))
    assume(real.rank == r)
    # PairsIdeal rejects loops, and the dual of a coloop is a loop
    matroid = real.matroid()
    assume(not matroid.loops and not matroid.coloops)
    return real


@given(realizations())
@settings(max_examples=15, derandomize=True, deadline=None)
def test_random_realization_tables(real):
    bench = Workbench(real)
    gfp = [[GF.of(v) for v in row] for row in real.matrix.entries]
    gf_bench = Workbench(Realization("random", GF, ExactMatrix(GF, gfp)))
    for b in (bench, gf_bench):
        koszul = b.koszul_betti(target="quotient").entries
        assert koszul == b.resolution_betti(target="quotient").entries
        swapped = b.swap_engine().koszul_betti(target="quotient").entries
        assert swapped == {(p, (j, i)): v for (p, (i, j)), v in koszul.items()}
    for pairs in (bench.pairs, gf_bench.pairs):
        ideal = pairs.ideal_object()
        res = pairs.quotient_complex()
        for F, G in biflats(pairs.matroid):
            cand = LinearPrime(pairs, F, G)
            if ranks_rule_out(res, cand.codim, cand.forms):
                assert not is_associated(ideal, cand.forms)[0], cand
    # the targets that read product kernels, over both fields
    for b in (bench, gf_bench):
        for target in ("syzygy-slices", "derivation-param", "parameterization-points"):
            result = b.verify(target)
            assert result["passed"], (b.pairs.field, target, result.get("first_violation"))
    for target in ("slice-min-primes", "tor-of-der", "min-primes"):
        result = bench.verify(target)
        assert result["passed"], (target, result.get("first_violation"))
    result = Workbench(real, bound=2).verify("linear-type")
    assert result["passed"], result.get("first_violation")
