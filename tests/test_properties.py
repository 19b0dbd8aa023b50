"""Properties of the ideal of pairs on random small integer realizations.

Loopless, coloopless realizations of rank 2 or 3 on at most five elements:
the Koszul and Schreyer routes give one Betti table, swapping the roles of
the realization and its dual transposes it, no biflat of codimension above
pdim S/I passes the colon test (the Auslander-Buchsbaum pruning of the
associated-prime scan), and the syzygy-slice, slice-min-primes,
tor-of-der and min-primes targets verify.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from pairideal.groebner import is_associated
from pairideal.linalg import ExactMatrix
from pairideal.matroid import Realization, biflats
from pairideal.primes import LinearPrime
from pairideal.scalars import QQ
from pairideal.workbench import Workbench


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
    koszul = bench.koszul_betti(target="quotient").entries
    resolution = bench.resolution_betti(target="quotient")
    assert koszul == resolution.entries
    swapped = bench.swap_engine().koszul_betti(target="quotient").entries
    assert swapped == {(p, (j, i)): v for (p, (i, j)), v in koszul.items()}
    pdim = resolution.max_p()
    for F, G in biflats(bench.pairs.matroid):
        cand = LinearPrime(bench.pairs, F, G)
        if cand.codim > pdim:
            assert not is_associated(bench.ideal(), cand.forms)[0], cand
    for target in ("syzygy-slices", "slice-min-primes", "tor-of-der", "min-primes"):
        result = bench.verify(target)
        assert result["passed"], (target, result.get("first_violation"))
