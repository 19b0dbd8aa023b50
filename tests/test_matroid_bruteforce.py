"""Exhaustive-oracle equivalence on every subset, for small ground sets, and
closed forms of the n = 12 fixtures."""

from itertools import combinations
from math import comb

import pytest

from pairideal.fixtures import get_fixture
from pairideal.matroid import Matroid, MatroidError, Realization
from pairideal.linalg import ExactMatrix
from pairideal.scalars import QQ, PrimeField

from test_matroid import brute_structures


# name -> (rows, p): a shipped fixture when rows is None, else rows over
# QQ (p == 0) or GF(p)
CASES = {
    "u:2:4": (None, 0),
    "fail_A": (None, 0),
    "a3": (None, 0),
    "rank2-parallel": ([[1, 2, 2, 0, 1], [0, 0, 0, 1, 1]], 0),
    # column 0 a loop, columns 1 and 2 a parallel pair, column 5 a coloop
    "loop-parallel-coloop": ([[0, 1, 2, 0, 1, 0], [0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 0, 1]], 0),
    # mod 32003 the pairs {2, 3} and {0, 4} are parallel; over QQ the
    # same integers realize u:2:5
    "gf32003-parallel": ([[1, 0, 1, 1, 32005], [0, 1, 1, 32004, 64006]], 32003),
}


def _realization(name):
    rows, p = CASES[name]
    if rows is None:
        re = get_fixture(name)
        return re, [[int(x) for x in row] for row in re.matrix.entries], p
    field = PrimeField(p) if p else QQ
    return Realization(name, field, ExactMatrix(field, rows)), rows, p


def _brute_components(n, circuits):
    """Classes of the relation 'some circuit holds both', closed transitively."""
    blocks = [{e} for e in range(n)]
    for c in circuits:
        joined = [b for b in blocks if b & c]
        blocks = [b for b in blocks if not b & c] + [set().union(*joined)]
    return sorted((frozenset(b) for b in blocks), key=sorted)


@pytest.mark.parametrize("name", sorted(CASES))
def test_structures_match_brute_force(name):
    re, rows, p = _realization(name)
    M = re.matroid()
    n, full = re.n, frozenset(range(re.n))
    ranks, circuits, flats, cyclic = brute_structures(rows, p)
    r = ranks[full]
    for s, rank in ranks.items():
        assert M.rank_of(s) == rank
    assert M.rank == r
    assert M.circuits() == circuits
    assert set(M.flats()) == flats
    assert M.cyclic_flats() == cyclic
    assert M.loops == {e for e in range(n) if ranks[frozenset({e})] == 0}
    assert M.coloops == {e for e in range(n) if ranks[full - {e}] < r}
    assert M.components() == _brute_components(n, circuits)
    assert M.is_uniform() == all(x == min(len(s), r) for s, x in ranks.items())
    # G is a dual flat iff E - G is a union of circuits
    unions = {frozenset()}
    for c in circuits:
        unions |= {u | c for u in unions}
    assert set(M.dual().flats()) == {full - u for u in unions}


def test_the_oracle_sees_the_field():
    _, rows, p = _realization("gf32003-parallel")
    ranks, circuits, _, _ = brute_structures(rows, p)
    assert frozenset({2, 3}) in circuits and frozenset({0, 4}) in circuits
    assert brute_structures(rows)[1] == [frozenset(c) for c in combinations(range(5), 3)]


def test_uniform_6_12_closed_form():
    M = get_fixture("u:6:12").matroid()
    # the flats are the subsets of size at most 5, and the whole set
    assert len(M.flats()) == sum(comb(12, k) for k in range(6)) + 1 == 1587
    assert M.circuits() == [frozenset(c) for c in combinations(range(12), 7)]
    assert len(M.circuits()) == 792
    assert M.is_uniform()


def test_boolean_12_closed_form():
    M = get_fixture("boolean:12").matroid()
    assert len(M.flats()) == 4096
    assert M.circuits() == []
    assert M.components() == [frozenset({e}) for e in range(12)]
    assert M.coloops == frozenset(range(12))


def test_the_rank_table_checks_the_realization_rank():
    re = get_fixture("a3")
    re.rank += 1
    with pytest.raises(MatroidError, match="rank table"):
        Matroid(re).flats()
