"""Matroid layer against an independent brute-force rank oracle."""

from fractions import Fraction
from itertools import combinations

from pairideal.fixtures import get_fixture
from pairideal.linalg import ExactMatrix
from pairideal.matroid import Realization, biflats, labels
from pairideal.scalars import QQ


def brute_rank(rows, cols, p=0):
    """Row-reduce the chosen columns with plain Fractions, or with residues
    mod a prime p: an independent oracle."""
    mat = [[Fraction(rows[i][j] % p if p else rows[i][j]) for j in cols] for i in range(len(rows))]
    r = 0
    for c in range(len(cols)):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c] * pow(int(mat[r][c]), -1, p) if p else mat[i][c] / mat[r][c]
                mat[i] = [(a - f * b) % p if p else a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def brute_structures(rows, p=0):
    n = len(rows[0])
    ranks = {}
    for size in range(n + 1):
        for s in combinations(range(n), size):
            ranks[frozenset(s)] = brute_rank(rows, s, p)
    full = frozenset(range(n))
    circuits = []
    for size in range(1, n + 1):
        for s in map(frozenset, combinations(range(n), size)):
            if ranks[s] < size and not any(c < s for c in circuits):
                circuits.append(s)
    flats = set()
    for s in ranks:
        closure = frozenset(
            e for e in range(n) if ranks[s | {e}] == ranks[s]
        )
        flats.add(closure)
    cyclic = []
    for F in flats:
        union = frozenset().union(*[c for c in circuits if c <= F]) if circuits else frozenset()
        if union == F:
            cyclic.append(F)
    return (
        ranks,
        sorted(circuits, key=lambda c: (len(c), sorted(c))),
        flats,
        sorted(cyclic, key=lambda f: (len(f), sorted(f))),
    )


U23 = [[1, 0, 1], [0, 1, 1]]


def test_u23_against_brute_force():
    re = Realization("u23", QQ, ExactMatrix(QQ, U23))
    M = re.matroid()
    ranks, circuits, flats, cyclic = brute_structures(U23)
    for s, r in ranks.items():
        assert M.rank_of(s) == r
    assert M.circuits() == circuits
    assert set(M.flats()) == flats
    assert M.cyclic_flats() == cyclic
    assert M.is_uniform()


def test_boolean_free_matroid():
    M = get_fixture("boolean:4").matroid()
    assert M.circuits() == []
    assert M.cyclic_flats() == [frozenset()]
    assert len(M.components()) == 4
    assert M.coloops == frozenset(range(4))


def test_seven_cyclic_flats():
    M = get_fixture("seven").matroid()
    cyc = M.cyclic_flats()
    assert [labels(F) for F in cyc] == [
        [],
        [1, 2, 4, 6],
        [1, 3, 5, 7],
        [1, 2, 3, 4, 5, 6, 7],
    ]
    assert [M.rank_of(F) for F in cyc] == [0, 2, 2, 3]


def test_a3_triangles():
    M = get_fixture("a3").matroid()
    big_rank2 = [F for F in M.flats() if M.rank_of(F) == 2 and len(F) >= 3]
    assert sorted(labels(F) for F in big_rank2) == [
        [1, 2, 4],
        [1, 3, 5],
        [2, 3, 6],
        [4, 5, 6],
    ]
    assert len(M.components()) == 1
    # self-dual up to isomorphism: the dual is again a rank-3 connected
    # matroid with four 3-element cyclic planes
    D = get_fixture("a3").dual().matroid()
    assert D.rank == 3
    dual_cyc = [F for F in D.cyclic_flats() if 0 < len(F) < 6]
    assert all(len(F) == 3 and D.rank_of(F) == 2 for F in dual_cyc)
    assert len(dual_cyc) == 4


def test_closure_empty_loopless():
    M = get_fixture("a3").matroid()
    assert M.closure(()) == frozenset()


def test_dual_involution():
    for name in ["a3", "u:2:4", "seven", "fail_A"]:
        re = get_fixture(name)
        dd = re.dual().dual()
        assert re.matroid().rank_function_equal(dd.matroid())


def test_u23_dual_is_u13():
    d = Realization("u23", QQ, ExactMatrix(QQ, U23)).dual().matroid()
    assert d.rank == 1
    assert all(d.rank_of({e}) == 1 for e in range(3))


def test_cyclic_flat_complement_bijection():
    for name in ["a3", "seven", "u:2:4", "fail_A"]:
        M = get_fixture(name).matroid()
        Mdual = get_fixture(name).dual().matroid()
        full = frozenset(range(M.n))
        primal = {full - F for F in M.cyclic_flats()}
        assert primal == set(Mdual.cyclic_flats())


def test_cyclic_part_complement_identity():
    # closure of the complement in the dual is the complement of the cyclic part
    M = get_fixture("seven").matroid()
    dual = M.dual()
    full = frozenset(range(M.n))
    for F in M.flats():
        assert dual.closure(full - F) == full - M.cyclic_part(F)


def test_fail_matroid_structure():
    M = get_fixture("fail_A").matroid()
    assert M.rank == 4
    assert len(M.components()) == 2
    assert sorted(labels(c) for c in M.components()) == [[1, 2, 3, 5], [4]]
    nonempty_cyclic = [F for F in M.cyclic_flats() if F]
    assert [labels(F) for F in nonempty_cyclic] == [[1, 2, 3, 5]]
    assert M.rank_of(nonempty_cyclic[0]) == 3
    assert labels(M.coloops) == [4]


def test_uniform_fixture_is_uniform():
    for (r, n) in [(2, 4), (3, 5), (1, 2)]:
        M = get_fixture(f"u:{r}:{n}").matroid()
        assert M.is_uniform()
        assert M.rank == r
        assert M.cyclic_flats() == [frozenset()] + (
            [frozenset(range(n))] if 0 < r < n else []
        )


def test_biflats_u24():
    M = get_fixture("u:2:4").matroid()
    bf = biflats(M)
    full = frozenset(range(4))
    assert (frozenset(), full) in bf
    assert (full, frozenset()) in bf
    assert (full, full) in bf
    assert all(F | G == full for F, G in bf)
    assert len(bf) == 11  # 3 extremes + 4 (full, point) + 4 (point, full)


def test_codimension_remark():
    # codim of the biflat ideal equals rank + dual rank, via exact spans
    bench_names = ["a3", "seven"]
    for name in bench_names:
        re = get_fixture(name)
        M = re.matroid()
        dual = M.dual()
        for F, G in biflats(M)[:12]:
            assert M.rank_of(F) + dual.rank_of(G) <= M.n
