import pytest

from pairideal.fixtures import get_fixture
from pairideal.linalg import ExactMatrix
from pairideal.matroid import LoopError, Realization
from pairideal.pairs import PairsIdeal
from pairideal.scalars import QQ, PrimeField


def test_u12_pinned_forms(u12):
    pairs = u12.pairs
    assert [str(f) for f in pairs.f] == ["x1", "x1"]
    # D = [-M'^T | I] pins g1 = -y1, g2 = y1
    assert [str(g) for g in pairs.g] == ["-y1", "y1"]
    assert {str(g) for g in pairs.generators} == {"-x1*y1", "x1*y1"}
    assert pairs.euler_vectors() == [(1, 1)]
    assert pairs.euler_relation_holds()


def test_boolean_all_zero_generators(boolean3):
    pairs = boolean3.pairs
    assert all(g.is_zero() for g in pairs.generators)
    assert pairs.zero_generator_indices == [0, 1, 2]
    assert pairs.euler_vectors() == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_a3_generators(a3):
    pairs = a3.pairs
    assert len(pairs.nonzero_generators()) == 6
    assert all(g.grade() == (1, 1) for _, g in pairs.nonzero_generators())
    # the six products span a 5-dimensional space
    assert a3.engine.ideal_dim((1, 1)) == 5
    assert pairs.euler_vectors() == [(1,) * 6]


def test_fail_euler_vectors(fail_a):
    pairs = fail_a.pairs
    vectors = {v for v in pairs.euler_vectors()}
    by_support = {tuple(sorted(pairs.to_original(i) for i, b in enumerate(v) if b)) for v in vectors}
    assert by_support == {(4,), (1, 2, 3, 5)}
    assert pairs.euler_relation_holds()
    assert [pairs.to_original(i) for i in pairs.coloops] == [4]


def test_orthogonality_invariant(a3, seven):
    for bench in (a3, seven):
        pairs = bench.pairs
        m = pairs.realization.basis_matrix
        d = pairs.realization.dual_matrix
        assert all(
            pairs.field.is_zero(sum(a * b for a, b in zip(mrow, drow)))
            for mrow in m.entries
            for drow in d.entries
        )


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize(
    "name",
    ["a3", "bracelet9", "fail_A", "fail_PA", "seven", "boolean:3", "u:1:2", "u:2:4", "u:3:5"],
)
def test_dual_matrix_is_the_pinned_dual(name, field):
    # the hand builder of D = [-M'^T | I] from the pinned [I | M'] is the oracle
    # for the kernel basis; boolean:3 has s = 0 and a D with no rows
    pairs = PairsIdeal(get_fixture(name, field))
    r, s = pairs.r, pairs.s
    rows = [
        [field.neg(pairs.mprime[i][u]) for i in range(r)]
        + [field.one if v == u else field.zero for v in range(s)]
        for u in range(s)
    ]
    assert pairs.realization.dual_matrix == ExactMatrix(field, rows, ncols=pairs.n)


def test_swap_roles_u12(u12):
    sw = u12.pairs.swap_roles()
    assert {str(g) for g in sw.generators} == {"x1*y1", "-x1*y1"}


def test_swap_roles_hilbert_transpose(a3, bracelet):
    for bench in (a3, bracelet):
        eng = bench.engine
        from pairideal.graded import GradedEngine

        sw = GradedEngine(bench.pairs.swap_roles())
        for i in range(4):
            for j in range(4):
                assert eng.quotient_dim((i, j)) == sw.quotient_dim((j, i))


def test_loops_rejected_and_droppable():
    rows = [[1, 0, 0], [0, 1, 0]]  # third column zero: a loop
    re = Realization("loopy", QQ, ExactMatrix(QQ, rows))
    with pytest.raises(LoopError):
        PairsIdeal(re)
    pi = PairsIdeal(re, drop_loops=True)
    assert pi.n == 2
    assert pi.dropped_loops == [2]
    assert pi.to_original(0) == 1


def test_generators_vanish_on_component_subspaces(a3):
    # each generator vanishes identically on the product subspace of any
    # cyclic flat and its complement; checked on a spanning sample
    pairs = a3.pairs
    M = pairs.matroid
    F = next(F for F in M.cyclic_flats() if len(F) == 3)
    field = pairs.field

    fmat = ExactMatrix(
        field,
        [[p.terms.get(_unit(pairs.ring.nvars, t), field.zero) for t in range(pairs.r)] for p in (pairs.f[i] for i in sorted(F))],
    )
    gmat = ExactMatrix(
        field,
        [
            [p.terms.get(_unit(pairs.ring.nvars, pairs.r + u), field.zero) for u in range(pairs.s)]
            for p in (pairs.g[j] for j in sorted(frozenset(range(pairs.n)) - F))
        ],
    )
    # the points where the forms vanish: the annihilators of their rows
    xs = Realization("f", field, fmat).dual_matrix.entries
    ys = Realization("g", field, gmat).dual_matrix.entries
    for xv in xs or [tuple([field.zero] * pairs.r)]:
        for yv in ys or [tuple([field.zero] * pairs.s)]:
            point = list(xv) + list(yv)
            for _, g in pairs.nonzero_generators():
                assert field.is_zero(g.evaluate(point))


def _unit(n, k):
    return tuple(1 if i == k else 0 for i in range(n))


def test_generator_count_minus_minimal_equals_kappa(a3, seven, u24, fail_a):
    for bench in (a3, seven, u24, fail_a):
        pairs = bench.pairs
        if pairs.coloops:
            continue  # zero generators change the count
        nonzero = len(pairs.nonzero_generators())
        minimal = bench.engine.ideal_dim((1, 1))
        assert nonzero - minimal == pairs.kappa


def test_permutation_reported_in_original_labels():
    # a matrix whose leftmost column is dependent: the pinned basis permutes
    rows = [[0, 1, 0], [0, 0, 1]]
    re = Realization("perm", QQ, ExactMatrix(QQ, rows))
    pi = PairsIdeal(re, drop_loops=True)
    assert sorted(pi.to_original(i) for i in range(pi.n)) == [2, 3]
