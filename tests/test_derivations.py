import pytest

from pairideal.derivations import pdim_bounds, recipe_check
from pairideal.fixtures import get_fixture
from pairideal.matroid import MatroidError


def test_boolean_free(boolean3):
    dm = boolean3.derivations
    assert dm.free and dm.pdim == 0
    assert dm.generator_degrees == [0, 0, 0]
    assert dm.exponents == [0, 0, 0]


def test_a3_free_with_saito(a3):
    dm = a3.derivations
    assert dm.free
    assert dm.generator_degrees == [0, 1, 2]
    assert dm.saito_verified
    assert a3.verify("syzygy-slices")["passed"]
    # coexponent sum equals the number of distinct hyperplanes
    assert sum(d + 1 for d in dm.generator_degrees) == 6


def test_u12_free_reduced_saito(u12):
    dm = u12.derivations
    assert dm.free and dm.generator_degrees == [0]
    assert dm.saito_verified  # one distinct hyperplane, repeated twice


def test_bracelet_not_free_despite_rank2_flats(bracelet):
    dm = bracelet.derivations
    M = bracelet.pairs.matroid
    assert all(M.rank_of(F) == 2 for F in M.minimal_nonempty_cyclic_flats())
    assert not dm.free
    assert dm.pdim >= 1
    assert dm.generator_degrees == [0, 2, 2, 2, 2]


def test_fail_bounds_and_nonfree(fail_a):
    dm = fail_a.derivations
    bounds = pdim_bounds(fail_a.pairs)
    assert bounds["kung_schenck_bound"] == 1
    assert bounds["free_obstruction"]
    assert bounds["cyclic_flat_bound"] == 3
    assert not dm.free
    assert dm.pdim >= bounds["kung_schenck_bound"]


def test_a3_bounds(a3):
    bounds = pdim_bounds(a3.pairs)
    assert bounds["cyclic_flat_bound"] == 4
    assert bounds["kung_schenck_bound"] == 0
    assert not bounds["free_obstruction"]


def test_seven_bounds(seven):
    bounds = pdim_bounds(seven.pairs)
    assert bounds["cyclic_flat_bound"] == 4
    assert bounds["kung_schenck_bound"] == max(2 - 2, 0)


def test_pdim_lower_bounds_hold(a3, seven, bracelet, fail_a, u24):
    for bench in (a3, seven, bracelet, fail_a, u24):
        bounds = pdim_bounds(bench.pairs)
        assert bench.derivations.pdim >= bounds["kung_schenck_bound"]


def test_recipe_certificate():
    ra = get_fixture("fail_A")
    rb = get_fixture("fail_PA")
    cert = recipe_check(ra, rb)
    assert cert is not None
    assert cert["flat"] == [1, 2, 3, 5]
    assert cert["rank"] == 3
    assert "not isomorphic" in cert["verdict"]
    assert recipe_check(ra, ra) is None


def test_recipe_rank_three_always_none():
    # for rank <= 3 the only candidate flat cuts out the origin everywhere
    from fractions import Fraction
    from pairideal.linalg import ExactMatrix
    from pairideal.matroid import Realization
    from pairideal.scalars import QQ

    a = get_fixture("u:3:6")
    rows = [[Fraction(t + 10) ** i for t in range(6)] for i in range(3)]
    b = Realization("u36-other", QQ, ExactMatrix(QQ, rows))
    assert a.matroid().rank_function_equal(b.matroid())
    assert recipe_check(a, b) is None


def test_recipe_matroid_mismatch():
    with pytest.raises(MatroidError):
        recipe_check(get_fixture("u:2:4"), get_fixture("a3").delete_columns([5, 4]))


def test_ilog_generators(a3, boolean3, u12):
    # c_k = theta(f_k)/f_k, so a c-vector is the generator sum_k a_k theta(f_k)/f_k
    def constant(bench, ks):
        return {(k, bench.pairs.ring.zero_exp): 1 for k in ks}

    cvecs = a3.derivations.c_vectors
    assert cvecs[0] == constant(a3, range(6))  # the Euler derivation
    assert {sum(e) for _, e in cvecs[1]} == {1}
    bvecs = sorted(boolean3.derivations.c_vectors, key=sorted)
    assert bvecs == [constant(boolean3, [k]) for k in range(3)]
    assert u12.derivations.c_vectors == [constant(u12, [0, 1])]
