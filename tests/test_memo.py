"""The one memo: per-instance caches of derived objects."""

import gc
import weakref

import pytest

from pairideal.fixtures import get_fixture
from pairideal.graded import GradedEngine
from pairideal.memo import memo
from pairideal.pairs import PairsIdeal


class _Counter:
    def __init__(self):
        self.calls = []

    @memo
    def square(self, k):
        """k squared, counted."""
        self.calls.append(k)
        return k * k

    @memo
    def fib(self, k):
        return k if k < 2 else self.fib(k - 1) + self.fib(k - 2)

    @memo
    def broken(self, k):
        return {}[k]


def test_memo_computes_each_key_once():
    c = _Counter()
    assert [c.square(3), c.square(3), c.square(4)] == [9, 9, 16]
    assert c.calls == [3, 4]
    assert c.fib(30) == 832040  # fills its own cache recursively
    assert _Counter.square.__name__ == "square"
    assert _Counter.square.__doc__ == "k squared, counted."


def test_memo_lets_a_key_error_of_the_method_through():
    c = _Counter()
    for _ in range(2):
        with pytest.raises(KeyError):
            c.broken(1)


def test_memo_returns_the_same_object():
    pairs = PairsIdeal(get_fixture("a3"))
    eng = GradedEngine(pairs)
    M = pairs.matroid
    assert eng.syzygy_slice(2, 1) is eng.syzygy_slice(2, 1)
    assert eng.mult_map((1, 1), 0) is eng.mult_map((1, 1), 0)
    assert eng.quotient_piece((2, 2)) is eng.quotient_piece((2, 2))
    assert eng.power_pieces(1) is eng.ideal
    assert M.flats() is M.flats()
    assert M.dual() is M.dual()
    assert pairs.quotient_complex() is pairs.quotient_complex()
    assert pairs.quotient_betti() is pairs.quotient_betti()
    assert pairs.ideal_object() is pairs.ideal_object()
    assert pairs.swap_roles() is pairs.swap_roles()


def test_two_engines_on_one_realization_share_nothing():
    pairs = PairsIdeal(get_fixture("a3"))
    one, two = GradedEngine(pairs), GradedEngine(pairs)
    a, b = one.syzygy_slice(2, 1), two.syzygy_slice(2, 1)
    assert a == b and a is not b
    assert one.ideal.columns((1, 1)) is not two.ideal.columns((1, 1))
    assert one._koszul_rank(2, (2, 2)) == two._koszul_rank(2, (2, 2))


def test_a_dropped_engine_is_collected():
    # no cache outlives its instance, so none is global
    pairs = PairsIdeal(get_fixture("a3"))
    eng = GradedEngine(pairs)
    eng.koszul_homology_dim(2, (2, 2))
    eng.syzygy_slice(2, 1)
    engines = weakref.ref(eng), weakref.ref(eng.ideal)
    del eng
    gc.collect()
    assert [ref() for ref in engines] == [None, None]
