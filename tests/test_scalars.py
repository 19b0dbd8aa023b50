from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pairideal.scalars import QQ, FieldError, PrimeField, field_from_descriptor


@given(st.integers(), st.integers().filter(bool))
def test_rational_division_of_ints_is_exact(a, b):
    q = QQ.div(a, b)
    assert isinstance(q, Fraction)
    assert QQ.mul(q, b) == a


def test_rational_division_by_zero_is_refused():
    with pytest.raises(FieldError):
        QQ.div(QQ.one, 0)


@given(st.fractions(), st.fractions(), st.fractions())
def test_rational_ring_axioms(a, b, c):
    a, b, c = QQ.of(a), QQ.of(b), QQ.of(c)
    assert QQ.add(a, b) == QQ.add(b, a)
    assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))


def test_rational_parsing():
    assert QQ.of("3/4") == Fraction(3, 4)
    assert QQ.of(-2) == Fraction(-2)
    with pytest.raises(FieldError):
        QQ.of("1/0")


def test_prime_field_fermat_inverse():
    F = PrimeField(101)
    for a in range(1, 101):
        assert F.mul(a, F.inv(a)) == 1


def test_prime_field_rejects_composite():
    with pytest.raises(FieldError):
        PrimeField(91)


@pytest.mark.parametrize("p", [561, 2**61 + 1, 10**24 + 7])
def test_prime_field_rejects_composite_or_unproven(p):
    with pytest.raises(FieldError):
        PrimeField(p)


@pytest.mark.parametrize("p", [2, 32003, 2**61 - 1])
def test_prime_field_accepts_primes(p):
    assert PrimeField(p).p == p


def test_prime_field_parsing():
    F = PrimeField(7)
    assert F.of("3/5") == F.div(3, 5)
    assert F.of(Fraction(1, 2)) == F.inv(2)
    with pytest.raises(FieldError):
        F.of("1/7")


def test_field_descriptor_round_trip():
    assert field_from_descriptor("rational") == QQ
    assert field_from_descriptor({"prime": 13}) == PrimeField(13)
    with pytest.raises(FieldError):
        field_from_descriptor({"modulus": 13})
