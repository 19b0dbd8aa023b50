"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Scalars are plain Python objects (`fractions.Fraction` for the rationals,
small non-negative `int` residues for a prime field).  All arithmetic is
routed through a field object so that the rest of the package stays
field-generic.  Field objects are immutable and hashable.
"""

from __future__ import annotations

import re
from fractions import Fraction


class FieldError(ValueError):
    pass


def parse_scalar(text):
    """(numerator, denominator) of a scalar written as a string: an optional
    sign, ASCII digits, then optionally '/' and ASCII digits, no spaces.  The
    one grammar of both fields; a zero denominator is refused."""
    if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text):
        raise FieldError(f"cannot parse scalar {text!r}: write an int or 'a/b'")
    num, _, den = text.partition("/")
    if den and not int(den):
        raise FieldError(f"scalar {text!r} has a zero denominator")
    return int(num), int(den or 1)


class Rationals:
    """The field of arbitrary-precision rationals."""

    name = "rational"
    char = 0

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    # -- construction ------------------------------------------------------
    def of(self, value) -> Fraction:
        """Coerce an int, Fraction or 'a/b' string to a reduced rational."""
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(*parse_scalar(value))
        raise FieldError(f"cannot coerce {value!r} into QQ")

    zero = Fraction(0)
    one = Fraction(1)

    # -- arithmetic --------------------------------------------------------
    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def div(self, a, b):
        if b == 0:
            raise FieldError("division by zero")
        return Fraction(a) / b

    def is_zero(self, a):
        return a == 0

    def to_str(self, a) -> str:
        return str(a)


# Miller-Rabin with the first twelve primes as bases is exact below
# PRIME_LIMIT (Sorenson and Webster, Math. Comp. 2017); larger moduli are
# refused rather than tested probabilistically.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_LIMIT = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < PRIME_LIMIT."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field with p elements; residues stored as ints in [0, p)."""

    def __init__(self, p: int):
        if p >= PRIME_LIMIT:
            raise FieldError(f"prime {p} is beyond the exact primality bound {PRIME_LIMIT}")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.name = f"GF({p})"
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def of(self, value) -> int:
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, str):
            num, den = parse_scalar(value)
            if den % self.p == 0:
                raise FieldError(f"scalar {value!r} has a denominator divisible by {self.p}")
            return self.div(num, den)
        if isinstance(value, Fraction):
            return self.div(value.numerator % self.p, value.denominator % self.p)
        raise FieldError(f"cannot coerce {value!r} into {self.name}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise FieldError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def to_str(self, a) -> str:
        return str(a % self.p)


QQ = Rationals()


def field_from_descriptor(desc):
    """Build a field from the JSON-level descriptor used in input files.

    "rational" -> QQ, {"prime": p} -> GF(p).
    """
    if desc == "rational":
        return QQ
    if isinstance(desc, dict) and set(desc) == {"prime"}:
        p = desc["prime"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise FieldError(f"prime must be an integer, got {p!r}")
        return PrimeField(p)
    raise FieldError(f"unknown field descriptor {desc!r}")


def field_descriptor(field):
    if isinstance(field, Rationals):
        return "rational"
    return {"prime": field.p}
