"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Scalars are plain Python objects (`fractions.Fraction` for the rationals,
small non-negative `int` residues for a prime field).  All arithmetic is
routed through a field object so that the rest of the package stays
field-generic.  Field objects are immutable and hashable.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


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
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise FieldError(f"cannot parse scalar {value!r}") from exc
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
        return a / b

    def inv(self, a):
        if a == 0:
            raise FieldError("inverse of zero")
        return 1 / Fraction(a)

    def is_zero(self, a):
        return a == 0

    def to_str(self, a) -> str:
        return str(a)


class PrimeField:
    """The field with p elements; residues stored as ints in [0, p)."""

    def __init__(self, p: int):
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
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
            if "/" in value:
                num, den = value.split("/", 1)
                return self.div(self.of(int(num)), self.of(int(den)))
            return int(value) % self.p
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
        try:
            p = int(desc["prime"])
        except (TypeError, ValueError):
            raise FieldError(f"prime must be an integer, got {desc['prime']!r}") from None
        return PrimeField(p)
    raise FieldError(f"unknown field descriptor {desc!r}")


def field_descriptor(field):
    if isinstance(field, Rationals):
        return "rational"
    return {"prime": field.p}
