"""Built-in realizations: the worked examples plus parameterized families.

Registry names: boolean:N, u:R:N (Vandermonde columns at 0,1,...,N-1),
a3 (signed incidence matrix of the complete graph on four vertices),
bracelet9, seven, fail_A, fail_PA (fail_A transformed by one recorded
transvection that moves the span of columns 1,2,3,5).
"""

from __future__ import annotations

from fractions import Fraction

from .io import MAX_GROUND_SET
from .linalg import ExactMatrix
from .matroid import Realization
from .scalars import QQ


A3_MATRIX = [
    # columns are e_i - e_j for the six edges 12, 13, 14, 23, 24, 34
    [1, 1, 1, 0, 0, 0],
    [-1, 0, 0, 1, 1, 0],
    [0, -1, 0, -1, 0, 1],
    [0, 0, -1, 0, -1, -1],
]

BRACELET9_MATRIX = [
    [1, 0, 0, 1, 0, 0, 1, 1, 0],
    [0, 1, 0, 0, 1, 0, 1, 0, 1],
    [0, 0, 1, 0, 0, 1, 0, 1, 1],
    [0, 0, 0, 1, 1, 1, 1, 1, 1],
]

SEVEN_MATRIX = [
    [1, 1, 1, 1, 1, 1, 1],
    [0, 1, 0, 2, 0, 3, 0],
    [0, 0, 1, 0, 2, 0, 3],
]

FAIL_A_MATRIX = [
    [0, 1, 0, 0, 1],
    [0, 0, 1, 0, 1],
    [0, 0, 0, 1, 0],
    [1, 1, 1, 1, 1],
]

# row 3 += row 1: a transvection not fixing the span of columns 1,2,3,5
FAIL_PA_MATRIX = [
    [0, 1, 0, 0, 1],
    [0, 0, 1, 0, 1],
    [0, 1, 0, 1, 1],
    [1, 1, 1, 1, 1],
]


def boolean_matrix(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def vandermonde_matrix(r: int, n: int):
    """Columns (1, t, ..., t^{r-1}) at t = 0..n-1; realizes the uniform matroid."""
    return [[Fraction(t) ** i for t in range(n)] for i in range(r)]


_STATIC = {
    "a3": A3_MATRIX,
    "bracelet9": BRACELET9_MATRIX,
    "seven": SEVEN_MATRIX,
    "fail_A": FAIL_A_MATRIX,
    "fail_PA": FAIL_PA_MATRIX,
}


class FixtureError(ValueError):
    pass


def fixture_names():
    return sorted(_STATIC) + ["boolean:N", "u:R:N"]


def _int_params(name: str, form: str):
    """The integer parameters of a parameterized fixture name; the last one
    is the ground-set size, at most io.MAX_GROUND_SET."""
    parts = name.split(":")[1:]
    if len(parts) != form.count(":"):
        raise FixtureError(f"fixture {name!r} is not of the form {form}")
    try:
        params = [int(p) for p in parts]
    except ValueError:
        raise FixtureError(f"fixture {name!r}: {form} takes integer parameters") from None
    if params[-1] > MAX_GROUND_SET:
        raise FixtureError(f"fixture {name!r}: N is larger than the max {MAX_GROUND_SET}")
    return params


def get_fixture(name: str, field=QQ) -> Realization:
    """Resolve a fixture name to a Realization (parameterized forms allowed)."""
    if name in _STATIC:
        return Realization(name, field, ExactMatrix(field, _STATIC[name]))
    if name.startswith("boolean:"):
        (n,) = _int_params(name, "boolean:N")
        if n < 1:
            raise FixtureError("boolean:N needs N >= 1")
        return Realization(name, field, ExactMatrix(field, boolean_matrix(n)))
    if name.startswith("u:"):
        r, n = _int_params(name, "u:R:N")
        if not 0 < r <= n:
            raise FixtureError("u:R:N needs 0 < R <= N")
        return Realization(name, field, ExactMatrix(field, vandermonde_matrix(r, n)))
    raise FixtureError(f"unknown fixture {name!r} (see `fixtures list`)")
