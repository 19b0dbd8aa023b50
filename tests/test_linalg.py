from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from pairideal.fixtures import BRACELET9_MATRIX
from pairideal.linalg import ExactMatrix
from pairideal.matroid import Realization
from pairideal.scalars import QQ, PrimeField
from pairideal.spans import Echelon, kernel_of_stacked_vectors, to_ints


def _annihilates(field, m, d):
    """M . D^T = 0, summed entry by entry."""
    return all(
        field.is_zero(sum(field.mul(a, b) for a, b in zip(mrow, drow)))
        for mrow in m.entries
        for drow in d.entries
    )


def test_rref_identity():
    rows = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    re = Realization("id", QQ, ExactMatrix(QQ, rows))
    assert re.basis_matrix == ExactMatrix(QQ, rows)
    assert re.pivots == [0, 1, 2] and re.rank == 3


def test_rref_zero_matrix():
    re = Realization("zero", QQ, ExactMatrix(QQ, [[0] * 4] * 2))
    assert re.pivots == [] and re.rank == 0
    assert re.basis_matrix == ExactMatrix(QQ, [], ncols=4)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
def test_rank_zero_dual_is_the_whole_space(field):
    # the annihilator of the zero subspace of k^3 is k^3
    re = Realization("z", field, ExactMatrix(field, [[0, 0, 0]]))
    assert (re.basis_matrix.nrows, re.basis_matrix.ncols) == (0, 3)
    identity = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert re.dual_matrix == ExactMatrix(field, identity)
    dual = re.dual()
    assert dual.rank == 3 and dual.dual_matrix == ExactMatrix(field, [], ncols=3)


def test_bracelet_rank():
    re = Realization("bracelet9", QQ, ExactMatrix(QQ, BRACELET9_MATRIX))
    assert re.rank == len(re.pivots) == 4


def test_kernel_one_dim():
    re = Realization("line", QQ, ExactMatrix(QQ, [[1, 1]]))
    (a, b), = re.dual_matrix.entries
    assert a == -b and a != 0


def test_kernel_identity_empty():
    rows = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    d = Realization("id", QQ, ExactMatrix(QQ, rows)).dual_matrix
    assert d.nrows == 0 and d.ncols == 4


def test_kernel_bracelet_annihilates():
    re = Realization("bracelet9", QQ, ExactMatrix(QQ, BRACELET9_MATRIX))
    d = re.dual_matrix
    assert d.nrows == 9 - 4
    assert _annihilates(QQ, re.matrix, d)


FIELDS = [QQ, PrimeField(32003), PrimeField(7), PrimeField(3)]


@st.composite
def small_matrices(draw):
    """(field, rows): a matrix of at most 7 x 6 small entries, Fractions
    over QQ, with zero rows and repeated rows."""
    field = draw(st.sampled_from(FIELDS))
    ncols = draw(st.integers(1, 6))
    if field is QQ:
        entry = st.fractions(-4, 4, max_denominator=3)
    else:
        entry = st.integers(-field.p, 2 * field.p)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=5))
    for i in draw(st.lists(st.integers(0, 4), max_size=2)):
        rows.append([0] * ncols if i >= len(rows) else list(rows[i]))
    return field, rows


def _sympy_matrix(field, rows, ncols=None):
    """The sympy DomainMatrix of rows over QQ or GF(p)."""
    sp = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    K = sp.GF(field.p) if field.char else sp.QQ
    conv = K if field.char else (lambda v: K(v.numerator, v.denominator))
    shape = (len(rows), len(rows[0]) if rows else ncols)
    return DomainMatrix([[conv(field.of(x)) for x in row] for row in rows], shape, K)


def _from_sympy(field, dm):
    """The entries of a sympy DomainMatrix as field scalars (sympy's GF
    elements are symmetric residues)."""
    if field.char:
        return [[int(x) % field.p for x in row] for row in dm.to_list()]
    return [[field.of(Fraction(int(x.numerator), int(x.denominator))) for x in row] for row in dm.to_list()]


@given(small_matrices())
@settings(max_examples=120, derandomize=True, deadline=None)
def test_reduced_rows_match_sympy_rref(case):
    field, rows = case
    m = ExactMatrix(field, rows)
    red, pivots = _sympy_matrix(field, rows).rref()
    want = _from_sympy(field, red)[: len(pivots)]
    re = Realization("m", field, m)
    assert re.pivots == list(pivots) and re.rank == len(pivots)
    assert re.basis_matrix == ExactMatrix(field, want, ncols=m.ncols)
    # the echelon's reduced rows are these rows, primitive (QQ) or with
    # pivot 1 (GF(p))
    ech = Echelon(field)
    for row in rows:
        ech.insert(dict(enumerate(row)))
    reduced = ech.reduced()
    assert list(reduced) == list(pivots)
    for (piv, row), wrow in zip(reduced.items(), want):
        assert all(type(v) is int and v for v in row.values())
        if field.char:
            assert row[piv] == 1 and row == {j: v for j, v in enumerate(wrow) if v}
        else:
            assert row[piv] > 0 and gcd(*row.values()) == 1
            assert {j: Fraction(v, row[piv]) for j, v in row.items()} == {j: v for j, v in enumerate(wrow) if v}


@given(small_matrices())
@settings(max_examples=120, derandomize=True, deadline=None)
def test_dual_matrix_matches_sympy_nullspace(case):
    field, rows = case
    re = Realization("m", field, ExactMatrix(field, rows))
    null = _sympy_matrix(field, rows).nullspace()
    d = re.dual_matrix
    assert (d.nrows, d.ncols) == (null.shape[0], re.n)
    if d.nrows:
        # the same row space: the same reduced rows
        assert _sympy_matrix(field, d.entries).rref() == null.rref()


@given(small_matrices())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_rref_idempotent(case):
    field, rows = case
    m = Realization("m", field, ExactMatrix(field, rows)).basis_matrix
    assert Realization("m", field, m).basis_matrix == m


@given(small_matrices())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_rank_nullity(case):
    field, rows = case
    re = Realization("m", field, ExactMatrix(field, rows))
    assert re.rank + re.dual_matrix.nrows == re.n
    assert _annihilates(field, re.matrix, re.dual_matrix)
    assert _annihilates(field, re.basis_matrix, re.dual_matrix)


GF = PrimeField(32003)


@st.composite
def stacked_vectors(draw):
    """(field, vectors): sparse vectors over int columns, with zero entries,
    empty vectors and repeated vectors; Fraction entries over QQ."""
    field = draw(st.sampled_from([QQ, GF]))
    if field is QQ:
        entry = st.fractions(-3, 3, max_denominator=4)
    else:
        entry = st.integers(0, GF.p - 1)
    vec = st.dictionaries(st.integers(0, 6), entry, max_size=4)
    vectors = draw(st.lists(vec, max_size=7))
    for i in draw(st.lists(st.integers(0, 6), max_size=3)):
        if i < len(vectors):
            vectors.append(dict(vectors[i]))
    return field, vectors


@given(stacked_vectors())
@settings(max_examples=120, derandomize=True, deadline=None)
def test_kernel_of_stacked_vectors_matches_dense_oracle(case):
    field, vectors = case
    kernel = kernel_of_stacked_vectors(field, vectors)
    # dense oracle: the combinations c with sum_i c_i v_i = 0 are the right
    # null space of the matrix whose column i is v_i
    cols = sorted({c for v in vectors for c in v})
    dense = _sympy_matrix(field, [[v.get(c, 0) for v in vectors] for c in cols], len(vectors))
    assert len(kernel) == len(vectors) - dense.rank() == dense.nullspace().shape[0]
    for combo in kernel:
        for c in cols:
            total = sum(field.of(x) * field.of(vectors[i].get(c, 0)) for i, x in combo.items())
            assert field.of(total) == 0, (combo, c)
    combos = [[combo.get(i, 0) for i in range(len(vectors))] for combo in kernel]
    assert _sympy_matrix(field, combos, len(vectors)).rank() == len(kernel)


def test_echelon_fraction_inputs():
    ech = Echelon(QQ)
    assert ech.insert({0: Fraction(1, 2), 1: Fraction(1, 3)})
    assert not ech.insert({0: 3, 1: 2})
    assert ech.contains({0: Fraction(-3, 2), 1: -1})


def test_echelon_reduce_scale_covers_denominators():
    # residual == lam * vec modulo the span, also for rational input
    ech = Echelon(QQ)
    ech.insert({0: 2, 1: 1})
    vec = {0: Fraction(1, 3), 2: Fraction(1, 2)}
    res, lam = ech.reduce(vec)
    assert 0 not in res
    assert not ech.insert({k: lam * vec.get(k, 0) - res.get(k, 0) for k in range(3)})


def test_to_ints_copies_and_drops_zeros():
    # int rows (the QQ fast path), rows with a zero or a fraction, and
    # residues over GF(p): a new dict each time, the caller's left as it was
    for vec, p, want in [
        ({0: 3, 2: -4}, 0, ({0: 3, 2: -4}, 1)),
        ({0: 3, 1: 0, 2: -4}, 0, ({0: 3, 2: -4}, 1)),
        ({0: Fraction(1, 2), 1: 0, 2: 1}, 0, ({0: 1, 2: 2}, 2)),
        ({0: 7, 1: 14}, 7, ({}, 1)),
        ({0: -1, 1: 0}, 7, ({0: 6}, 1)),
    ]:
        before = dict(vec)
        got = to_ints(vec, p)
        assert got == want
        assert got[0] is not vec and vec == before
    # an insert that eliminates works on the copy
    ech = Echelon(QQ)
    ech.insert({0: 1, 1: 1})
    row = {0: 2, 1: 3}
    assert ech.insert(row)
    assert row == {0: 2, 1: 3}


def _reference_row(rows, vec, p):
    """The row that vec adds to the echelon `rows` (None if it adds none),
    by field arithmetic, reducing at every step, then made primitive with
    a positive pivot (QQ) or scaled to pivot 1 (GF(p))."""
    vec = {k: Fraction(v) if not p else v % p for k, v in vec.items()}
    vec = {k: v for k, v in vec.items() if v}
    while vec and min(vec) in rows:
        row = rows[min(vec)]
        f = vec[min(vec)] / row[min(vec)] if not p else vec[min(vec)] * pow(row[min(vec)], -1, p)
        new = {k: vec.get(k, 0) - f * row.get(k, 0) for k in vec.keys() | row.keys()}
        vec = {k: v % p if p else v for k, v in new.items() if (v % p if p else v)}
    if not vec:
        return None
    lead = vec[min(vec)]
    if p:
        return {k: v * pow(lead, -1, p) % p for k, v in vec.items()}
    den = lcm(*(v.denominator for v in vec.values()))
    ints = {k: int(v * den) for k, v in vec.items()}
    g = gcd(*ints.values()) * (1 if lead > 0 else -1)
    return {k: v // g for k, v in ints.items()}


sparse_vectors = st.lists(
    st.dictionaries(st.integers(0, 7), st.integers(-40, 40).filter(bool), min_size=1, max_size=6),
    max_size=14,
)


@given(sparse_vectors, st.sampled_from([0, 7, 32003]))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_echelon_rows_are_the_reference_rows(vectors, p):
    # over QQ the working vector is stripped only after a step that scaled
    # it; the rows must be those of eliminating by field arithmetic, and
    # stay primitive with a positive pivot (QQ) or have pivot 1 (GF(p)),
    # which is what lets a re-indexed row be stored with no elimination
    ech = Echelon(PrimeField(p) if p else QQ)
    rows = {}
    for vec in vectors:
        want = _reference_row(rows, vec, p)
        assert ech.insert(vec) == (want is not None)
        if want is not None:
            rows[min(want)] = want
        assert ech.rows == rows
        for c, row in ech.rows.items():
            assert c == min(row) and all(type(v) is int and v for v in row.values())
            if p:
                assert row[c] == 1 and all(0 < v < p for v in row.values())
            else:
                assert row[c] > 0 and gcd(*row.values()) == 1
