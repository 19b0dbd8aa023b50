from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings, strategies as st

from pairideal.fixtures import BRACELET9_MATRIX
from pairideal.linalg import ExactMatrix, kernel_basis, rank, rref
from pairideal.scalars import QQ, PrimeField
from pairideal.spans import Echelon, kernel_of_stacked_vectors, to_ints


def test_rref_identity():
    m = ExactMatrix.identity(QQ, 3)
    red, pivots, r = rref(m)
    assert red == m
    assert pivots == [0, 1, 2]
    assert r == 3


def test_rref_zero_matrix():
    m = ExactMatrix.zero(QQ, 2, 4)
    red, pivots, r = rref(m)
    assert red == m and pivots == [] and r == 0


def test_bracelet_rank():
    assert rank(ExactMatrix(QQ, BRACELET9_MATRIX)) == 4


def test_kernel_one_dim():
    m = ExactMatrix(QQ, [[1, 1]])
    k = kernel_basis(m)
    assert k.nrows == 1
    (a, b), = k.entries
    assert a == -b and a != 0


def test_kernel_identity_empty():
    k = kernel_basis(ExactMatrix.identity(QQ, 4))
    assert k.nrows == 0 and k.ncols == 4


def test_kernel_bracelet_annihilates():
    m = ExactMatrix(QQ, BRACELET9_MATRIX)
    k = kernel_basis(m)
    assert k.nrows == 9 - 4
    prod = m.matmul(k.transpose())
    assert prod.is_zero()


small_matrices = st.lists(
    st.lists(st.integers(-4, 4), min_size=1, max_size=5),
    min_size=1,
    max_size=5,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@given(small_matrices)
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(rows):
    m = ExactMatrix(QQ, rows)
    red, _, _ = rref(m)
    red2, _, _ = rref(red)
    assert red == red2


@given(small_matrices)
@settings(max_examples=60, deadline=None)
def test_rank_nullity(rows):
    m = ExactMatrix(QQ, rows)
    assert rank(m) + kernel_basis(m).nrows == m.ncols


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
    dense = ExactMatrix(field, [[v.get(c, 0) for v in vectors] for c in cols], len(vectors))
    assert len(kernel) == kernel_basis(dense).nrows
    for combo in kernel:
        for c in cols:
            total = sum(field.of(x) * field.of(vectors[i].get(c, 0)) for i, x in combo.items())
            assert field.of(total) == 0, (combo, c)
    combos = [[combo.get(i, 0) for i in range(len(vectors))] for combo in kernel]
    assert rank(ExactMatrix(field, combos, len(vectors))) == len(kernel)


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
