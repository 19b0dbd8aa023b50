"""Dense exact linear algebra over QQ or GF(p).

ExactMatrix is the user-facing type: immutable, field-tagged, with the
standard exact operations (rref, rank, kernel).  Sizes here are matroid-scale (n <= ~12), so a plain
field-generic Gaussian elimination is all that is needed; the heavy
degreewise computations use pairideal.spans instead.
"""

from __future__ import annotations

from .scalars import QQ, FieldError


class DimensionError(ValueError):
    pass


class ExactMatrix:
    """An immutable rows x cols matrix with entries in one exact field."""

    __slots__ = ("field", "nrows", "ncols", "entries")

    def __init__(self, field, rows, ncols=None):
        self.field = field
        rows = [tuple(field.of(e) for e in row) for row in rows]
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else (ncols or 0)
        if any(len(r) != self.ncols for r in rows):
            raise DimensionError("ragged rows")
        self.entries = tuple(rows)

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[field.one if i == j else field.zero for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, field, nrows, ncols):
        return cls(field, [[field.zero] * ncols for _ in range(nrows)])

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and other.field == self.field
            and other.entries == self.entries
            and other.ncols == self.ncols
        )

    def __hash__(self):
        return hash((self.field, self.ncols, self.entries))

    def __repr__(self):
        return f"ExactMatrix({self.field}, {self.nrows}x{self.ncols})"

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def column(self, j):
        return tuple(r[j] for r in self.entries)

    def rows_list(self):
        return [list(r) for r in self.entries]

    def transpose(self):
        return ExactMatrix(self.field, [self.column(j) for j in range(self.ncols)])

    def submatrix_columns(self, cols):
        return ExactMatrix(self.field, [[r[j] for j in cols] for r in self.entries])

    def matmul(self, other):
        if other.field != self.field:
            raise FieldError("mixed fields")
        if self.ncols != other.nrows:
            raise DimensionError("matmul shape mismatch")
        F = self.field
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = F.zero
                for k in range(self.ncols):
                    acc = F.add(acc, F.mul(self.entries[i][k], other.entries[k][j]))
                row.append(acc)
            out.append(row)
        return ExactMatrix(F, out)

    def is_zero(self):
        F = self.field
        return all(F.is_zero(e) for row in self.entries for e in row)


def rref(m: ExactMatrix):
    """Reduced row-echelon form: returns (rref matrix, pivot columns, rank)."""
    F = m.field
    rows = m.rows_list()
    nr, nc = m.nrows, m.ncols
    pivots = []
    pr = 0
    for pc in range(nc):
        pivot_row = None
        for i in range(pr, nr):
            if not F.is_zero(rows[i][pc]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        inv = F.inv(rows[pr][pc])
        rows[pr] = [F.mul(inv, e) for e in rows[pr]]
        for i in range(nr):
            if i != pr and not F.is_zero(rows[i][pc]):
                c = rows[i][pc]
                rows[i] = [F.sub(e, F.mul(c, p)) for e, p in zip(rows[i], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == nr:
            break
    return ExactMatrix(F, rows), pivots, len(pivots)


def rank(m: ExactMatrix) -> int:
    return rref(m)[2]


def kernel_basis(m: ExactMatrix) -> ExactMatrix:
    """Basis of the right null space, one kernel vector per row.

    Rows satisfy m . v^T = 0; row count equals ncols - rank(m).
    """
    F = m.field
    red, pivots, rk = rref(m)
    free = [j for j in range(m.ncols) if j not in pivots]
    rows = []
    for fc in free:
        v = [F.zero] * m.ncols
        v[fc] = F.one
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(red[r, fc])
        rows.append(v)
    return ExactMatrix(F, rows, ncols=m.ncols)
