"""The exact matrix type of realizations.

ExactMatrix is the validated input type: immutable, field-tagged, its
entries coerced into one exact field (QQ or GF(p)).  It carries no
elimination of its own: every elimination runs on `spans.Echelon`, and a
`Realization` reads its reduced rows, pivots and dual basis off one.
"""

from __future__ import annotations


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

    def column(self, j):
        return tuple(r[j] for r in self.entries)

    def submatrix_columns(self, cols):
        return ExactMatrix(self.field, [[r[j] for j in cols] for r in self.entries])
