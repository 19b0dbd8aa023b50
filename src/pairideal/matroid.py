"""Matroids of matrix realizations: rank table, flats, circuits, duality.

A Realization is an exact matrix whose row space W <= k^[n] is the single
source of truth; the matroid rank of a subset S of columns is the rank of
the corresponding column submatrix.  Its reduced rows, their pivots and
the dual basis are read off one `spans.Echelon`.  Ground-set elements are
0-based internally and 1-based in every report and CLI surface.

The rank of every subset is computed once, into a table of 2^n ints
indexed by bitmask (`Matroid._ranks`): a depth-first walk over the sorted
subsets inserts one column per subset below full rank into a copy of its
parent's echelon.  Rank queries, closures, flats, circuits and cyclic
flats are lookups in that table, so all enumeration here is exhaustive by
design; the intended scale is n <= ~12.
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import and_

from .linalg import ExactMatrix
from .memo import memo
from .spans import Echelon, to_ints


class MatroidError(ValueError):
    pass


class LoopError(MatroidError):
    """Raised when a construction that forbids loops meets one."""


class ColoopError(MatroidError):
    """Raised when a construction that forbids coloops meets one."""


class Realization:
    """A subspace W <= k^[n] presented as the row space of an exact matrix."""

    def __init__(self, name: str, field, matrix: ExactMatrix):
        if matrix.ncols == 0:
            raise MatroidError("empty ground set")
        self.name = name
        self.field = field
        self.matrix = matrix
        self.n = n = matrix.ncols
        ech = Echelon(field)
        for row in matrix.entries:
            ech.insert(dict(enumerate(row)))
        reduced = ech.reduced()
        self.pivots = list(reduced)
        self.rank = len(reduced)
        # canonical row-space basis: the reduced echelon rows, scaled to pivot 1
        self.basis_matrix = ExactMatrix(
            field,
            [[field.div(field.of(r.get(j, 0)), r[p]) for j in range(n)] for p, r in reduced.items()],
            n,
        )

    def __repr__(self):
        return f"Realization({self.name!r}, n={self.n}, rank={self.rank}, {self.field})"

    @cached_property
    def dual_matrix(self) -> ExactMatrix:
        """A basis D of the annihilator subspace, M . D^T = 0: one row per
        free column c, with 1 at c and minus column c of M at the pivots."""
        F, M = self.field, self.basis_matrix
        rows = []
        for c in range(self.n):
            if c not in self.pivots:
                v = [F.zero] * self.n
                v[c] = F.one
                for i, piv in enumerate(self.pivots):
                    v[piv] = F.neg(M[i, c])
                rows.append(v)
        return ExactMatrix(F, rows, self.n)

    def dual(self) -> "Realization":
        return Realization(self.name + "^perp", self.field, self.dual_matrix)

    @memo
    def matroid(self) -> "Matroid":
        return Matroid(self)

    def delete_columns(self, cols) -> "Realization":
        keep = [j for j in range(self.n) if j not in set(cols)]
        sub = self.matrix.submatrix_columns(keep)
        return Realization(self.name + "-del", self.field, sub)


class Matroid:
    """The column matroid of a realization, read from its rank table."""

    def __init__(self, realization: Realization):
        self.re = realization
        self.n = realization.n
        self.rank = realization.rank

    @memo
    def _ranks(self) -> list:
        """The rank of every subset, indexed by its bitmask (see `_mask`).

        Each child of the walk adds one element above its parent's largest
        and inserts that column into a copy of the parent's echelon; it
        keeps the parent's echelon when the column adds nothing, and below
        a full-rank parent every subset has full rank with no insert.
        """
        n, full, field, m = self.n, self.rank, self.re.field, self.re.basis_matrix
        root = Echelon(field)
        cols = [to_ints(dict(enumerate(m.column(e))), root.p)[0] for e in range(n)]
        ranks = [0] * (1 << n)

        def walk(mask, ech, start):
            if ech.dim == full:
                for t in range(1, 1 << (n - start)):
                    ranks[mask | t << start] = full
                return
            for e in range(start, n):
                grown = Echelon(field)
                grown.rows = dict(ech.rows)  # stored rows are never changed
                if not grown.insert(cols[e]):
                    grown = ech
                ranks[mask | 1 << e] = grown.dim
                walk(mask | 1 << e, grown, e + 1)

        walk(0, root, 0)
        if ranks[-1] != full:
            raise MatroidError(f"rank table reads {ranks[-1]}, the realization rank is {full}")
        return ranks

    # -- rank oracle ---------------------------------------------------------
    def rank_of(self, subset) -> int:
        return self._ranks()[_mask(subset)]

    # -- basic structure ------------------------------------------------------
    @property
    def loops(self):
        """The zero columns."""
        m = self.re.matrix
        return frozenset(e for e in range(self.n) if not any(m.column(e)))

    @property
    def coloops(self):
        ranks, full = self._ranks(), (1 << self.n) - 1
        return frozenset(e for e in range(self.n) if ranks[full ^ 1 << e] < self.rank)

    def closure(self, subset) -> frozenset:
        ranks, s = self._ranks(), _mask(subset)
        return frozenset(e for e in range(self.n) if ranks[s | 1 << e] == ranks[s])

    @memo
    def circuits(self):
        """Minimal dependent sets, in (size, sorted tuple) order: the sets
        of rank |S| - 1 whose one-smaller subsets are all independent."""
        ranks, bits = self._ranks(), _bits(self.n)
        found = [
            _subset(s, self.n)
            for s, r in enumerate(ranks)
            if r == s.bit_count() - 1 and all(ranks[s ^ b] == r for b in bits if s & b)
        ]
        return sorted(found, key=_order)

    @memo
    def flats(self):
        """All flats, in (size, sorted tuple) order: the sets that every
        outside element raises in rank."""
        ranks, bits = self._ranks(), _bits(self.n)
        found = [
            _subset(s, self.n)
            for s, r in enumerate(ranks)
            if all(ranks[s | b] > r for b in bits if not s & b)
        ]
        return sorted(found, key=_order)

    def flats_of_rank(self, k):
        return [F for F in self.flats() if self.rank_of(F) == k]

    # -- cyclic flats ----------------------------------------------------------
    def cyclic_part(self, F) -> frozenset:
        """Union of the circuits contained in the flat F: its elements that
        are not coloops of the restriction to F."""
        F = frozenset(F)
        if self.closure(F) != F:
            raise MatroidError(f"{sorted(F)} is not a flat")
        ranks, f = self._ranks(), _mask(F)
        return frozenset(e for e in F if ranks[f ^ 1 << e] == ranks[f])

    @memo
    def cyclic_flats(self):
        """Flats that are unions of circuits, sorted by (size, elements).

        Cross-checked against the dual characterization: F is cyclic iff
        its complement is a flat of the dual matroid.
        """
        by_union = [F for F in self.flats() if self.cyclic_part(F) == F]
        dual = self.dual()
        full = frozenset(range(self.n))
        by_dual = [F for F in self.flats() if dual.closure(full - F) == full - F]
        if by_union != by_dual:
            raise MatroidError("cyclic-flat characterizations disagree (bug)")
        return by_union

    def minimal_nonempty_cyclic_flats(self):
        cyc = [F for F in self.cyclic_flats() if F]
        return [F for F in cyc if not any(G < F for G in cyc if G)]

    def maximal_proper_cyclic_flats(self):
        full = frozenset(range(self.n))
        cyc = [F for F in self.cyclic_flats() if F != full]
        return [F for F in cyc if not any(F < G for G in cyc)]

    # -- duality ----------------------------------------------------------------
    @memo
    def dual(self) -> "DualMatroid":
        return DualMatroid(self)

    # -- connectivity -------------------------------------------------------------
    @memo
    def components(self):
        """The connected components: around each element, the smallest
        separator S, rank(S) + rank(E - S) = rank(E); the separators are
        the unions of components, so they are closed under intersection."""
        ranks, full = self._ranks(), (1 << self.n) - 1
        seps = [s for s, x in enumerate(ranks) if x + ranks[full ^ s] == self.rank]
        comps = {reduce(and_, [s for s in seps if s & b]) for b in _bits(self.n)}
        return sorted((_subset(c, self.n) for c in comps), key=sorted)

    # -- predicates ---------------------------------------------------------------
    def is_uniform(self) -> bool:
        r = self.rank
        return all(x == min(s.bit_count(), r) for s, x in enumerate(self._ranks()))

    def is_simple(self) -> bool:
        if self.loops:
            return False
        return all(len(c) > 2 for c in self.circuits())

    def rank_function_equal(self, other: "Matroid") -> bool:
        """Label-preserving equality of matroids via the full rank table."""
        return self.n == other.n and self._ranks() == other._ranks()


class DualMatroid:
    """Set-theoretic dual: rank*(S) = |S| + rank(E - S) - rank(E)."""

    def __init__(self, matroid: Matroid):
        self.primal = matroid
        self.n = matroid.n
        self.rank = self.n - matroid.rank

    @memo
    def _ranks(self) -> list:
        primal, full = self.primal._ranks(), (1 << self.n) - 1
        r = self.primal.rank
        return [s.bit_count() + primal[full ^ s] - r for s in range(full + 1)]

    # the rank oracle, the closure and the flat enumeration only read _ranks
    rank_of = Matroid.rank_of
    closure = Matroid.closure
    flats = Matroid.flats


def biflats(matroid: Matroid):
    """All pairs (F, G), F a flat, G a dual flat, with F union G = [n].

    Sorted by (codimension rank(F)+rank*(G), F, G) for deterministic reports.
    """
    dual = matroid.dual()
    full = frozenset(range(matroid.n))
    out = [(F, G) for F in matroid.flats() for G in dual.flats() if full - F <= G]
    out.sort(key=lambda fg: (
        matroid.rank_of(fg[0]) + dual.rank_of(fg[1]), sorted(fg[0]), sorted(fg[1])
    ))
    return out


def _mask(subset) -> int:
    """The bitmask of a subset of the ground set: bit e for element e."""
    return sum(1 << e for e in set(subset))


def _bits(n) -> list:
    return [1 << e for e in range(n)]


def _subset(mask, n) -> frozenset:
    return frozenset(e for e in range(n) if mask >> e & 1)


def _order(subset):
    """The report order of subsets: by size, then by sorted elements."""
    return len(subset), sorted(subset)


def labels(subset) -> list:
    """External 1-based labels of an internal 0-based subset."""
    return [e + 1 for e in sorted(subset)]
