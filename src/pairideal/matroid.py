"""Matroids of matrix realizations: rank oracle, flats, circuits, duality.

A Realization is an exact matrix whose row space W <= k^[n] is the single
source of truth; the matroid rank of a subset S of columns is the rank of
the corresponding column submatrix.  Ground-set elements are 0-based
internally and 1-based in every report and CLI surface.

All enumeration here (circuits, flats, cyclic flats) is exhaustive by
design; the intended scale is n <= ~12.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .linalg import ExactMatrix, kernel_basis, rref
from .memo import memo
from .spans import Echelon


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
        self.n = matrix.ncols
        red, pivots, r = rref(matrix)
        self.rank = r
        # canonical row-space basis: the nonzero RREF rows
        self.basis_matrix = ExactMatrix(field, [red.row(i) for i in range(r)])

    def __repr__(self):
        return f"Realization({self.name!r}, n={self.n}, rank={self.rank}, {self.field})"

    @cached_property
    def dual_matrix(self) -> ExactMatrix:
        """A basis matrix D for the annihilator subspace, M . D^T = 0."""
        return kernel_basis(self.basis_matrix)

    def dual(self) -> "Realization":
        return Realization(self.name + "^perp", self.field, self.dual_matrix)

    @memo
    def matroid(self) -> "Matroid":
        return Matroid(self)

    def column(self, e: int):
        return self.matrix.column(e)

    def delete_columns(self, cols) -> "Realization":
        keep = [j for j in range(self.n) if j not in set(cols)]
        sub = self.matrix.submatrix_columns(keep)
        return Realization(self.name + "-del", self.field, sub)


class Matroid:
    """The column matroid of a realization; rank queries are memoized."""

    def __init__(self, realization: Realization):
        self.re = realization
        self.n = realization.n
        # not a memo: 380,967 calls in `flats boolean:12`, on sets that are
        # normalised to a frozenset first
        self._rank_cache = {frozenset(): 0}
        self.rank = self.rank_of(range(self.n))

    # -- rank oracle ---------------------------------------------------------
    def rank_of(self, subset) -> int:
        key = frozenset(subset)
        got = self._rank_cache.get(key)
        if got is not None:
            return got
        ech = Echelon(self.re.field)
        m = self.re.basis_matrix
        for e in sorted(key):
            col = {i: c for i, c in enumerate(m.column(e))}
            ech.insert(col)
        r = ech.dim
        self._rank_cache[key] = r
        return r

    def is_basis(self, subset) -> bool:
        s = frozenset(subset)
        return len(s) == self.rank and self.rank_of(s) == self.rank

    # -- basic structure ------------------------------------------------------
    @property
    def loops(self):
        return frozenset(e for e in range(self.n) if self.rank_of({e}) == 0)

    @property
    def coloops(self):
        full = frozenset(range(self.n))
        return frozenset(e for e in range(self.n) if self.rank_of(full - {e}) == self.rank - 1)

    def closure(self, subset) -> frozenset:
        s = frozenset(subset)
        r = self.rank_of(s)
        return frozenset(e for e in range(self.n) if self.rank_of(s | {e}) == r)

    @memo
    def circuits(self):
        """Minimal dependent sets, in (size, sorted tuple) order."""
        found = []
        for size in range(1, self.n + 1):
            for comb in combinations(range(self.n), size):
                s = frozenset(comb)
                if any(c <= s for c in found):
                    continue
                if self.rank_of(s) < size:
                    found.append(s)
        return sorted(found, key=lambda c: (len(c), sorted(c)))

    @memo
    def flats(self):
        """All flats, grown rank by rank from the closure of the empty set."""
        bottom = self.closure(())
        levels = [{bottom}]
        seen = {bottom}
        while levels[-1]:
            nxt = set()
            for F in levels[-1]:
                for e in range(self.n):
                    if e not in F:
                        G = self.closure(F | {e})
                        if G not in seen:
                            seen.add(G)
                            nxt.add(G)
            levels.append(nxt)
        return sorted(seen, key=lambda f: (len(f), sorted(f)))

    @memo
    def _flat_set(self) -> frozenset:
        return frozenset(self.flats())

    def flats_of_rank(self, k):
        return [F for F in self.flats() if self.rank_of(F) == k]

    # -- cyclic flats ----------------------------------------------------------
    def cyclic_part(self, F) -> frozenset:
        """Union of the circuits contained in the flat F."""
        F = frozenset(F)
        if F not in self._flat_set():
            raise MatroidError(f"{sorted(F)} is not a flat")
        out = set()
        for c in self.circuits():
            if c <= F:
                out |= c
        return frozenset(out)

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
        """Partition into connected components via circuit connectivity."""
        parent = list(range(self.n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for c in self.circuits():
            c = sorted(c)
            for e in c[1:]:
                union(c[0], e)
        blocks = {}
        for e in range(self.n):
            blocks.setdefault(find(e), set()).add(e)
        return sorted((frozenset(b) for b in blocks.values()), key=lambda b: sorted(b))

    @property
    def kappa(self):
        return len(self.components())

    # -- predicates ---------------------------------------------------------------
    def is_uniform(self) -> bool:
        r = self.rank
        return all(
            self.rank_of(s) == min(len(s), r)
            for size in range(self.n + 1)
            for s in map(frozenset, combinations(range(self.n), size))
        )

    def is_simple(self) -> bool:
        if self.loops:
            return False
        return all(len(c) > 2 for c in self.circuits())

    def rank_function_equal(self, other: "Matroid") -> bool:
        """Label-preserving equality of matroids via the full rank oracle."""
        if self.n != other.n:
            return False
        for size in range(self.n + 1):
            for s in combinations(range(self.n), size):
                if self.rank_of(s) != other.rank_of(s):
                    return False
        return True


class DualMatroid:
    """Set-theoretic dual: rank*(S) = |S| + rank(E - S) - rank(E)."""

    def __init__(self, matroid: Matroid):
        self.primal = matroid
        self.n = matroid.n
        self.rank = self.n - matroid.rank

    def rank_of(self, subset) -> int:
        s = frozenset(subset)
        full = frozenset(range(self.n))
        return len(s) + self.primal.rank_of(full - s) - self.primal.rank

    # the closure and the flat enumeration only use rank_of and n
    closure = Matroid.closure
    flats = Matroid.flats


def biflats(matroid: Matroid):
    """All pairs (F, G), F a flat, G a dual flat, with F union G = [n].

    Sorted by (codimension rank(F)+rank*(G), F, G) for deterministic reports.
    """
    dual = matroid.dual()
    full = frozenset(range(matroid.n))
    out = []
    for F in matroid.flats():
        comp = full - F
        for G in dual.flats():
            if comp <= G:
                out.append((F, G))
    out.sort(key=lambda fg: (
        matroid.rank_of(fg[0]) + matroid.dual().rank_of(fg[1]),
        sorted(fg[0]),
        sorted(fg[1]),
    ))
    return out


def labels(subset) -> list:
    """External 1-based labels of an internal 0-based subset."""
    return [e + 1 for e in sorted(subset)]
