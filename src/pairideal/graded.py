"""Degreewise exact linear algebra on the pair ring.

Everything here is Groebner-free by design, save the generators of the
symmetric ideal and the Schreyer grades that bound the Koszul table: bidegree
pieces of the ideal of pairs (and its powers) and of its quotient, bigraded
Hilbert functions, Koszul-complex Betti tables, syzygy slices, the slices of
the critical-set ideal and of its logarithmic subideal, and the bounded
linear-type comparison.  Each piece is a finite exact computation, so these
routines double as an independent oracle for the Groebner route.

The quotient pieces (S/I)_delta, which the Koszul table reads, are
cokernels of the Koszul relations on the lower quotient pieces, divided by
the generators of degree delta (`GradedEngine.quotient_piece`), and
multiplication by a variable is the reduction of one label (`mult_map`):
the commuting multiplication maps of border bases (Mourrain 1999;
Kehrein-Kreuzer-Robbiano 2005), degree by degree.  No ideal piece is
eliminated to get S/I, and the pieces give the ranks of the first two
Koszul differentials.

Two commutation identities leave out rows and columns that others span,
before they are built (Janet's multiplicative variables; Gerdt-Blinkov,
Involutive bases of polynomial ideals, 1998).  With q labelled x_w q', the
relation R_kl(q) = x_k (x_l q) - x_l (x_k q), k < l < w, is R_kw(x_l q') -
R_lw(x_k q'), as the maps commute: where x_w labels the piece too, it is
left out, by induction on l descending.  With t labelled x_w t', w > max
J, the column e_J (x) t of d_p is a sum of -+ the columns e_(J+w-j) (x)
x_j t', j in J, as d_p d_(p+1)(e_(J+w) (x) t') = 0: it is left out where
its lead is taken, by induction on max J descending.  The ideal pieces
drop multiples the same way (`spans.multiples`).

Every piece that is the span of the variable multiples of lower pieces is
grown from `spans.multiples`: the pieces of the ideal, of its powers and
of the symmetric ideal in S[a] (`IdealPieces`), and the lower spans that
the minimal-generator counts of the derivation slices and of the critical-set
ideal subtract.  The ideal pieces serve `member`, `ideal_dim`, the Rees
side, the kernel slices' columns and a second route to the Hilbert function
(`quotient_dim`).  Only they know their generators' grades, so only they
are grown from one side (`spans.Pieces.multiples`): above the generators
in x-degree by the x-multiples alone, which span the same piece; the
others multiply by every variable.

The symmetric side of the linear-type comparison is the presentation
Sym(I) = S[a] / (sum_k c_k a_k : sum_k c_k f_k g_k = 0), whose relations
are generated by any generating set of the syzygies of the pair generators
(Vasconcelos, Arithmetic of Blowup Algebras, 1994): one tracked Groebner
run gives them (`GradedEngine.symmetric_pieces`).  The Rees side counts by
rank and nullity: the (c,d;q) relation piece is the kernel of the product
map onto (I^q)_(c+q,d+q), and the symmetric piece lies in it, so sym +
rank <= domain.  The symmetric piece and the piece of I^q grow together,
from the multiples with a new lead first, which need no elimination, and
both stop once their dimensions sum to the domain (`spans.grow_pieces`;
Traverso's Hilbert-driven Buchberger algorithm, 1996, each side bounding
the other), so only a degree that is not of linear type grows in full.

Every kernel slice is one product kernel, `GradedEngine._product_kernel`:
the kernel of the vectors m * prod in one bidegree of S, keyed by its
caller.  The syzygy slice in bidegree (c,d) takes the pair generators
f_k g_k as products; the derivation slice in degree d is the (d,1) syzygy
slice; the critical-set slice takes the products prod_k (f_k g_k)^gamma_k.

The critical-set slices are counted and tested without that kernel.  The
(i;j) slice is the kernel of R_i (x) A_j -> S_(i+j,j), whose image is the
(i+j,j) piece of I^j, so `ix_dim` reads its dimension off the grown power
pieces (`rees_kernel_dim(i, 0, j)`); and a vector lies in it exactly when
the product map sends it to zero (`ix_contains`), which is how the
logarithmic slices are tested for containment.  `ix_slice` builds the
kernel only where its vectors are needed: the minimal-generator counts and
the parameterized-point evaluations.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from operator import add, le, sub
from typing import NamedTuple

from .groebner import ModuleContext, module_syzygies
from .memo import memo
from .pairs import PairsIdeal
from .ring import Poly, PolyRing, RingError, _compositions, _unit
from .spans import Echelon, Pieces, fill, grow, grow_pieces, kernel_of_stacked_vectors, to_ints


class IdealPieces(Pieces):
    """Bidegree pieces of an ideal of S given by homogeneous generators.

    The (i,j) piece is spanned by the variable multiples of the (i-1,j) and
    (i,j-1) pieces plus any generators of bidegree (i,j); its columns are
    the positions in `monomial_basis`.  When every generator below (i,j)
    has x-degree < i, the x-multiples of the (i-1,j) piece alone span the
    multiples of those generators (each monomial of S_((i,j) - g) has an
    x-factor); failing that, the y-multiples do when every such generator
    has y-degree < j (`spans.Pieces.multiples`).  A generator's vector is
    built when a piece of its grade is first asked for.
    """

    def __init__(self, ring, generators):
        super().__init__(ring.field, [(g, 0, t) for t, g in enumerate(ring.grades)])
        self.ring = ring
        for g in generators:
            if not g.is_zero():
                self.gens.setdefault(g.grade(), []).append(g)

    @memo
    def generators(self, grade):
        return [self.poly_vector(g, grade) for g in self.gens.get(grade, ())]

    @memo
    def columns(self, bideg):
        """(monomial_basis(bideg), {monomial: position})."""
        mons = self.ring.monomial_basis(bideg)
        return mons, {m: i for i, m in enumerate(mons)}

    def index(self, bideg):
        return self.columns(bideg)[1]

    def poly_vector(self, p: Poly, bideg=None):
        """Sparse column vector of a homogeneous polynomial."""
        if p.is_zero():
            return {}
        idx = self.index(bideg or p.grade())
        return {idx[e]: c for e, c in p.terms.items()}

    def dim(self, bideg) -> int:
        return self.piece(bideg).dim

    def contains(self, p: Poly) -> bool:
        """Exact degreewise membership for a (possibly inhomogeneous) element."""
        for g, comp in p.homogeneous_components().items():
            if not self.piece(g).contains(self.poly_vector(comp, g)):
                return False
        return True


class QuotientPiece(NamedTuple):
    """(S/I)_delta as a cokernel (`GradedEngine.quotient_piece`)."""

    echelon: Echelon  # the relations among the labels
    offsets: dict  # labelling variable -> first column of its block
    labels: list  # the label (variable, position below) of each basis element
    index: dict  # basis column -> position in labels
    generators: int  # generators of this degree independent of the lower ones


class BettiTable:
    """Map (homological degree, bidegree) -> dim Tor, with provenance."""

    def __init__(self, target, method, entries, window_description, certified_window):
        self.target = target  # "quotient" or "ideal"
        self.method = method  # "koszul" or "resolution"
        self.entries = {k: v for k, v in entries.items() if v}
        self.window_description = window_description
        self.certified_window = certified_window

    def get(self, p, bideg):
        return self.entries.get((p, tuple(bideg)), 0)

    def max_p(self):
        return max((p for (p, _) in self.entries), default=-1)

    def ideal_view(self) -> "BettiTable":
        """Betti numbers of the ideal from those of the quotient (shift by one)."""
        if self.target == "ideal":
            return self
        shifted = {
            (p - 1, b): v for (p, b), v in self.entries.items() if p >= 1
        }
        return BettiTable("ideal", self.method, shifted, self.window_description, self.certified_window)

    def poly_grid(self):
        """Rows j descending, columns i ascending, entries as strings in t."""
        if not self.entries:
            return []
        imax = max(b[0] for (_, b) in self.entries)
        jmax = max(b[1] for (_, b) in self.entries)
        imin = min(b[0] for (_, b) in self.entries)
        jmin = min(b[1] for (_, b) in self.entries)
        grid = []
        for j in range(jmax, jmin - 1, -1):
            row = []
            for i in range(imin, imax + 1):
                parts = []
                for p in range(0, self.max_p() + 1):
                    v = self.get(p, (i, j))
                    if v:
                        if p == 0:
                            parts.append(f"{v}")
                        elif p == 1:
                            parts.append(f"{v if v != 1 else ''}t".strip())
                        else:
                            parts.append(f"{v if v != 1 else ''}t^{p}".strip())
                row.append(" + ".join(parts) if parts else ".")
            grid.append((j, row))
        return grid

    def render(self) -> str:
        grid = self.poly_grid()
        if not grid:
            return "(zero table)"
        width = max(len(cell) for _, row in grid for cell in row) + 2
        lines = []
        for j, row in grid:
            lines.append(f"j={j} | " + "".join(cell.ljust(width) for cell in row))
        imin = min(b[0] for (_, b) in self.entries)
        imax = max(b[0] for (_, b) in self.entries)
        lines.append("      " + "".join(f"i={i}".ljust(width) for i in range(imin, imax + 1)))
        return "\n".join(lines)

    def to_json(self):
        return {
            "target": self.target,
            "method": self.method,
            "window": self.window_description,
            "certified_window": self.certified_window,
            "entries": [
                {"p": p, "i": b[0], "j": b[1], "dim": v}
                for (p, b), v in sorted(self.entries.items())
            ],
        }

    def __eq__(self, other):
        return isinstance(other, BettiTable) and other.entries == self.entries


class GradedEngine:
    """All degreewise computations attached to one pairs ideal."""

    def __init__(self, pairs: PairsIdeal):
        self.pairs = pairs
        self.ring = pairs.ring
        self.field = pairs.field
        self.ideal = IdealPieces(self.ring, pairs.generators)

    # -- Hilbert data -----------------------------------------------------------
    def ideal_dim(self, bideg) -> int:
        i, j = bideg
        if i < 1 or j < 1:
            return 0  # no generators touch y-degree or x-degree zero
        return self.ideal.dim(bideg)

    def quotient_dim(self, bideg) -> int:
        return self.ring.monomial_count(bideg) - self.ideal_dim(bideg)

    def hilbert(self, window: int):
        """dim (S/ideal)_(i,j) for all i+j <= window."""
        out = {}
        for i in range(window + 1):
            for j in range(window + 1 - i):
                out[(i, j)] = self.quotient_dim((i, j))
        return out

    def member(self, p: Poly) -> bool:
        return self.ideal.contains(p)

    # -- quotient pieces and multiplication -------------------------------------
    @memo
    def quotient_piece(self, bideg) -> QuotientPiece:
        """(S/I)_bideg as the cokernel of the Koszul relations below.

        Column offsets[k] + t is the label (k, t): x_k times basis element t
        of the piece at bideg - e_k.  The rows, x_k (x_l q) - x_l (x_k q)
        for k < l and q in the piece at bideg - e_k - e_l, and the
        generators of degree bideg, span the kernel onto (S/I)_bideg, as
        the Koszul complex of S is exact in positive degree.  Only the
        x-variables label when every generator strictly below has x-degree
        < bideg[0]: each monomial of S_(bideg - g) then has an x-factor,
        and S is free over R.  The basis is the non-pivot columns.  The
        pairs run by descending l, so a row that the rows of a larger index
        span (module docstring) would eliminate to zero; it is left out.
        """
        ech = Echelon(self.field)
        if not any(bideg):
            return QuotientPiece(ech, {}, [None], {0: 0}, 0)
        grades = self.ring.grades
        below = [g for g in self.ideal.gens if g != bideg and all(map(le, g, bideg))]
        xside = bideg[0] >= 1 and all(g[0] < bideg[0] for g in below)
        offsets, labels = {}, []
        for k, g in enumerate(grades):
            lower = tuple(map(sub, bideg, g))
            if min(lower) >= 0 and (g[0] or not xside):
                offsets[k] = len(labels)
                labels += [(k, t) for t in range(self.quotient_piece_dim(lower))]
        for l, k in combinations(reversed(offsets), 2):
            lower = tuple(map(sub, bideg, map(add, grades[k], grades[l])))
            if min(lower) < 0:
                continue
            # x_k (x_l q) - x_l (x_k q), cleared of the two denominators
            maps = self.mult_map(lower, l), self.mult_map(lower, k), self._label_variables(lower)
            for (wl, lam_l), (wk, lam_k), w in zip(*maps):
                if w > l and w in offsets:
                    continue
                row = {offsets[k] + c: lam_k * v for c, v in wl.items()}
                row.update((offsets[l] + c, -lam_l * v) for c, v in wk.items())
                if row:
                    ech.insert(row)
        grew = 0
        for g in self.pairs.generators:
            if g and g.grade() == bideg:
                grew += ech.insert(self._lift(g, offsets))
        basis = [c for c in range(len(labels)) if c not in ech.rows]
        return QuotientPiece(
            ech, offsets, [labels[c] for c in basis], {c: t for t, c in enumerate(basis)}, grew
        )

    def _label_variables(self, bideg):
        """The labelling variable of each basis element of the quotient
        piece at bideg, -1 for the 1 at the origin."""
        return [label[0] if label else -1 for label in self.quotient_piece(bideg).labels]

    def quotient_piece_dim(self, bideg) -> int:
        return len(self.quotient_piece(bideg).labels)

    def _lift(self, p: Poly, offsets):
        """p over the labels of its degree: each monomial is split at its
        first labelling variable x_k, with its cofactor's class below."""
        F = self.field
        row = {}
        for e, c in p.terms.items():
            k = next(k for k in offsets if e[k])
            for t, x in self._monomial_class(tuple(map(sub, e, _unit(len(e), k)))).items():
                row[offsets[k] + t] = F.add(row.get(offsets[k] + t, F.zero), F.mul(c, x))
        return row

    def _monomial_class(self, exp):
        """Class of a monomial over its piece's basis, as field values: the
        composite of `mult_map`s up from M_0 = k."""
        F = self.field
        k = next((k for k, a in enumerate(exp) if a), None)
        if k is None:
            return {0: F.one}
        below = tuple(map(sub, exp, _unit(len(exp), k)))
        step = self.mult_map(self.ring.exp_grade(below), k)
        out = {}
        for t, x in self._monomial_class(below).items():
            w, lam = step[t]
            for c, y in w.items():
                out[c] = F.add(out.get(c, F.zero), F.mul(x, F.of(Fraction(y, lam))))
        return out

    @memo
    def mult_map(self, bideg, var):
        """Multiplication by variable `var` as columns over quotient bases.

        Column t is (dict, lam): lam times the class of var times basis
        element t, over the target basis.  That is the label (var, t),
        reduced; if var is a y-variable and only x labels the target, then
        only x labels this piece too, and y t = x_w (y t') for t = (w, t').
        """
        grades = self.ring.grades
        target = self.quotient_piece(tuple(map(add, bideg, grades[var])))
        if var in target.offsets:
            off = target.offsets[var]
            lifts = [({off + t: 1}, 1) for t in range(self.quotient_piece_dim(bideg))]
        else:
            lifts = []
            for w, t in self.quotient_piece(bideg).labels:
                vec, lam = self.mult_map(tuple(map(sub, bideg, grades[w])), var)[t]
                lifts.append(({target.offsets[w] + c: v for c, v in vec.items()}, lam))
        cols = []
        for vec, lam in lifts:
            res, scale = target.echelon.reduce(vec)
            cols.append(({target.index[c]: v for c, v in res.items()}, lam * scale))
        return cols

    # -- Koszul Betti numbers ------------------------------------------------------
    def _chain_basis(self, p, bideg):
        """Basis offsets of (Lambda^p (x,y) tensor S/ideal) in one bidegree."""
        r, s = self.pairs.r, self.pairs.s
        i, j = bideg
        blocks = []
        offset = 0
        for a in range(min(p, r) + 1):
            b = p - a
            if b > s:
                continue
            ci, cj = i - a, j - b
            if ci < 0 or cj < 0:
                continue
            qdim = self.quotient_piece_dim((ci, cj))
            if qdim == 0:
                continue
            for T in combinations(range(r), a):
                for U in combinations(range(r, r + s), b):
                    blocks.append(((T, U), offset, qdim))
                    offset += qdim
        return blocks, offset

    @memo
    def _mult_leads(self, bideg, var):
        """The lead (smallest index) of each `mult_map` column, None if zero."""
        return [min(w, default=None) for w, _ in self.mult_map(bideg, var)]

    def _boundary_faces(self, p, bideg):
        """The source blocks of d_p : C_p -> C_{p-1} in this bidegree, as
        (faces, leads, spanned): a face is (sign, target offset, mult_map,
        its `_mult_leads`), leads[m] the lead of column m, None if it is
        zero, read off with no column or part list made, and spanned[m]
        whether the columns of a larger max J span column m (module
        docstring).

        The faces of a source block land in distinct target blocks, so a
        column is the union of its signed faces, over a common scale, and
        its lead, that of its nonzero face of least offset, cannot cancel."""
        toffset = {tu: off for tu, off, _ in self._chain_basis(p - 1, bideg)[0]}
        blocks = []
        for (T, U), _, qdim in self._chain_basis(p, bideg)[0]:
            src = (bideg[0] - len(T), bideg[1] - len(U))
            faces = []
            for k, t in enumerate(T + U):
                face = (tuple(v for v in T if v != t), tuple(v for v in U if v != t))
                if face in toffset:
                    maps = self.mult_map(src, t), self._mult_leads(src, t)
                    faces.append(((-1) ** k, toffset[face], *maps))
            leads = [None] * qdim
            for _, off, _, ls in sorted(faces, key=lambda face: -face[1]):
                leads = [x if y is None else off + y for y, x in zip(ls, leads)]
            top = max(T + U)
            blocks.append((faces, leads, [w > top for w in self._label_variables(src)]))
        return blocks

    @staticmethod
    def _boundary_columns(blocks):
        """The nonzero columns of `_boundary_faces` blocks as (lead, parts,
        spanned), unbuilt: a part is (sign, offset, mult_map column) of a
        nonzero face, and `_boundary_column` builds the dict."""
        return [
            (lead, [(sign, off, maps[m]) for sign, off, maps, ls in faces if ls[m] is not None], spanned[m])
            for faces, leads, spanned in blocks
            for m, lead in enumerate(leads)
            if lead is not None
        ]

    @staticmethod
    def _boundary_column(parts):
        L = lcm(*(lam for *_, (_, lam) in parts))
        vec = {}
        for sign, off, (w, lam) in parts:
            scale = sign * (L // lam)
            vec.update((off + c, scale * v) for c, v in w.items())
        return vec

    @memo
    def _koszul_rank(self, p, bideg):
        """Rank of d_p in this bidegree, memoized on the engine: the
        homology at p and at p - 1 both subtract it.

        Off the origin the quotient piece gives the first two: d_1 maps
        onto M_bideg, and the image of d_2 is ker d_1 less H_1, which is
        the count of generators that grew the piece.

        Above, two bounds certify it.  As d_(p-1) d_p = 0 it is at most
        u = min(dim C_p, dim ker d_(p-1)); as columns with distinct leads
        form a triangular minor, it is at least their number, and more
        than u raises RingError.  Only where the two differ are columns
        built, by `spans.fill` up to u, sparsest first and later source
        blocks first among equals (80 % fewer entries updated on a3 and
        bracelet9, 20 % on seven, than in chain basis order); a column that
        those of a larger max J span (`_boundary_faces`) is left out where
        its lead is taken.  The leads count every column."""
        if p in (1, 2) and any(bideg):
            onto = self.quotient_piece_dim(bideg)
            if p == 1:
                return onto
            return self._chain_basis(1, bideg)[1] - onto - self.quotient_piece(bideg).generators
        dim_p, below = self._chain_basis(p, bideg)[1], self._chain_basis(p - 1, bideg)[1]
        bound = min(dim_p, below - self._koszul_rank(p - 1, bideg)) if dim_p and below else 0
        if not bound:
            return 0
        blocks = self._boundary_faces(p, bideg)
        leads = len(set().union(*(leads for _, leads, _ in blocks)) - {None})
        if leads > bound:
            raise RingError(f"d_{p - 1} d_{p} != 0 at {bideg}: {leads} leads > bound {bound}")
        if leads == bound:
            return bound
        cols = self._boundary_columns(blocks)
        cols = sorted(reversed(cols), key=lambda col: sum(len(w) for *_, (w, _) in col[1]))
        build, taken = self._boundary_column, lambda lead: True
        cols = ((lead, build, parts, False, spanned and taken) for lead, parts, spanned in cols)
        return fill([(Echelon(self.field), cols)], bound)

    def koszul_homology_dim(self, p, bideg):
        _, dim_p = self._chain_basis(p, bideg)
        if dim_p == 0:
            return 0
        return dim_p - self._koszul_rank(p, bideg) - self._koszul_rank(p + 1, bideg)

    def koszul_betti(self, window=None, target="quotient", hard_cap=None) -> BettiTable:
        """Bigraded Betti numbers of S/I by Koszul homology, with no scan window.

        The Schreyer complex F of S/I is a free resolution, so Tor_p is zero
        in each grade where F_p has no generator (Eisenbud, The Geometry of
        Syzygies, ch. 1).  Homology is computed only at F's grades; at the
        other bidegrees off the axes of the reported triangle a nonzero
        Koszul Euler characteristic raises RingError.  The triangle i+j <= T
        follows the widening rule on the entries E, from `window` (n+2) up to
        `hard_cap` (2n+2); `certified_window` says E lies in it.
        """
        n = self.pairs.n
        grades = {g for level in self.pairs.quotient_complex().level_grades for g in level}
        entries = {(0, (0, 0)): 1}
        for bideg in grades:
            for p in range(n + 1):
                entries[(p, bideg)] = self.koszul_homology_dim(p, bideg)

        def need(T):
            top = {}
            for (p, (i, j)), v in entries.items():
                if v and i + j <= T:
                    mi, mj = top.get(p, (i, j))
                    top[p] = max(mi, i), max(mj, j)
            return max(mi + mj for mi, mj in top.values()) + 2

        T = window if window is not None else n + 2
        cap = hard_cap if hard_cap is not None else 2 * n + 2
        while T < (grown := need(T)) <= cap:
            T = grown
        for i in range(1, T):
            for j in range(1, T + 1 - i):
                chi = sum((-1) ** p * self._chain_basis(p, (i, j))[1] for p in range(n + 1))
                if chi and (i, j) not in grades:
                    raise RingError(f"Euler characteristic {chi} at {(i, j)}, off F's grades")
        shown = {(p, b): v for (p, b), v in entries.items() if sum(b) <= T}
        certified = all(sum(b) <= T for (_, b), v in entries.items() if v)
        desc = f"i+j<={T} (triangle, auto-widened)"
        table = BettiTable("quotient", "koszul", shown, desc, certified)
        return table.ideal_view() if target == "ideal" else table

    # -- kernels of products ---------------------------------------------------
    def _product_kernel(self, products, target):
        """The one degreewise kernel slice: the kernel of the products m * prod
        in the ideal's index of `target`, for (key, m * prod) in `products`
        (an iterable, consumed once), as dicts {key: int}."""
        idx = self.ideal.index(target)
        keys, vectors = [], []
        for key, poly in products:
            keys.append(key)
            vectors.append({idx[e]: c for e, c in poly.terms.items()})
        kernel = kernel_of_stacked_vectors(self.field, vectors)
        for n, vec in enumerate(kernel):  # in place: one copy of the kernel at a time
            kernel[n] = {keys[i]: c for i, c in vec.items()}
        return kernel

    # -- syzygy slices in y-degree one (derivations) ---------------------------------
    def derivation_slice(self, d: int):
        """Basis of {(c_1..c_n): c_k in R_{d-1}, sum c_k f_k g_k = 0}.

        Vectors are dicts {(k, x-exponent tuple): int}; the slice is the
        degree-(d,1) part of the syzygy module of the generators.
        """
        return self.syzygy_slice(d, 1)

    def derivation_slice_dim(self, d: int) -> int:
        return len(self.derivation_slice(d))

    def derivation_new_generator_count(self, d: int) -> int:
        """dim K_(d,1) minus dim R_1 * K_(d-1,1): minimal generators at degree d.

        The slices are kernels, not pieces grown from known generator
        degrees, so the lower span multiplies by every x-variable; no side
        can be left out."""
        variables = [((1, 0), 1, t) for t in range(self.pairs.r)]
        lower = grow(self.field, (d, 1), variables, lambda g: self.syzygy_slice(*g))
        return self.derivation_slice_dim(d) - lower.dim

    # -- critical-set ideal slices ----------------------------------------------------
    @memo
    def _pair_product(self, gamma):
        """Product of (f_k g_k)^gamma_k in S."""
        k = next((i for i, e in enumerate(gamma) if e), None)
        if k is None:
            return self.ring.one()
        prev = list(gamma)
        prev[k] -= 1
        return self._pair_product(tuple(prev)) * self.pairs.generators[k]

    @memo
    def ix_slice(self, i: int, j: int):
        """Basis of the (i;j) piece of the critical-set ideal.

        The piece is the kernel of R_i (x) A_j -> S_(i+j,j) sending an
        a-monomial to the product of the pair generators, keyed (m, gamma):
        vectors are dicts over (x-exponent, a-exponent) pairs.
        """
        if j == 0 or i < 0:
            return []
        mons = self.ring.monomial_basis((i, 0))
        prods = [(ga, self._pair_product(ga)) for ga in _compositions(j, self.pairs.n)]
        products = (((m, ga), prod.mul_monomial(m)) for ga, prod in prods for m in mons)
        return self._product_kernel(products, (i + j, j))

    def ix_dim(self, i, j):
        """dim I_X(i;j) = rees_kernel_dim(i, 0, j), with no kernel built
        (see the module docstring); `ix_slice` builds that kernel."""
        if j == 0 or i < 0:
            return 0
        return self.rees_kernel_dim(i, 0, j)

    def ix_new_generators(self, i: int, j: int) -> int:
        """Minimal-generator count of the critical-set ideal at (i;j).

        The slices are kernels whose generator degrees are what this counts,
        so no grade coordinate is known to lie above them all: the lower
        span multiplies by every x- and a-variable."""
        variables = [((1, 0), 0, t) for t in range(self.pairs.r)]
        variables += [((0, 1), 1, k) for k in range(self.pairs.n)]
        lower = grow(self.field, (i, j), variables, lambda g: self.ix_slice(*g))
        return self.ix_dim(i, j) - lower.dim

    def ilog_slice(self, der_generators, i: int, j: int):
        """Span of the multiples of the logarithmic generators at (i;j).

        der_generators: list of syzygy c-vectors (as from derivation_slice /
        the derivations module).  Returns (echelon, list of basis keys) in
        the same (x-exponent, a-exponent) coordinates as ix_slice.
        """
        ech = Echelon(self.field)
        for cvec in der_generators:
            g = _lt_vector(self.pairs.n, cvec)
            d = _ix_xdeg(g)
            if d > i or j < 1:
                continue
            gammas = _compositions(j - 1, self.pairs.n)
            for m in self.ring.monomial_basis((i - d, 0)):
                for gamma in gammas:
                    # a translation by (m, gamma) keeps distinct keys distinct
                    ech.insert(
                        {
                            (tuple(map(add, e, m)), tuple(map(add, ga, gamma))): v
                            for (e, ga), v in g.items()
                        }
                    )
        return ech

    @memo
    def _pair_product_ints(self, gamma):
        """The pair product's terms as raw integers, with their scale
        (`spans.to_ints`)."""
        return to_ints(self._pair_product(gamma).terms, self.field.char)

    def ix_contains(self, vec) -> bool:
        """Whether vec, over (x-exponent, a-exponent) keys, lies in the
        critical-set ideal: its image sum v * x^e * prod (f_k g_k)^gamma_k
        in S is zero.  The test is scale-free, so vec and each product are
        integerized and the image is summed in integers."""
        p = self.field.char
        vec = to_ints(vec, p)[0]
        prods = {gamma: self._pair_product_ints(gamma) for _, gamma in vec}
        L = lcm(*(lam for _, lam in prods.values()))
        image = {}
        for (e, gamma), v in vec.items():
            ints, lam = prods[gamma]
            v *= L // lam
            for m, c in ints.items():
                m = tuple(map(add, m, e))
                image[m] = image.get(m, 0) + v * c
        return not any(c % p if p else c for c in image.values())

    # -- bounded linear-type comparison --------------------------------------------------
    @memo
    def power_pieces(self, q: int) -> IdealPieces:
        if q == 1:
            return self.ideal
        gammas = _compositions(q, self.pairs.n)
        return IdealPieces(self.ring, [self._pair_product(gamma) for gamma in gammas])

    def _domain(self, c, d, q):
        """dim S_(c,d) (x) A_q, the domain of the product map."""
        return self.ring.monomial_count((c, d)) * comb(self.pairs.n + q - 1, q)

    def rees_kernel_dim(self, c: int, d: int, q: int) -> int:
        """dim of the (c,d;q) piece of the full relation ideal of the generators.

        That piece is the kernel of the product map S_(c,d) (x) A_q ->
        S_(c+q,d+q), whose image is the (c+q,d+q) piece of I^q: its
        dimension is domain - rank.  `linear_type_check` grows that image
        piece together with the symmetric piece.
        """
        if q == 0:
            return 0
        return self._domain(c, d, q) - self.power_pieces(q).piece((c + q, d + q)).dim

    @memo
    def syzygy_slice(self, c: int, d: int):
        """All a-linear relations in bidegree (c,d): kernel of +S_(c-1,d-1)^n -> S_(c,d)."""
        if c < 1 or d < 1:
            return []
        mons = self.ring.monomial_basis((c - 1, d - 1))
        gens = enumerate(self.pairs.generators)
        products = (((k, m), g.mul_monomial(m)) for k, g in gens for m in mons)
        return self._product_kernel(products, (c, d))

    @memo
    def symmetric_pieces(self) -> IdealPieces:
        """The ideal of S[a] generated by sum_k c_k a_k over the syzygies c
        of the pair generators from one tracked Groebner run; x, y and a_k
        have grades (1,0,0), (0,1,0) and (0,0,1).

        f_k g_k enters the run as `to_ints`, so c_k is multiplied back by
        its scale; a zero generator gives a_k.  `linear_type_check` needs this
        ideal in the kernel of the product map, which is an ideal: so each
        generator must map to zero (`ix_contains`), or RingError is raised.
        """
        S, n = self.ring, self.pairs.n
        names = S.names + tuple(f"a{k + 1}" for k in range(n))
        ring = PolyRing(self.field, names, [g + (0,) for g in S.grades] + [(0, 0, 1)] * n)
        ints = [to_ints(g.terms, self.field.char) for g in self.pairs.generators]
        raws = [{(0, e): v for e, v in t.items()} for t, _ in ints]
        gens = []
        for syz in module_syzygies(ModuleContext(S), raws):
            vec = _lt_vector(n, {(k, e): v * ints[k][1] for (k, e), v in syz.items()})
            if not self.ix_contains(vec):
                raise RingError("a syzygy of the pair generators is not in the kernel")
            gens.append(ring.from_terms((e + a, v) for (e, a), v in vec.items()))
        return IdealPieces(ring, gens)

    def symmetric_kernel_dim(self, c: int, d: int, q: int) -> int:
        """dim of the (c,d;q) piece of the symmetric ideal; (c,d) is the
        coefficient S-degree, as in rees_kernel_dim, so at q = 1 it is the
        relation space in target degree (c+1,d+1)."""
        return self.symmetric_pieces().dim((c, d, q))

    def linear_type_check(self, bound: int):
        """Compare relation and symmetric-kernel pieces up to the bound.

        Scans every multidegree with a-degree 1 <= q <= bound and x+y degree
        c+d <= bound; returns (verdict, list of per-degree records).  The
        first record with equal=False exhibits a non-linear relation degree.

        Both pieces of a degree grow together (`spans.grow_pieces`), each
        bounded by the other: the symmetric piece lies in the kernel of the
        product map, so sym + rank <= domain, and once the two echelons'
        dimensions s <= sym and r <= rank sum to the domain, both are
        whole (s <= sym <= domain - rank <= domain - r = s).  That needs
        each syzygy generator of the symmetric ideal to map to zero
        (`symmetric_pieces`); more new leads than the domain holds raise
        RingError too.  Only a degree that is not of linear type grows
        both pieces in full.  Lower pieces are visited first.
        """
        records = []
        all_equal = True
        sym = self.symmetric_pieces()
        for q in range(1, bound + 1):
            for total in range(0, bound + 1):
                for c in range(total + 1):
                    d = total - c
                    rees = (self.power_pieces(q), (c + q, d + q))
                    grow_pieces([(sym, (c, d, q)), rees], self._domain(c, d, q))
                    dl = self.symmetric_kernel_dim(c, d, q)
                    dj = self.rees_kernel_dim(c, d, q)
                    if dj or dl:
                        eq = dj == dl
                        records.append(
                            {"x": c, "y": d, "a": q, "rees": dj, "sym": dl, "equal": eq}
                        )
                        if not eq:
                            all_equal = False
        return all_equal, records


def theta_from_syzygy(pairs: PairsIdeal, cvec):
    """Derivation theta with theta(f_j) = c_j f_j from a syzygy c-vector.

    cvec maps (k, x-exponent) -> coefficient.  Returns the tuple of
    polynomials (theta applied to x_1..x_r), i.e. (c_i * x_i) for i < r.
    Raises RingError if the defining identity fails.
    """
    S = pairs.ring
    r = pairs.r
    cpolys = []
    for k in range(pairs.n):
        terms = [(e, v) for (kk, e), v in cvec.items() if kk == k]
        cpolys.append(S.from_terms(terms))
    theta = [cpolys[i] * S.var(i) for i in range(r)]
    for j in range(pairs.n):
        if apply_theta(theta, pairs.f[j]) - cpolys[j] * pairs.f[j]:
            raise RingError("syzygy does not define a logarithmic derivation")
    return theta


def apply_theta(theta, f: Poly) -> Poly:
    """theta(f) = sum_i theta_i * coeff(f, x_i) for a linear form f, with
    theta the tuple of polynomials theta(x_1), ..., theta(x_r)."""
    out = f.ring.zero()
    for e, c in f.terms.items():
        out = out + theta[e.index(1)].scale(c)
    return out


# -- helpers --------------------------------------------------------------------


def _ix_xdeg(gvec):
    for (e, _g) in gvec:
        return sum(e)
    return 0


def _lt_vector(n, kvec):
    """Rewrite a syzygy {(k, s-exponent): v} into (s-exponent, a-exponent) keys."""
    return {(e, _unit(n, k)): v for (k, e), v in kvec.items()}
