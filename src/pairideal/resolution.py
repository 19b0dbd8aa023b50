"""Multigraded free resolutions: one engine, the Schreyer complex.

`schreyer_resolution` builds an exact, generally non-minimal free complex
over a submodule N of a shifted free module F0 from induced-order syzygy
bases (tracked Buchberger: exact, no window).  It starts from the reduced
Groebner basis of N that the caller holds: for S/I the basis of
`PairsIdeal.ideal_object()`, for a slice module the one its colon tests
use.  The minimal Betti numbers of F0/N are read gradewise off its scalar
parts (La Scala-Stillman, JSC 1998); index 0 is F0, and Tor_p(N) =
Tor_{p+1}(F0/N) for p >= 1 because F0 is free.
Each level's induced order is an int key (`induced_key`): the ambient int
term key of a term's image, then its chain of positions, so it stays
additive under monomial shifts as the Buchberger kernel needs.
`SchreyerResolution.rank_at` evaluates a differential at a point and takes
its rank, for the rank test of `primes.ranks_rule_out`.
`minimal_generators` extracts a minimal generating subset degreewise.
"""

from __future__ import annotations

from math import prod
from operator import add

from .groebner import WIDTH, ModuleContext, _shifted, buchberger, complement
from .memo import memo
from .ring import PolyRing
from .spans import Echelon, Pieces, axpy, to_ints


class ResolutionError(ValueError):
    pass


def raw_grade(ring: PolyRing, raw, shifts):
    """Common multigrade of a homogeneous raw module element."""
    grade = None
    for (pos, exp), _c in raw.items():
        g = ring.exp_grade(exp)
        s = shifts[pos]
        total = tuple(a + b for a, b in zip(g, s))
        if grade is None:
            grade = total
        elif grade != total:
            raise ResolutionError("inhomogeneous module element")
    return grade


class ModulePieces(Pieces):
    """Multigrade pieces of the submodule that the nonzero `elements`
    generate in a shifted free module, grown lazily from variable multiples
    of lower pieces plus the elements sitting in the exact grade."""

    def __init__(self, ring: PolyRing, shifts, elements):
        super().__init__(ring.field, [(g, 1, t) for t, g in enumerate(ring.grades)])
        for raw in filter(None, elements):
            self.gens.setdefault(raw_grade(ring, raw, shifts), []).append(raw)


def minimal_generators(ring: PolyRing, elements, shifts):
    """A minimal generating subset of homogeneous module elements.

    Elements are processed, and returned, in increasing (total degree,
    grade); one is kept exactly when it is independent of the submodule
    generated by those already kept in its own multigrade (Nakayama
    degreewise).  The pieces hold every element: below a grade, all of them
    span what the kept ones span.
    """
    pieces = ModulePieces(ring, shifts, elements)
    kept = []
    for grade in sorted(pieces.gens, key=lambda g: (sum(g), g)):
        ech = pieces.lower_span(grade)
        kept += [raw for raw in pieces.gens[grade] if ech.insert(dict(raw))]
    return kept


class SchreyerResolution:
    """An exact complex of free modules built from iterated syzygy bases.

    Level p stores raw elements over the basis of level p-1 (level 0 raw
    elements live in the ambient free module).  Each level is a Groebner
    basis of the kernel of the previous differential for the induced order,
    so the complex is exact; it is generally non-minimal, and the minimal
    Betti numbers are the homology of the complex with all variables set to
    zero, computed gradewise.
    """

    def __init__(self, ring, ambient_shifts, levels, level_grades):
        self.ring = ring
        self.ambient_shifts = ambient_shifts
        self.levels = levels  # levels[p] = list of raw dicts
        self.level_grades = level_grades  # grades per element, per level

    def free_rank(self, p):
        """b_p, the rank of F_p: F_0 is the ambient module, F_p = 0 past the end."""
        if p == 0:
            return len(self.ambient_shifts)
        return len(self.levels[p - 1]) if p <= len(self.levels) else 0

    @memo
    def _evaluation_table(self, p):
        """(monomials, columns, top) of differential p: its distinct exponents
        as sparse [(variable, power)], each column as [(pos, coeff, monomial
        index, top degree of the column - degree)], and the largest of those
        degree gaps."""
        index = {}
        columns = []
        for raw in self.levels[p - 1]:
            top = max(sum(e) for _, e in raw)
            columns.append(
                [
                    (pos, c, index.setdefault(e, len(index)), top - sum(e))
                    for (pos, e), c in raw.items()
                ]
            )
        monomials = [[(i, k) for i, k in enumerate(e) if k] for e in index]
        return monomials, columns, max((t[3] for col in columns for t in col), default=0)

    def rank_at(self, p, point, bound=None):
        """Rank of the differential d_p: F_p -> F_(p-1) evaluated at a point.

        0 unless 1 <= p <= the length.  The monomials are evaluated in
        integers (residues over GF(p)) at den * point, where den clears the
        point's denominators; a monomial of degree k then carries a spare
        den^k, and each column is scaled by den^(its top degree) to clear
        them, which keeps the rank.  The level's distinct monomials and
        column layout are tabulated once (`_evaluation_table`); per point
        each monomial and each power of den is computed once, and the
        columns are built by lookups.  Given a bound on the rank that the
        caller certifies, the columns stop once the rank meets it.
        """
        if not 1 <= p <= len(self.levels):
            return 0
        char = self.ring.field.char
        x, den = to_ints(dict(enumerate(point)), char)
        monomials, columns, gap = self._evaluation_table(p)
        values = [prod(x.get(i, 0) ** k for i, k in m) for m in monomials]
        if char:
            values = [v % char for v in values]
        powers = [den**k for k in range(gap + 1)]
        ech = Echelon(self.ring.field)
        for terms in columns:
            if ech.dim == bound:
                break
            col = {}
            for pos, c, j, k in terms:
                col[pos] = col.get(pos, 0) + c * values[j] * powers[k]
            ech.insert(col)
        return ech.dim

    def scalar_columns(self, p):
        """Constant-coefficient part of differential p (level index p)."""
        zero = (0,) * self.ring.nvars
        cols = []
        for raw in self.levels[p]:
            col = {}
            for (pos, e), c in raw.items():
                if e == zero:
                    col[pos] = c
            cols.append(col)
        return cols

    def minimal_betti(self):
        """Minimal Betti numbers {(p, grade): dim} of the resolved module.

        Index p=0 refers to the ambient free module's contribution (for a
        quotient resolution this is the module itself).
        """
        grades_by_level = [list(self.ambient_shifts)]
        grades_by_level += [list(g) for g in self.level_grades]
        scalars = [self.scalar_columns(p) for p in range(len(self.levels))]
        all_grades = sorted({g for lv in grades_by_level for g in lv})
        entries = {}
        for g in all_grades:
            idx_sets = [
                [i for i, gg in enumerate(lv) if gg == g] for lv in grades_by_level
            ]
            dims = [len(s) for s in idx_sets]
            if not any(dims):
                continue
            ranks = [0] * (len(self.levels) + 1)
            for p in range(len(self.levels)):
                if not dims[p + 1] or not dims[p]:
                    continue
                rows = {pos: r for r, pos in enumerate(idx_sets[p])}
                ech = Echelon(self.ring.field)
                for i in idx_sets[p + 1]:
                    col = scalars[p][i]
                    vec = {rows[pos]: c for pos, c in col.items() if pos in rows}
                    if vec:
                        ech.insert(vec)
                ranks[p + 1] = ech.dim
            for p in range(len(grades_by_level)):
                h = dims[p] - ranks[p] - (ranks[p + 1] if p + 1 < len(ranks) else 0)
                if h:
                    entries[(p, g)] = h
        return entries

    def verify_complex(self) -> bool:
        """Consecutive differentials compose to zero (exact raw arithmetic)."""
        char = self.ring.field.char
        for prev, level in zip(self.levels, self.levels[1:]):
            for raw in level:
                acc = {}
                for (idx, e), c in raw.items():
                    axpy(acc, _shifted(prev[idx], e), -c, char)
                if acc:
                    return False
        return True


def induced_key(base_key, origin, leads, bits):
    """(key, origin) of the induced order on the next level, whose positions
    are the elements with the given leads: base_key of a term's image, `bits`
    up, then the complemented positions on the way down, WIDTH bits each.  It
    sorts as the nested key (the previous level's key of the image under the
    lead, then -position).  origin[pos] = (ambient position, exponent shift,
    packed positions)."""
    origin = [
        (amb, tuple(map(add, shift, le)), chain << WIDTH | complement(i))
        for i, (lp, le) in enumerate(leads)
        for amb, shift, chain in [origin[lp]]
    ]

    def key(term):
        amb, shift, chain = origin[term[0]]
        return base_key((amb, tuple(map(add, shift, term[1])))) << bits | chain

    return key, origin


def schreyer_resolution(ctx: ModuleContext, basis, shifts) -> SchreyerResolution:
    """Exact free complex over a submodule N of the free module with grade
    shifts `shifts`, via induced-order syzygies.

    `basis` is the reduced Groebner basis of N (`groebner.reduced_basis`)
    computed in `ctx`, whose term key is the order on F0.  Level 1 is that
    basis; level p+1 is a minimal-lead Groebner basis of the syzygies of
    level p with respect to the induced order.
    """
    ring = ctx.ring
    levels = []
    level_grades = []
    cur_elements = [g.raw for g in basis]
    leads = [g.lead for g in basis]
    cur_key = base_key = ctx.term_key
    origin = [(q, ring.zero_exp, 0) for q in range(len(shifts))]
    while cur_elements:
        grades = [
            raw_grade(ring, raw, level_grades[-1] if levels else shifts) for raw in cur_elements
        ]
        levels.append(cur_elements)
        level_grades.append(grades)
        next_key, origin = induced_key(base_key, origin, leads, WIDTH * len(levels))
        level_ctx = ModuleContext(
            ring,
            shifts={i: sum(g) for i, g in enumerate(grades)},
            key_fn=cur_key,
        )
        gb, syz = buchberger(level_ctx, cur_elements, track=True)
        if len(gb) != len(cur_elements):
            raise ResolutionError("induced-order basis grew (syzygy level not a GB)")
        # minimal-lead subset stays a Groebner basis of the syzygy module
        syz = [s for s in syz if s]
        with_leads = [(max(s, key=next_key), s) for s in syz]
        # ascending degree so divisors are kept before their multiples
        with_leads.sort(key=lambda t: (sum(t[0][1]), next_key(t[0])))
        cur_elements = []
        leads = []
        for lt, s in with_leads:
            pos, exp = lt
            redundant = any(
                p2 == pos and all(a <= b for a, b in zip(e2, exp))
                for (p2, e2) in leads
            )
            if not redundant:
                cur_elements.append(s)
                leads.append(lt)
        cur_key = next_key
    return SchreyerResolution(ring, list(shifts), levels, level_grades)
