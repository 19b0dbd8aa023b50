"""Incremental echelon spans, and the coefficient kernel shared with groebner.

Vectors are sparse dicts {column index: coefficient}.  Over QQ the rows are
kept as primitive integer vectors (fraction-free eliminations in the sense
of Bareiss, exact); over GF(p) as residues with pivot 1.  The pivot of a row
is its smallest column index, so callers index columns so that "leading"
means "smallest index".

Supports rank/span growth, canonical reduction against the span (for
quotient bases) and the reduced echelon form (`Echelon.reduced`, which
gives the pinned bases of a realization and the reduced bases of linear
ideals); `insert` is the one way into an echelon.  The kernel of vectors
v_i is read off the echelon of the rows (v_i | e_i)
(`kernel_of_stacked_vectors`).  The tag columns e_i lie after every vector
column and run in reverse, so a dependent row is led by its own tag, which
no earlier row holds, and no later row reaches it: it is a kernel vector as
it stands, and leaves the echelon at once.

Graded pieces are grown degree by degree from one candidate list,
`multiples`: the variable multiples of the lower pieces.  One loop, `fill`,
adds them, those with a new lead first, and stops at a dimension bound
when the caller has one.  A multiple of a kept piece's row with a new lead
is stored as it is: re-indexing a row by a monomial gives a row (primitive
with a positive pivot, or pivot 1) led by the image of its lead; every
other candidate is inserted, unless an involutive test shows that those
before it span it (`_spanned`; Janet's multiplicative variables,
Gerdt-Blinkov, Involutive bases of polynomial ideals, 1998).  `fill` also
fills spans against one bound on their sum (`grow_pieces`, the two sides
of linear type), and is the Koszul boundary ranks' loop.  `Pieces`
memoizes the pieces of a submodule grown that way, from one side where
the generators' grades allow it (`Pieces.multiples`); `graded.IdealPieces`
and `resolution.ModulePieces` are its two kinds.

The coefficient kernel is three primitives, used here and by `groebner`:

- `to_ints(vec, p)`: the only way field scalars become raw integer
  coefficients.  Over QQ it clears denominators; over GF(p) it returns
  residues.
- `strip(vec, *others)`: divide by the joint integer content.
- `cancel(a, b, p)`: the multipliers that cancel a lead coefficient a
  against a pivot b.  Over QQ they are the gcd-reduced cross multipliers;
  over GF(p) the pivot is scaled by a * b^-1.

The per-field arithmetic is fixed: over QQ a forward elimination strips the
content after a step that scaled the vector; in between it differs from the
stripped vector by a positive factor, so the pivots visited and the stored
row are the same.  A full reduction strips once, jointly with its scale.
Over GF(p) eliminations never strip, and stored rows are scaled to pivot
1.  `axpy(dst, items, beta, p)` applies one step's update; it tests the
field once per call, not once per entry.
"""

from __future__ import annotations

from itertools import zip_longest
from math import gcd, lcm
from operator import le, sub

from .ring import RingError


def to_ints(vec, p):
    """(ints, lam): raw integer coefficients with ints == lam * vec, zeros
    dropped, in a new dict.  Over QQ (p == 0) lam clears the denominators,
    and nonzero int entries are copied as they are; over GF(p) the entries
    are residues and lam == 1."""
    if p:
        return {k: r for k, v in vec.items() if (r := v % p)}, 1
    if {*map(type, vec.values())} == {int} and 0 not in vec.values():
        return dict(vec), 1
    den = lcm(*[v.denominator for v in vec.values()])
    if den == 1:
        return {k: v.numerator for k, v in vec.items() if v}, 1
    return {k: v.numerator * (den // v.denominator) for k, v in vec.items() if v}, den


def strip(vec, *others):
    """Divide vec and the dicts in `others` (None skipped) by the gcd of all
    their values, in place; returns vec."""
    g = 0
    for v in vec.values():
        g = gcd(g, v)
        if g == 1:
            return vec
    for d in others:
        for v in (d or {}).values():
            g = gcd(g, v)
            if g == 1:
                return vec
    if g > 1:
        for d in (vec, *others):
            for k in d or ():
                d[k] //= g
    return vec


def cancel(a, b, p):
    """(alpha, beta) with alpha * a == beta * b, so that alpha * x - beta * y
    clears the entry a of x against the entry b of y.  Over QQ the
    gcd-reduced cross multipliers with alpha > 0; over GF(p) alpha == 1."""
    if b == 1:
        return 1, a
    if p:
        return 1, a * pow(b, p - 2, p) % p
    g = gcd(a, b)
    return (b // g, a // g) if b > 0 else (-b // g, -a // g)


def axpy(dst, items, beta, p):
    """dst -= beta * y for the (key, y) pairs in items, in place, with
    residues mod p over GF(p); entries that vanish are dropped."""
    if p:
        for k, y in items:
            v = (dst.get(k, 0) - beta * y) % p
            if v:
                dst[k] = v
            else:
                dst.pop(k, None)
    else:
        for k, y in items:
            v = dst.get(k, 0) - beta * y
            if v:
                dst[k] = v
            else:
                dst.pop(k, None)


def _bump(key, slot, i, by):
    """key with exponent i of its slot `slot` (0 or 1) raised by `by`, for
    keys that are pairs with an exponent tuple in that slot: the key of a
    variable multiple (key order is a monomial order, so it is kept)."""
    e = key[slot]
    e = (*e[:i], e[i] + by, *e[i + 1 :])
    return (key[0], e) if slot else (e, key[1])


def multiples(grade, variables, lower, columns=None, gens=()):
    """The `fill` candidates of the span of the variable multiples of the
    lower pieces and of the vectors `gens`.

    variables: (shift, slot, i) per variable; its multiple of a row of the
    piece at grade - shift raises exponent i of the row's keys, in key slot
    `slot` (see `_bump`).  lower(prev) gives the piece at prev, and is asked
    only when prev >= 0 entrywise: an `Echelon`'s rows {pivot: row}, or a
    list of vectors.  With columns, a function grade -> (monomials,
    {monomial: position}), rows are keyed by positions in those lists
    instead: the multiple re-indexes each monomial of prev once for all its
    rows, and the column order stays that of the lists.

    Callers may pass a subset of the variables: the result is the same
    span whenever every monomial that carries a lower generator to `grade`
    is divisible by one of them (see `Pieces.multiples`).

    Columns follow a monomial order, so the lead of a multiple is the
    multiple of the row's lead (an echelon row's pivot key), known before
    the multiple is built; the multiples of an echelon's rows are rows,
    and come in descending pivot order with the test of `_spanned`.
    """
    sources = []  # (rows, lead of a key, multiple, are the rows echelon rows, spanned)
    before = []  # (shift, slot, i) of the echelon sources so far
    for shift, slot, i in variables:
        prev = tuple(map(sub, grade, shift))
        if min(prev) < 0 or not (rows := lower(prev)):
            continue
        if columns is None:
            lead = lambda key, slot=slot, i=i: _bump(key, slot, i, 1)
            build = lambda row, lead=lead: {lead(k): v for k, v in row.items()}
        else:
            to = columns(grade)[1]
            col = [to[e[:i] + (e[i] + 1,) + e[i + 1 :]] for e in columns(prev)[0]]
            lead, build = col.__getitem__, lambda row, col=col: {col[c]: v for c, v in row.items()}
        spanned = None
        if is_row := isinstance(rows, dict):
            rows = sorted(rows.items(), reverse=True)
            spanned = _spanned(grade, prev, slot, i, before, lower, columns)
            before.append((shift, slot, i))
        sources.append((rows, lead, build, is_row, spanned))
    sources.append((gens, lambda key: key, dict, False, None))
    return (
        (lead(key), build, row, is_row, spanned)
        for rows, lead, build, is_row, spanned in sources
        for key, row in (rows if is_row else zip(map(min, rows), rows))
    )


def _spanned(grade, prev, slot, i, before, lower, columns):
    """The test, on its lead, that the candidates before x_t v span it, v
    the row of the whole piece P(prev) with pivot L and x_t the variable
    (slot, i); None if no variable before x_t can pass.  It passes when
    some x_u before x_t divides L and L / x_u is a pivot of P(prev - deg
    x_u), of row w: v - c x_u w is a sum of rows with larger pivots, and
    x_t x_u w = x_u (x_t w) an x_u-multiple of P(grade - deg x_u); by
    induction on (variable, pivot descending) x_t v eliminates to zero.
    lower answers for whole pieces only, falsy otherwise."""
    checks = []  # (slot, variable, rows of P(prev - deg x_u), its column index)
    for shift, uslot, u in before:
        below = tuple(map(sub, prev, shift))
        if min(below) >= 0 and (rows := lower(below)):
            checks.append((uslot, u, rows, columns(below)[1] if columns else None))
    if not checks:
        return None
    if columns is None:

        def spanned(lead):
            key = _bump(lead, slot, i, -1)
            return any(key[s][u] and _bump(key, s, u, -1) in rows for s, u, rows, _ in checks)

        return spanned
    mons = columns(grade)[0]

    def spanned(lead):
        e = mons[lead]
        e = (*e[:i], e[i] - 1, *e[i + 1 :])
        return any(e[u] and idx[(*e[:u], e[u] - 1, *e[u + 1 :])] in rows for _, u, rows, idx in checks)

    return spanned


def grow(field, *args):
    """The Echelon span of `multiples(*args)`."""
    ech = Echelon(field)
    fill([(ech, multiples(*args))])
    return ech


def fill(sides, bound=None):
    """For each (ech, candidates) in sides, add build(arg) to ech for each
    (lead, build, arg, is_row, spanned) in candidates, lead being the
    smallest column of build(arg), which is built only when it goes in:
    first each candidate whose lead is not yet a pivot, with no elimination
    (stored as it is if `is_row` says it is a row already), then the rest,
    the sides in turn, until the dimensions sum to `bound`, which the
    caller certifies to bound the sum of the whole spans; each span is then
    whole (with no bound, all go in).  A candidate whose lead is a pivot
    already is left out when `spanned`, None or a test on its lead, says
    the candidates before it span it.  Returns the sum; it exceeds `bound`
    only if the first pass did, disproving it."""
    later = []
    for ech, candidates in sides:
        later.append([])
        for lead, build, arg, is_row, spanned in candidates:
            if lead in ech.rows:
                if not (spanned and spanned(lead)):
                    later[-1].append((ech, build, arg))
            elif is_row:
                ech.rows[lead] = build(arg)
            else:
                ech.insert(build(arg))
    total = sum(ech.dim for ech, _ in sides)
    for turn in zip_longest(*later):
        for ech, build, arg in filter(None, turn):
            if bound is not None and total >= bound:
                return total
            total += ech.insert(build(arg))
    return total


def grow_pieces(requests, bound=None):
    """Grow the pieces P.piece(grade), (P, grade) in requests, by one `fill`
    with that bound on their sum, and keep them; a kept piece joins as it
    is.  Returns the sum, or raises RingError, keeping nothing, if the
    first pass exceeds `bound`."""
    sides = []
    for P, g in requests:
        if g in P._pieces:
            sides.append((P._pieces[g], ()))
        else:
            sides.append((Echelon(P.field), P.multiples(g, P.generators(g))))
    total = fill(sides, bound)
    if bound is not None and total > bound:
        grades = [grade for _, grade in requests]
        raise RingError(f"the pieces at {grades} have {total} leads, past the bound {bound}")
    for (P, grade), (ech, _) in zip(requests, sides):
        P._pieces[grade] = ech
    return total


class Pieces:
    """Memoized graded pieces of a submodule: the piece at a grade is grown
    from the lower pieces, and spans the generators of that grade.

    `variables` and `columns` are as in `multiples`; `gens` maps a grade to
    the generators sitting in it, and `generators(grade)` their vectors
    (here the generators themselves).  Since the generator grades are
    known, each piece is grown by the variables of one grade coordinate
    when that gives the same span (`multiples`), which leaves out the
    multiples that would all be eliminated to zero.
    """

    columns = None

    def __init__(self, field, variables):
        self.field = field
        self.variables = variables
        self.gens = {}
        # not a memo: `grow_pieces` fills the pieces of several grades at once
        self._pieces = {}

    def multiples(self, grade, gens=()):
        """The `fill` candidates of the span of the generators strictly below
        `grade`, times S, and of `gens`.

        It is grown from one side: if some coordinate k has g[k] < grade[k]
        for every generator grade g strictly below, only the variables of
        positive k-th grade multiply (the first such k; all variables if
        none; none if no generator lies below).  Each monomial of
        S_(grade - g) is then divisible by one of them, so the span, and
        with it the pivots and `Echelon.reduce` residuals, is that of all
        variable multiples.
        """
        below = [g for g in self.gens if g != grade and all(map(le, g, grade))]
        variables = self.variables if below else []
        for k, top in enumerate(grade):
            if all(g[k] < top for g in below):
                variables = [v for v in variables if v[0][k] > 0]
                break
        for shift, _, _ in variables:  # grown first: `multiples` reads kept pieces
            if min(prev := tuple(map(sub, grade, shift))) >= 0:
                self.piece(prev)
        kept = lambda g: g in self._pieces and self._pieces[g].rows
        return multiples(grade, variables, kept, self.columns, gens)

    def lower_span(self, grade) -> Echelon:
        """The span of the generators strictly below `grade`, times S."""
        ech = Echelon(self.field)
        fill([(ech, self.multiples(grade))])
        return ech

    def piece(self, grade) -> Echelon:
        """The piece at `grade`, kept (see `grow_pieces`)."""
        if grade not in self._pieces:
            grow_pieces([(self, grade)])
        return self._pieces[grade]

    def generators(self, grade):
        return self.gens.get(grade, ())


class Echelon:
    """A growing row space in echelon form over QQ (int rows) or GF(p)."""

    __slots__ = ("field", "p", "rows")

    def __init__(self, field):
        self.field = field
        self.p = getattr(field, "char", 0)
        self.rows = {}  # pivot column -> row dict

    @property
    def dim(self):
        return len(self.rows)

    def pivot_columns(self):
        return set(self.rows)

    def insert(self, vec) -> bool:
        """Add vec to the span, stored primitive with a positive pivot (QQ)
        or with pivot 1 (GF(p)); True if the dimension grew."""
        res, _ = self._eliminate(to_ints(vec, self.p)[0], False)
        if not res:
            return False
        piv = min(strip(res))
        if self.p:
            inv = pow(res[piv], self.p - 2, self.p)
            if inv != 1:
                res = {k: (v * inv) % self.p for k, v in res.items()}
        elif res[piv] < 0:
            res = {k: -v for k, v in res.items()}
        self.rows[piv] = res
        return True

    def reduce(self, vec):
        """Canonical residual of vec against the span (no insertion).

        Returns (residual, lam) with residual == lam * vec modulo the span,
        lam a positive int (QQ) or 1 (GF(p)); the residual has no support on
        pivot columns.  Scale-free uses (membership, quotient dimensions)
        may ignore lam.
        """
        ints, den = to_ints(vec, self.p)
        res, lam = self._eliminate(ints, True)
        return res, lam * den

    def contains(self, vec) -> bool:
        res, _ = self.reduce(vec)
        return not res

    def reduced(self):
        """The reduced echelon form {pivot: row}, pivots ascending: each row
        cleared on the other pivots, primitive with a positive pivot (QQ) or
        with pivot 1 (GF(p))."""
        out = {}
        for piv, row in sorted(self.rows.items()):
            res, lam = self.reduce({c: v for c, v in row.items() if c != piv})
            res[piv] = lam * row[piv]
            out[piv] = strip(res)
        return out

    # -- internals ----------------------------------------------------------
    def _eliminate(self, vec, full):
        """Clear the pivoted columns of vec, smallest first, in place.

        Not full: stop at the first free column and return (vec, 1).  Full:
        move free columns aside and return (residual, lam) with residual ==
        lam * vec modulo the span.
        """
        p, rows = self.p, self.rows
        out = {}
        lam = 1
        while vec:
            c = min(vec)
            row = rows.get(c)
            if row is None:
                if not full:
                    return vec, lam
                out[c] = vec.pop(c)
                continue
            a, b = vec[c], row[c]
            # a pivot of 1 (every GF(p) pivot) needs no call to cancel
            alpha, beta = (1, a) if b == 1 else cancel(a, b, p)
            if alpha != 1:
                lam *= alpha
                for d in (vec, out):
                    for k in d:
                        d[k] *= alpha
            axpy(vec, row.items(), beta, p)
            if alpha != 1 and not (p or full):
                strip(vec)
        g = gcd(lam, *out.values())
        if g > 1:
            lam //= g
            for k in out:
                out[k] //= g
        return out, lam


def kernel_of_stacked_vectors(field, vectors):
    """The combinations {vector index: coefficient} that vanish on `vectors`
    (sparse dicts over int columns), one per vector that depends on those
    before it, primitive over QQ: the augmented echelon's rows led by a tag
    (module docstring; Cohen, Computational Algebraic Number Theory, 2.3)."""
    ids = list(range(len(vectors)))  # one int per index, shared by the kernel
    top = max((c for v in vectors for c in v), default=-1) + len(ids)
    ech, kernel = Echelon(field), []
    for i, v in zip(ids, vectors):
        ech.insert({**v, top - i: 1})
        if (row := ech.rows.pop(top - i, None)) is not None:
            kernel.append({ids[top - c]: x for c, x in row.items()})
    return kernel
