"""Buchberger engine for ideals and submodules of free modules.

Internals run on raw sparse data: a module term is (position, exponent
tuple) and an element is a dict of such terms with integer coefficients
(primitive over QQ, residues over GF(p)).  Ideals are rank-one modules.

Coefficients come from the kernel in `spans`: `to_ints` turns a Poly into
raw integers, `cancel` gives the multipliers of each reduction step (the
gcd-reduced cross multipliers over QQ, a * b^-1 over GF(p)), and `strip`
divides by the joint content.  Over QQ `_reduce` strips after a step that
scaled the vector (in between it differs from the stripped one by a
positive factor), S-pairs cross-multiply the gcd-reduced leading
coefficients, and new basis elements and syzygies are made primitive; over
GF(p) S-pairs cross-multiply the leading residues, and only new basis
elements are stripped (by the integer gcd of their residues).  Normal forms
are canonical in both fields: primitive with a positive lead over QQ,
monic over GF(p).  So colon witnesses, which are normal forms, do not
depend on how a run scales its elements.

In a run, elements are dicts over int term keys (`ModuleContext.term_key`),
which sort as the term order and add under monomial shifts: the keys of x^m
g are g's plus delta(m), the key of the lead it cancels less g's lead key,
and each term is built once per run.  `_reduce` pops leads off a heap of
negated keys (Monagan-Pearce, JSC 2011) and takes the first divisor from
per-lead-position lists in basis order.  Ideals of linear forms get their
reduced bases from the reduced echelon form of their coefficient rows
(`Echelon.reduced`), with no Buchberger run.

The engine optionally tracks each basis element as a combination of the
input generators; in tracked runs the zero-reduction combinations form a
generating set of the syzygy module of the inputs (the coprime-lead pair
skip is disabled there, and chain-skipped pairs are covered by retained
ones).  Inputs in an inert group enter untracked: tracking is linear, so
the combinations are then the projections onto the other inputs, and
reductions by inert elements cost nothing on the combination side.

Pending S-pairs wait in a heap (the pair queue of Gebauer and Moeller).
A pair's selection key, (degree of the lcm term, term key of the lcm, i,
j), is computed once when the pair is made, since leads never change; the
heap pops the pair of smallest key, which fixes the selection order.  The
chain criterion drops pairs from a dict of live pairs (each with its
stored lcm) and leaves their heap entries behind; a popped entry whose
pair is no longer live is skipped.

Every colon is one primitive, `colon_module`: a tracked run with the
Groebner basis of the submodule N entering as inert blocks, restricted to
the tracked elements.  Every ideal operation past membership runs on it:
the colons (I : J), one copy of I per generator of J; saturation, by
iterated colons; intersection, as the c with c * (e_1 + ... + e_k) in
I_1 e_1 + ... + I_k e_k (Greuel-Pfister, A Singular Introduction to
Commutative Algebra); radical membership, as I : h^infinity = (1) (Cox-
Little-O'Shea, Ideals, Varieties, and Algorithms, ch. 4); and the exact
associated-prime test for linear primes (`linear_prime_is_associated`),
which serves both S/I (rank one) and the slice modules E/N.

Other derived operations: reduced bases (`reduced_basis`, which also gives
level 1 of every Schreyer complex), normal forms, membership, and Krull
dimension from the initial ideal.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd
from operator import add, le, sub

from .memo import memo
from .ring import Poly, PolyRing, _unit
from .spans import Echelon, axpy, cancel, strip, to_ints


class GroebnerError(ValueError):
    pass


# Optional diagnostics hook, called as TRACE(processed, pending, basis) after
# every TRACE_EVERY-th processed pair: `processed` counts the live pairs
# popped so far in this run, `pending` the live pairs still queued (stale
# heap entries left by the chain criterion are not counted) and `basis` is
# the run's current list of GBElements.
TRACE = None
TRACE_EVERY = 1000


# ---------------------------------------------------------------------------
# raw element helpers


def poly_to_raw(p: Poly):
    """Poly -> {(0, exp): int coeff} through `to_ints`; primitive over QQ."""
    char = p.ring.field.char
    ints, _ = to_ints(p.terms, char)
    raw = {(0, e): v for e, v in ints.items()}
    return raw if char else strip(raw)


def raw_to_poly(ring: PolyRing, raw):
    F = ring.field
    terms = [(e, F.of(c)) for (q, e), c in raw.items() if q == 0]
    return ring.from_terms(terms)


def _shifted(raw, m):
    """The (term, coeff) pairs of the monomial multiple m * raw."""
    return [((q, _addexp(e, m)), v) for (q, e), v in raw.items()]


def _divides(e1, e2):
    return all(map(le, e1, e2))


def _sub(e2, e1):
    return tuple(map(sub, e2, e1))


def _addexp(e1, e2):
    return tuple(map(add, e1, e2))


WIDTH = 32  # bits of each fixed-width field of a term key
_TOP = (1 << WIDTH) - 1


def complement(value):
    """The key field of a value that sorts in reverse: _TOP - value."""
    if not 0 <= value <= _TOP:
        raise GroebnerError(f"{value} does not fit a {WIDTH}-bit term key field")
    return _TOP - value


class ModuleContext:
    """Ring + module order data shared by one Buchberger run.

    The module order is term over position: position breaks ties."""

    def __init__(self, ring: PolyRing, shifts=None, key_fn=None):
        self.ring = ring
        self.char = ring.field.char
        self.shifts = shifts or {}
        self.low = min([0, *self.shifts.values()])
        if key_fn is not None:
            self.term_key = key_fn

    def term_key(self, term):
        """The int that sorts as (degree + shift, degrevlex(exp), -pos): degree
        + shift on top, then WIDTH-bit fields for the degree, the complemented
        exponents (last variable first) and position.  Every term a run
        derives from this one has degree at most degree + shift - low."""
        pos, exp = term
        deg = sum(exp)
        top = deg + self.shifts.get(pos, 0)
        complement(top - self.low)
        key = top << WIDTH | deg
        for e in reversed(exp):
            key = key << WIDTH | _TOP - e
        return key << WIDTH | complement(pos)


def _keyed(ctx, raw, terms):
    """raw as {term key: coeff}, each key's term recorded in `terms`."""
    vec = {}
    for t, c in raw.items():
        k = ctx.term_key(t)
        terms[k] = t
        vec[k] = c
    return vec


class GBElement:
    """A basis element: `raw` {term: coeff}, `items` [(key, term, coeff)]."""

    __slots__ = ("raw", "items", "lead", "lead_key", "lc", "track", "inert", "solo")

    def __init__(self, vec, terms, track=None, inert=None):
        self.items = [(k, terms[k], c) for k, c in vec.items()]
        self.raw = {t: c for _k, t, c in self.items}
        self.lead_key = max(vec)
        self.lead = terms[self.lead_key]
        self.lc = vec[self.lead_key]
        self.track = track
        self.inert = inert
        # single-component elements behave like ring elements: only for
        # these is the coprime-lead pair criterion valid
        pos = self.lead[0]
        self.solo = pos if all(q == pos for (q, _e) in self.raw) else None


def _by_position(basis):
    """The reducers of `_reduce`: {lead position: [(lead exponent, g)]}."""
    out = {}
    for g in basis:
        out.setdefault(g.lead[0], []).append((g.lead[1], g))
    return out


def _sub_multiple(vec, terms, g, d, m, beta, p, heap=None):
    """vec -= beta * x^m * g on keyed vectors, in place: each key of g moves
    by d, the key of x^m * lead(g) less g's lead key.  A key new to vec is
    pushed (negated) on `heap`, and its term is built once per run."""
    for k, t, v in g.items:
        k += d
        c = vec.get(k)
        if c is None:
            vec[k] = -beta * v % p if p else -beta * v
            if heap is not None:
                heappush(heap, -k)
            if k not in terms:
                terms[k] = (t[0], _addexp(t[1], m))
        elif c := (c - beta * v) % p if p else c - beta * v:
            vec[k] = c
        else:
            del vec[k]


def _reduce(ctx, vec, terms, track, reducers, full=True):
    """Normal form of the keyed vector vec against `reducers`, destructive;
    `terms` maps each key of vec to its term.  Not full: stop at the first
    irreducible lead and return the rest.  Every term a step adds lies below
    the lead it cancels, so leads come off a heap of negated keys, skipping
    keys that have left vec.  Over QQ the result is a positive multiple of
    the input modulo the span, for the caller to strip."""
    p = ctx.char
    heap = [-k for k in vec]
    heapify(heap)
    out = {}
    while heap:
        lk = -heappop(heap)
        a = vec.get(lk)
        if a is None:
            continue
        pos, exp = terms[lk]
        for ge, g in reducers.get(pos, ()):
            if all(map(le, ge, exp)):
                break
        else:
            if not full:
                break
            out[lk] = vec.pop(lk)
            continue
        m = _sub(exp, ge)
        alpha, beta = cancel(a, g.lc, p)
        if alpha != 1:
            for d in (vec, out, track or {}):
                for k in d:
                    d[k] *= alpha
        _sub_multiple(vec, terms, g, lk - g.lead_key, m, beta, p, heap)
        if track is not None and g.track is not None:
            axpy(track, _shifted(g.track, m), beta, p)
        if alpha != 1:
            strip(vec, out, track)
    return (out if full else vec), track


def _scaled_combination(ctx, gi, gj):
    """S-pair data for two elements with equal lead position: the S-pair is
    ci * mi * gi - cj * mj * gj, whose multipliers cross the leading
    coefficients, gcd-reduced over QQ."""
    lcm = tuple(map(max, gi.lead[1], gj.lead[1]))
    mi, mj = _sub(lcm, gi.lead[1]), _sub(lcm, gj.lead[1])
    g = 1 if ctx.char else gcd(gi.lc, gj.lc)
    return lcm, mi, mj, gj.lc // g, gi.lc // g


def buchberger(ctx: ModuleContext, inputs, track=False, inert_groups=None):
    """Groebner basis of the module generated by `inputs` (raw dicts).

    Returns (basis, syzygies): basis is a list of GBElement; when track is
    set, each carries its combination over the non-inert input indices
    ({(i, exp): coeff}), and `syzygies` generates the syzygy module of the
    inputs restricted to the non-inert ones (all of it without inert
    groups).

    inert_groups (parallel to inputs) marks inputs that are known Groebner
    bases of their spans: pairs within one group are skipped.  Their
    S-polynomials reduce to zero by assumption, and in tracked runs the
    skipped syzygies have zero coefficients on all inputs outside the
    group.  Inert inputs enter untracked, so the recorded combinations are
    the projections of the tracked ones away from every group, and they
    still generate the projection of the syzygy module.

    Pairs are processed in increasing (degree of the lcm term, term key of
    the lcm, i, j), from the heap described in the module docstring.
    """
    p = ctx.char
    terms = {}  # term key -> term, for every key the run has met
    basis = []
    by_pos = {}  # the reducers, see `_by_position`
    syzygies = []
    pairs = {}  # live pair (i, j) -> lcm of the lead exponents
    queue = []  # (selection key..., i, j), stale once (i, j) leaves pairs

    def add_element(vec, t, inert=None):
        strip(vec, t)
        gnew = GBElement(vec, terms, t, inert)
        new = len(basis)
        basis.append(gnew)
        pos, lexp = gnew.lead
        by_pos.setdefault(pos, []).append((lexp, gnew))
        shift = ctx.shifts.get(pos, 0)
        lcms = {}  # i -> lcm of the leads of basis[i] and gnew, same position
        for i in range(new):
            gi = basis[i]
            if gi.lead[0] != pos:
                continue
            lcm = lcms[i] = tuple(map(max, gi.lead[1], lexp))
            if gi.inert is not None and gi.inert == inert:
                continue  # both in one inert group: S-pair reduces to zero
            if (
                not track
                and gi.solo is not None
                and gi.solo == gnew.solo
                and not any(map(min, gi.lead[1], lexp))
            ):
                continue  # product criterion (single-component elements only)
            pairs[(i, new)] = lcm
            heappush(queue, (sum(lcm) + shift, ctx.term_key((pos, lcm)), i, new))
        # chain criterion: drop older pairs whose lcm the new lead divides strictly
        drop = [
            (a, b)
            for (a, b), lcm_ab in pairs.items()
            if b != new
            and a in lcms
            and _divides(lexp, lcm_ab)
            and lcm_ab != lcms[a]
            and lcm_ab != lcms[b]
        ]
        for ab in drop:
            del pairs[ab]

    def reduce_and_add(vec, t):
        res, t = _reduce(ctx, vec, terms, t, by_pos, full=False)
        if res:
            add_element(res, t)
        elif track and t:
            syzygies.append(t if p else strip(t))

    for i, raw in enumerate(inputs):
        vec = _keyed(ctx, raw, terms)
        group = inert_groups[i] if inert_groups else None
        t = {(i, ctx.ring.zero_exp): 1} if track and group is None else None
        if not vec:
            if t:
                syzygies.append(t)
        elif group is not None:
            # trusted Groebner elements enter unreduced to stay inert
            add_element(vec, t, inert=group)
        else:
            reduce_and_add(vec, t)

    processed = 0
    while queue:
        _, lk, i, j = heappop(queue)
        if pairs.pop((i, j), None) is None:
            continue  # dropped by the chain criterion
        processed += 1
        if TRACE is not None and processed % TRACE_EVERY == 0:
            TRACE(processed, len(pairs), basis)
        gi, gj = basis[i], basis[j]
        _, mi, mj, ci, cj = _scaled_combination(ctx, gi, gj)
        vec = {}
        _sub_multiple(vec, terms, gi, lk - gi.lead_key, mi, -ci, p)
        _sub_multiple(vec, terms, gj, lk - gj.lead_key, mj, cj, p)
        t = None
        if track:
            t = {}
            axpy(t, _shifted(gi.track or {}, mi), -ci, p)
            axpy(t, _shifted(gj.track or {}, mj), cj, p)
        reduce_and_add(vec, t)
    return basis, syzygies


def _normal_form(ctx, raw, basis):
    """Canonical normal form: fully reduced, then primitive with a positive
    lead over QQ, monic over GF(p)."""
    terms = {}
    out, _ = _reduce(ctx, _keyed(ctx, raw, terms), terms, None, _by_position(basis))
    p = ctx.char
    if out and p:
        inv = pow(out[max(out)], p - 2, p)
        out = {k: v * inv % p for k, v in out.items()}
    elif strip(out) and out[max(out)] < 0:
        out = {k: -v for k, v in out.items()}
    return {terms[k]: v for k, v in out.items()}


def _element(ctx, raw):
    terms = {}
    return GBElement(_keyed(ctx, raw, terms), terms)


def interreduce(ctx: ModuleContext, basis):
    """Reduced basis: minimal leads, tails fully reduced, canonical scaling."""
    keep = []
    for i, g in enumerate(basis):
        lt = g.lead
        redundant = False
        for j, h in enumerate(basis):
            if j == i or h.lead[0] != lt[0]:
                continue
            if _divides(h.lead[1], lt[1]) and (h.lead != lt or j < i):
                redundant = True
                break
        if not redundant:
            keep.append(g)
    out = []
    for g in keep:
        raw = _normal_form(ctx, g.raw, [h for h in keep if h is not g])
        if raw:
            out.append(_element(ctx, raw))
    out.sort(key=lambda g: g.lead_key)
    return out


def reduced_basis(ctx: ModuleContext, inputs):
    """The reduced Groebner basis (GBElements) of the module the raw inputs
    generate: one untracked run, interreduced."""
    return interreduce(ctx, buchberger(ctx, inputs, track=False)[0])


def linear_coords(form):
    """{variable index: coefficient} of a linear form."""
    return {e.index(1): c for e, c in form.terms.items()}


def linear_span(ring, forms):
    """The `Echelon` span of linear forms, column i for variable i."""
    ech = Echelon(ring.field)
    for f in forms:
        ech.insert(linear_coords(f))
    return ech


def _linear_basis(ctx, gens):
    """The reduced Groebner basis of linear forms: their reduced row echelon
    form (`Echelon.reduced`; pivot = smallest variable = lead), ordered as
    by `interreduce`."""
    ring = ctx.ring
    rows = linear_span(ring, gens).reduced()
    return [
        _element(ctx, {(0, _unit(ring.nvars, c)): v for c, v in rows[piv].items()})
        for piv in sorted(rows, reverse=True)
    ]


def colon_module(ctx: ModuleContext, basis, rank, elems, copies=1):
    """Generators of {c : sum_b c_b elems[b] in N^copies} by one tracked run.

    `basis` lists the raw elements of a Groebner basis of a submodule N of a
    free module of rank `rank`; it enters once per copy, in positions
    t*rank .. t*rank + rank - 1, each copy one inert block.  The blocks
    enter untracked, so the recorded syzygies are already restricted to
    `elems`, and they generate the colon.  Returns the distinct ones as raw
    vectors {(b, exp): coeff} over the indices b of `elems`.
    """
    inputs = []
    groups = []
    for t in range(copies):
        for g in basis:
            inputs.append({(t * rank + pos, e): v for (pos, e), v in g.items()})
            groups.append(t)
    first = len(inputs)
    inputs += elems
    groups += [None] * len(elems)
    _, syz = buchberger(ctx, inputs, track=True, inert_groups=groups)
    out = []
    seen = set()
    for s in syz:
        w = {(i - first, e): v for (i, e), v in s.items()}
        key = frozenset(w.items())
        if key not in seen:
            seen.add(key)
            out.append(w)
    return out


def linear_prime_is_associated(ctx: ModuleContext, basis, rank, prime: Ideal):
    """Whether the linear prime P, an Ideal of linear forms, is associated to E/N.

    E is free of rank `rank` over ctx.ring, `basis` a reduced Groebner basis
    of N (S/I is the rank-one case).  Exact criterion: P is associated iff
    the annihilator of some generator w of (N : P) modulo N lies in P.
    (N : P) is the colon of the vectors (l_1 e_b, ..., l_c e_b) by c copies
    of N; its generators are taken modulo N, smallest first, and each
    annihilator is tested generator by generator.  Returns (verdict, w)
    with the successful w as a raw vector.
    """
    forms_raw = [poly_to_raw(f) for f in prime.gens]
    elems = [
        {(t * rank + b, e): v for t, f in enumerate(forms_raw) for (_z, e), v in f.items()}
        for b in range(rank)
    ]
    raws = [g.raw for g in basis]
    cands = {}
    for w in colon_module(ctx, raws, rank, elems, copies=len(forms_raw)):
        w = _normal_form(ctx, w, basis)
        if w:
            cands.setdefault(frozenset(w.items()), w)
    ring = ctx.ring
    for w in sorted(cands.values(), key=lambda w: (max(sum(e) for _, e in w), len(w))):
        ann = colon_module(ctx, raws, rank, [w])
        if all(prime.member(raw_to_poly(ring, a)) for a in ann):
            return True, w
    return False, None


def module_syzygies(ctx: ModuleContext, inputs):
    """A generating set for the syzygy module of the input raw elements.

    Output syzygies are raw dicts over terms ((input index, exponent)).
    """
    _, syz = buchberger(ctx, inputs, track=True)
    return syz


# ---------------------------------------------------------------------------
# ideal-level API


class Ideal:
    """An ideal of a PolyRing with a cached reduced Groebner basis."""

    def __init__(self, ring: PolyRing, gens):
        self.ring = ring
        self.gens = list(gens)

    def __repr__(self):
        return f"Ideal({self.ring}, {len(self.gens)} gens)"

    @memo
    def groebner(self):
        """The reduced Groebner basis as canonical Polys."""
        return [raw_to_poly(self.ring, g.raw) for g in self._gb_elements()[1]]

    @memo
    def _gb_elements(self):
        """(context, reduced Groebner basis as GBElements); an ideal of
        linear forms gets it by linear algebra, with no Buchberger run."""
        ctx = ModuleContext(self.ring)
        gens = [g for g in self.gens if not g.is_zero()]
        if all(sum(e) == 1 for g in gens for e in g.terms):
            return ctx, _linear_basis(ctx, gens)
        return ctx, reduced_basis(ctx, [poly_to_raw(g) for g in gens])

    def normal_form(self, p: Poly) -> Poly:
        """Canonical normal form (primitive, positive lead over QQ)."""
        ctx, basis = self._gb_elements()
        return raw_to_poly(self.ring, _normal_form(ctx, poly_to_raw(p), basis))

    def member(self, p: Poly) -> bool:
        return self.normal_form(p).is_zero()

    def is_zero_ideal(self) -> bool:
        return not self.groebner()

    def is_whole_ring(self) -> bool:
        gb = self.groebner()
        return any(set(g.terms) == {self.ring.zero_exp} for g in gb)

    def leading_exponents(self):
        ctx, basis = self._gb_elements()
        return [g.lead[1] for g in basis]

    # -- colon / saturation / intersection, all by colon_module ----------------
    def _colon(self, basis, rank, elem, copies=1) -> "Ideal":
        """The ideal {c : c * elem in N^copies}, N spanned by the raw `basis`."""
        ctx = self._gb_elements()[0]
        out = colon_module(ctx, basis, rank, [elem], copies)
        return Ideal(self.ring, [raw_to_poly(self.ring, w) for w in out])

    def colon_ideal(self, other: "Ideal") -> "Ideal":
        """(I : J) in one colon run: the c with c * (h_1, ..., h_m) in I^m,
        over the nonzero generators h_t of J, one copy of I per generator."""
        hs = [poly_to_raw(h) for h in other.gens if not h.is_zero()]
        if not hs:
            return Ideal(self.ring, [self.ring.one()])
        elem = {(t, e): v for t, h in enumerate(hs) for (_z, e), v in h.items()}
        basis = [g.raw for g in self._gb_elements()[1]]
        return self._colon(basis, 1, elem, copies=len(hs))

    def saturation(self, other: "Ideal") -> "Ideal":
        """(I : J^infinity) by iterated colon with certified stabilization."""
        cur = self
        cur_key = tuple(str(g) for g in cur.groebner())
        while True:
            nxt = cur.colon_ideal(other)
            nxt_key = tuple(str(g) for g in nxt.groebner())
            if nxt_key == cur_key:
                return cur
            cur, cur_key = nxt, nxt_key

    def intersect(self, *others: "Ideal") -> "Ideal":
        """I_1 cap ... cap I_k in one colon run: the c with c * (e_1 + ... +
        e_k) in I_1 e_1 + ... + I_k e_k, whose reduced bases sit side by
        side at positions 0..k-1 as one inert block."""
        ideals = (self,) + others
        basis = [
            {(t, e): v for (_z, e), v in g.raw.items()}
            for t, I in enumerate(ideals)
            for g in I._gb_elements()[1]
        ]
        zero = self.ring.zero_exp
        return self._colon(basis, len(ideals), {(t, zero): 1 for t in range(len(ideals))})

    def radical_member(self, h: Poly) -> bool:
        """h in sqrt(I) exactly when I : h^infinity is the whole ring."""
        return self.saturation(Ideal(self.ring, [h])).is_whole_ring()

    def standard_monomial_count(self, grade) -> int:
        """dim of (ring/I) in one multigrade, via the initial ideal."""
        leads = self.leading_exponents()
        count = 0
        for mono in self.ring.monomial_basis(grade):
            if not any(_divides(lt, mono) for lt in leads):
                count += 1
        return count

    def quotient_dimension(self) -> int:
        """Krull dimension of ring/I from the initial-ideal staircase."""
        if self.is_whole_ring():
            return -1
        leads = self.leading_exponents()
        n = self.ring.nvars
        for size in range(n, -1, -1):
            for T in combinations(range(n), size):
                Tset = set(T)
                if all(any(e[i] for i in range(n) if i not in Tset) for e in leads):
                    return size
        return 0


# ---------------------------------------------------------------------------
# associated-prime test for linear primes


def prime_containing(I: Ideal, prime_gens):
    """The Ideal of the nonzero linear forms, checked to contain I.

    Returns None when every form is zero (the zero ideal), which contains
    only the zero ideal.  Raises GroebnerError when some generator of I lies
    outside the prime: a scan that offers such a candidate has the wrong
    candidate set.
    """
    forms = [f for f in prime_gens if not f.is_zero()]
    prime = Ideal(I.ring, forms) if forms else None
    for g in I.gens:
        if not g.is_zero() and (prime is None or not prime.member(g)):
            raise GroebnerError("candidate prime does not contain the ideal")
    return prime


def is_associated(I: Ideal, prime_gens):
    """Whether the prime generated by the linear forms is associated to ring/I.

    The rank-one case of linear_prime_is_associated on the cached Groebner
    basis of I, after `prime_containing`.  Returns (verdict, witness) with
    the successful generator h of (I : p), in normal form, when associated.
    """
    prime = prime_containing(I, prime_gens)
    if prime is None:
        return (True, None)  # the zero prime, and I is zero
    ctx, gb = I._gb_elements()
    verdict, w = linear_prime_is_associated(ctx, gb, 1, prime)
    return (verdict, raw_to_poly(I.ring, w) if verdict else None)
