"""Buchberger engine for ideals and submodules of free modules.

Internals run on raw sparse data: a module term is (position, exponent
tuple) and an element is a dict of such terms with integer coefficients
(primitive over QQ, residues over GF(p)).  Ideals are rank-one modules.

Coefficients come from the kernel in `spans`: `to_ints` turns a Poly into
raw integers, `cancel` gives the multipliers of each reduction step (the
gcd-reduced cross multipliers over QQ, a * b^-1 over GF(p)), and `strip`
divides by the joint content.  The per-field arithmetic is fixed, because
GF(p) colon witnesses depend on scale: over QQ `_reduce` strips after every
step, S-pairs cross-multiply the gcd-reduced leading coefficients, and
syzygies are made primitive; over GF(p) S-pairs cross-multiply the leading
residues, and only new basis elements and normal forms are stripped (by the
integer gcd of their residues).

The engine optionally tracks each basis element as a combination of the
input generators; in tracked runs the zero-reduction combinations form a
generating set of the syzygy module of the inputs (the coprime-lead pair
skip is disabled there, and chain-skipped pairs are covered by retained
ones).

Pending S-pairs wait in a heap (the pair queue of Gebauer and Moeller).
A pair's selection key, (degree of the lcm term, term key of the lcm, i,
j), is computed once when the pair is made, since leads never change; the
heap pops the pair of smallest key, which fixes the selection order.  The
chain criterion drops pairs from a dict of live pairs (each with its
stored lcm) and leaves their heap entries behind; a popped entry whose
pair is no longer live is skipped.  Term keys are memoized per run: each
`buchberger`, `interreduce` and normal-form call holds its own memo and
drops it when it returns, so memory stays bounded by one run.

Every colon is one primitive, `colon_module`: a tracked run with the
Groebner basis of the submodule N entering as inert blocks, restricted to
the tracked elements.  On it rest the ideal colons and the exact
associated-prime test for linear primes (`linear_prime_is_associated`),
which serves both S/I (rank one) and the slice modules E/N.

Other derived operations: reduced bases, normal forms, membership,
saturation, intersection and radical membership via one auxiliary
variable, and Krull dimension from the initial ideal.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import combinations
from math import gcd
from operator import add, le, sub

from .ring import MonomialOrder, Poly, PolyRing
from .spans import axpy, cancel, strip, to_ints


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


def poly_to_raw(p: Poly, pos=0):
    """Poly -> {(pos, exp): int coeff} through `to_ints`; primitive over QQ."""
    char = p.ring.field.char
    ints, _ = to_ints(p.terms, char)
    raw = {(pos, e): v for e, v in ints.items()}
    return raw if char else strip(raw)


def raw_to_poly(ring: PolyRing, raw, pos=0):
    F = ring.field
    terms = [(e, F.of(c)) for (q, e), c in raw.items() if q == pos]
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


class _Memo(dict):
    """A dict that fills each missing entry from fn, once."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, term):
        value = self[term] = self.fn(term)
        return value


def _term_keys(ctx):
    """ctx.term_key, each value computed once while the result lives."""
    return _Memo(ctx.term_key).__getitem__


class ModuleContext:
    """Ring + module order data shared by one Buchberger run."""

    def __init__(self, ring: PolyRing, shifts=None, order=None, top=True, key_fn=None):
        self.ring = ring
        self.char = ring.field.char
        self.okey = (order or ring.order).key
        self.shifts = shifts or {}
        self.top = top  # term-over-position; position breaks ties
        if key_fn is not None:
            self.term_key = key_fn

    def term_key(self, term):
        pos, exp = term
        deg = sum(exp) + self.shifts.get(pos, 0)
        if self.top:
            return (deg, self.okey(exp), -pos)
        return (-pos, deg, self.okey(exp))

    def zero_exp(self):
        return (0,) * self.ring.nvars


class GBElement:
    __slots__ = ("raw", "lead", "lc", "track", "inert", "solo")

    def __init__(self, key, raw, track=None, inert=None):
        self.raw = raw
        self.lead = max(raw, key=key)
        self.lc = raw[self.lead]
        self.track = track
        self.inert = inert
        # single-component elements behave like ring elements: only for
        # these is the coprime-lead pair criterion valid
        pos = self.lead[0]
        self.solo = pos if all(q == pos for (q, _e) in raw) else None


def _reduce(ctx, raw, track, basis, full=True, key=None):
    """Normal form of raw against basis (list of GBElement), destructive.

    Each step cancels the lead against a reducer through `cancel`.  Over QQ
    the result equals a positive multiple of the input modulo the span
    (exact for membership, span and syzygy purposes), and the joint content
    of raw, the result so far and track is stripped after every step.
    `key` is the run's memoized term key; without one, the call memoizes
    its own.
    """
    p = ctx.char
    key = key or _term_keys(ctx)
    out = {}
    while raw:
        lt = max(raw, key=key)
        pos, exp = lt
        red = None
        for g in basis:
            gp, ge = g.lead
            if gp == pos and _divides(ge, exp):
                red = g
                break
        if red is None:
            if not full:
                return raw, track
            out[lt] = raw.pop(lt)
            continue
        m = _sub(exp, red.lead[1])
        alpha, beta = cancel(raw[lt], red.lc, p)
        if alpha != 1:
            for d in (raw, out, track or {}):
                for k in d:
                    d[k] *= alpha
        axpy(raw, _shifted(red.raw, m), beta, p)
        if track is not None and red.track is not None:
            axpy(track, _shifted(red.track, m), beta, p)
        if not p:
            strip(raw, out, track)
    return out, track


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
    set, each carries its combination over the input indices ({(i, exp):
    coeff}) and `syzygies` is a generating set of the syzygy module of the
    inputs.

    inert_groups (parallel to inputs) marks inputs that are known Groebner
    bases of their spans: pairs within one group are skipped.  Their
    S-polynomials reduce to zero by assumption, and in tracked runs the
    skipped syzygies have zero coefficients on all inputs outside the
    group, so any projection of the syzygy module away from a group is
    still generated by the recorded combinations.

    Pairs are processed in increasing (degree of the lcm term, term key of
    the lcm, i, j), from the heap described in the module docstring.
    """
    p = ctx.char
    key = _term_keys(ctx)
    basis = []
    syzygies = []
    pairs = {}  # live pair (i, j) -> lcm of the lead exponents
    queue = []  # (selection key..., i, j), stale once (i, j) leaves pairs

    def add_element(raw, t, inert=None):
        strip(raw, t)
        gnew = GBElement(key, raw, t, inert)
        new = len(basis)
        basis.append(gnew)
        pos, lexp = gnew.lead
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

    def reduce_and_add(raw, t):
        res, t = _reduce(ctx, raw, t, basis, full=False, key=key)
        if res:
            add_element(res, t)
        elif track and t:
            syzygies.append(t if p else strip(t))

    for i, raw in enumerate(inputs):
        raw = dict(raw)
        t = {(i, ctx.zero_exp()): 1} if track else None
        group = inert_groups[i] if inert_groups else None
        if not raw:
            if track:
                syzygies.append(t)
        elif group is not None:
            # trusted Groebner elements enter unreduced to stay inert
            add_element(raw, t, inert=group)
        else:
            reduce_and_add(raw, t)

    processed = 0
    while queue:
        _, _, i, j = heappop(queue)
        if pairs.pop((i, j), None) is None:
            continue  # dropped by the chain criterion
        processed += 1
        if TRACE is not None and processed % TRACE_EVERY == 0:
            TRACE(processed, len(pairs), basis)
        gi, gj = basis[i], basis[j]
        _, mi, mj, ci, cj = _scaled_combination(ctx, gi, gj)
        raw = {}
        axpy(raw, _shifted(gi.raw, mi), -ci, p)
        axpy(raw, _shifted(gj.raw, mj), cj, p)
        t = None
        if track:
            t = {}
            axpy(t, _shifted(gi.track or {}, mi), -ci, p)
            axpy(t, _shifted(gj.track or {}, mj), cj, p)
        reduce_and_add(raw, t)
    return basis, syzygies


def _normal_form(ctx, raw, basis, key=None):
    """Canonical normal form: fully reduced, primitive, positive lead over QQ."""
    key = key or _term_keys(ctx)
    raw, _ = _reduce(ctx, dict(raw), None, basis, full=True, key=key)
    raw = strip(raw)
    if raw and ctx.char == 0:
        lt = max(raw, key=key)
        if raw[lt] < 0:
            raw = {k: -v for k, v in raw.items()}
    return raw


def interreduce(ctx: ModuleContext, basis):
    """Reduced basis: minimal leads, tails fully reduced, canonical scaling."""
    key = _term_keys(ctx)
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
        raw = _normal_form(ctx, g.raw, [h for h in keep if h is not g], key)
        if not raw:
            continue
        if ctx.char:
            inv = pow(raw[max(raw, key=key)], ctx.char - 2, ctx.char)
            if inv != 1:
                raw = {k: (v * inv) % ctx.char for k, v in raw.items()}
        out.append(GBElement(key, raw))
    out.sort(key=lambda g: key(g.lead))
    return out


def colon_module(ctx: ModuleContext, basis, rank, elems, copies=1):
    """Generators of {c : sum_b c_b elems[b] in N^copies} by one tracked run.

    `basis` is a Groebner basis (GBElements) of a submodule N of a free
    module of rank `rank`; it enters once per copy, in positions
    t*rank .. t*rank + rank - 1, each copy one inert block.  Syzygies inside
    a block have no coefficient on `elems`, so the recorded combinations,
    restricted to `elems`, generate the colon.  Returns the distinct nonzero
    restrictions as raw vectors {(b, exp): coeff} over the indices b of
    `elems`.
    """
    inputs = []
    groups = []
    for t in range(copies):
        for g in basis:
            inputs.append({(t * rank + pos, e): v for (pos, e), v in g.raw.items()})
            groups.append(t)
    first = len(inputs)
    inputs += elems
    groups += [None] * len(elems)
    _, syz = buchberger(ctx, inputs, track=True, inert_groups=groups)
    out = []
    seen = set()
    for s in syz:
        w = {(i - first, e): v for (i, e), v in s.items() if i >= first}
        key = frozenset(w.items())
        if w and key not in seen:
            seen.add(key)
            out.append(w)
    return out


def linear_prime_is_associated(ctx: ModuleContext, basis, rank, forms, prime):
    """Whether the linear prime P = (forms) is associated to E/N.

    E is free of rank `rank` over ctx.ring, `basis` a reduced Groebner basis
    of N (S/I is the rank-one case), `prime` the Ideal of P.  Exact
    criterion: P is associated iff the annihilator of some generator w of
    (N : P) modulo N lies in P.  (N : P) is the colon of the vectors
    (l_1 e_b, ..., l_c e_b) by c copies of N; its generators are taken
    modulo N, smallest first, and each annihilator is tested generator by
    generator.  Returns (verdict, w) with the successful w as a raw vector.
    """
    forms_raw = [poly_to_raw(f) for f in forms]
    elems = [
        {(t * rank + b, e): v for t, f in enumerate(forms_raw) for (_z, e), v in f.items()}
        for b in range(rank)
    ]
    cands = {}
    for w in colon_module(ctx, basis, rank, elems, copies=len(forms)):
        w = _normal_form(ctx, w, basis)
        if w:
            cands.setdefault(frozenset(w.items()), w)
    ring = ctx.ring
    for w in sorted(cands.values(), key=lambda w: (max(sum(e) for _, e in w), len(w))):
        ann = colon_module(ctx, basis, rank, [w])
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

    def __init__(self, ring: PolyRing, gens, order=None):
        self.ring = ring
        self.gens = list(gens)
        self.order = order or ring.order
        self._gb = None

    def __repr__(self):
        return f"Ideal({self.ring}, {len(self.gens)} gens)"

    def _context(self):
        return ModuleContext(self.ring, order=self.order)

    def groebner(self):
        """The reduced Groebner basis as canonical Polys (cached)."""
        if self._gb is None:
            ctx = self._context()
            inputs = [poly_to_raw(g) for g in self.gens if not g.is_zero()]
            basis, _ = buchberger(ctx, inputs, track=False)
            red = interreduce(ctx, basis)
            self._gb = [raw_to_poly(self.ring, g.raw) for g in red]
            self._gb_raw = red
            self._gb_ctx = ctx
        return self._gb

    def _gb_elements(self):
        self.groebner()
        return self._gb_ctx, self._gb_raw

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

    # -- colon / saturation / intersection ------------------------------------
    def colon_element(self, h: Poly) -> "Ideal":
        """(I : h) by colon_module on the cached Groebner basis."""
        if h.is_zero():
            return Ideal(self.ring, [self.ring.one()], self.order)
        ctx, gb = self._gb_elements()
        if not gb:
            return Ideal(self.ring, [self.ring.zero()], self.order)
        out = [raw_to_poly(self.ring, w) for w in colon_module(ctx, gb, 1, [poly_to_raw(h)])]
        return Ideal(self.ring, out or [self.ring.zero()], self.order)

    def colon_ideal(self, other: "Ideal") -> "Ideal":
        """(I : J) as the intersection of the single-element colons."""
        hs = [h for h in other.gens if not h.is_zero()]
        if not hs:
            return Ideal(self.ring, [self.ring.one()], self.order)
        acc = self.colon_element(hs[0])
        for h in hs[1:]:
            acc = acc.intersect(self.colon_element(h))
        return acc

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

    def intersect(self, other: "Ideal") -> "Ideal":
        """Intersection via one auxiliary elimination variable."""
        ring = self.ring
        ext, lift, drop = _extend_ring(ring)
        t = ext.var(0)
        one_minus_t = ext.one() - t
        gens = [t * lift(g) for g in self.gens if not g.is_zero()]
        gens += [one_minus_t * lift(g) for g in other.gens if not g.is_zero()]
        elim = Ideal(
            ext,
            gens,
            order=MonomialOrder("block", ext.nvars, [(0,), tuple(range(1, ext.nvars))]),
        )
        out = []
        for g in elim.groebner():
            q = drop(g)
            if q is not None:
                out.append(q)
        return Ideal(ring, out or [ring.zero()], self.order)

    def radical_member(self, h: Poly) -> bool:
        """h in sqrt(I) by the auxiliary-variable trick: 1 in I + (1 - t*h)."""
        if h.is_zero():
            return True
        ring = self.ring
        ext, lift, _ = _extend_ring(ring)
        t = ext.var(0)
        gens = [lift(g) for g in self.gens if not g.is_zero()]
        gens.append(ext.one() - t * lift(h))
        return Ideal(ext, gens).is_whole_ring()

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


def _extend_ring(ring: PolyRing):
    """Ring with one fresh elimination variable t0 in front; lift/drop maps."""
    names = ("t0",) + ring.names
    grades = ((0,) * ring.ngrades,) + ring.grades
    ext = PolyRing(ring.field, names, grades)

    def lift(p: Poly) -> Poly:
        return Poly(ext, {(0,) + e: c for e, c in p.terms.items()})

    def drop(p: Poly):
        for e in p.terms:
            if e[0]:
                return None
        return Poly(ring, {e[1:]: c for e, c in p.terms.items()})

    return ext, lift, drop


# ---------------------------------------------------------------------------
# associated-prime test for linear primes


def prime_containing(I: Ideal, prime_gens):
    """The Ideal of the nonzero linear forms, checked to contain I.

    Returns None when every form is zero (the zero ideal).  Raises
    GroebnerError when some generator of I lies outside the prime: a scan
    that offers such a candidate has the wrong candidate set.
    """
    forms = [f for f in prime_gens if not f.is_zero()]
    if not forms:
        return None
    prime = Ideal(I.ring, forms)
    for g in I.gens:
        if not g.is_zero() and not prime.member(g):
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
        # the zero ideal: associated exactly to the zero ideal
        return (I.is_zero_ideal(), None)
    ctx, gb = I._gb_elements()
    verdict, w = linear_prime_is_associated(ctx, gb, 1, prime.gens, prime)
    return (verdict, raw_to_poly(I.ring, w) if verdict else None)
