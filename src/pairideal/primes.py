"""Prime structure of the ideal of pairs: minimal primes from cyclic flats,
certified associated primes over biflat candidates, slice associated primes,
and the uniform-matroid membership checks.

Every candidate is a linear prime P of codimension c, and the scans of S/I
and of the slices E/N decide each one by two rules, in this order:

- containment: P contains the ideal, on every candidate of S/I; P is prime,
  so it holds f_i g_i exactly when its span holds f_i or g_i
  (`LinearPrime.check_contains_ideal`, no normal form);
- the rank at a point: over the regular local ring S_P, P in Ass(M) means
  depth M_P = 0, so by Auslander-Buchsbaum pdim M_P = c and
  Tor_c(M_P, k(P)) != 0 (Eisenbud-Huneke-Vasconcelos, "Direct methods for
  primary decomposition", 1992, section 1).  That Tor has dimension
  b_c - rank d_c - rank d_(c+1) over k(P) for any free resolution F of M
  (Buchsbaum-Eisenbud, "What makes a complex exact?", 1973).  Ranks over
  k(P) are at least the ranks at any point of V(P), so ranks at one point
  that add up to b_c rule P out (`ranks_rule_out`).  Past the length of F
  b_c = 0 and P is ruled out with no evaluation; at the origin the ranks
  are those of the scalar parts, which rule out exactly c > pdim M, and no
  point has smaller ranks.

F is the exact Schreyer complex, with no scan window, started from the
reduced Groebner basis that the colon test holds: for S/I the one memoized
on the ideal, `PairsIdeal.quotient_complex`, for the slices the one
memoized with the slice, `PairsIdeal.slice_complex`, which also gives the
derivation module D its Tor: Tor_p(D) = Tor_(p+2)(E/N) for p >= 1.  Only
a candidate that neither rule rules out gets the colon test,
`groebner.linear_prime_is_associated` on top of the one tracked-colon
primitive `groebner.colon_module`: for S/I as its rank-one case
(`is_associated`), for the degree-one slices as its rank-m case
(`module_prime_is_associated`).  It decides the candidate, and an
associated prime of S/I keeps its colon witness; both scans are one loop,
`_scan`.  Absence of an embedded prime is only ever asserted by these rules
or that test; degreewise scans may only report presence.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .graded import GradedEngine
from .groebner import (
    GroebnerError,
    Ideal,
    is_associated,
    linear_coords,
    linear_prime_is_associated,
    linear_span,
)
from .matroid import MatroidError, biflats
from .pairs import PairsIdeal
from .ring import _unit


class LinearPrime:
    """The linear ideal generated by the forms f_i (i in I) and g_j (j in J).

    Index sets are internal (pinned order); reports use 1-based input
    labels.  The codimension is rank(I) + dual-rank(J), cross-checked
    against the rank of the generating forms.
    """

    def __init__(self, pairs: PairsIdeal, I, J, tag="candidate"):
        self.pairs = pairs
        self.I = frozenset(I)
        self.J = frozenset(J)
        self.tag = tag
        M = pairs.matroid
        self.codim = M.rank_of(self.I) + M.dual().rank_of(self.J)
        forms = [pairs.f[i] for i in sorted(self.I)] + [pairs.g[j] for j in sorted(self.J)]
        self.span = linear_span(pairs.ring, forms)
        # an independent generating set (echelon rows) of the prime
        self.forms = span_forms(pairs.ring, self.span)
        if len(self.forms) != self.codim:
            raise ValueError("codimension mismatch against exact linear algebra")

    def check_contains_ideal(self):
        """Raise GroebnerError unless the prime contains the pairs ideal.  It
        is prime, so it holds f_i g_i exactly when its span holds f_i or g_i."""
        pairs = self.pairs
        for i, _ in pairs.nonzero_generators():
            if not any(self.span.contains(linear_coords(h)) for h in (pairs.f[i], pairs.g[i])):
                raise GroebnerError("candidate prime does not contain the ideal")

    def key(self):
        return (self.codim, tuple(sorted(self.I)), tuple(sorted(self.J)))

    def labels(self):
        out = {
            "I": self.pairs.original_labels(self.I),
            "J": self.pairs.original_labels(self.J),
            "codim": self.codim,
            "tag": self.tag,
        }
        witness = getattr(self, "witness", None)
        if witness is not None:
            out["certificate"] = f"colon witness {witness}"
        elif self.tag == "minimal":
            out["certificate"] = "cyclic flat (combinatorial)"
        return out

    def __repr__(self):
        return (
            f"p(I={self.pairs.original_labels(self.I)}, "
            f"J={self.pairs.original_labels(self.J)}, {self.tag})"
        )

    def __eq__(self, other):
        return (
            isinstance(other, LinearPrime)
            and other.I == self.I
            and other.J == self.J
        )

    def __hash__(self):
        return hash((self.I, self.J))


def echelon_forms(ring, forms):
    """An echelon basis (rows sorted by pivot) of the span of linear forms."""
    return span_forms(ring, linear_span(ring, forms))


def span_forms(ring, span):
    """The rows of a `linear_span`, sorted by pivot, as linear forms."""
    return [
        ring.from_terms((_unit(ring.nvars, i), c) for i, c in row.items())
        for _piv, row in sorted(span.rows.items())
    ]


# ---------------------------------------------------------------------------
# minimal primes


def minimal_primes(pairs: PairsIdeal):
    """p_{F, F-complement} over the cyclic flats, purely combinatorial."""
    M = pairs.matroid
    full = frozenset(range(pairs.n))
    out = [
        LinearPrime(pairs, F, full - F, tag="minimal") for F in M.cyclic_flats()
    ]
    out.sort(key=lambda p: p.key())
    return out


def verify_min_primes(pairs: PairsIdeal):
    """Certify that the zero set of the pairs ideal is the cyclic-flat union.

    Containment of the ideal in each candidate prime is syntactic (each
    index lies in F or in its complement); the reverse inclusion is
    certified by radical membership of every generator of the intersection
    of the candidate primes.  The intersection is one colon run
    (`Ideal.intersect`).  A generator h lies in the radical when some power
    h^k with k <= 8 lies in the ideal, or else when the saturation
    I : h^infinity is the whole ring.  Returns a machine-checkable certificate.
    """
    mins = minimal_primes(pairs)
    containment = []
    for p in mins:
        for i, gen in pairs.nonzero_generators():
            side = "F" if i in p.I else "complement"
            if i not in p.I and i not in p.J:
                raise MatroidError("biflat does not cover the ground set")
            containment.append(
                {"prime": p.labels(), "generator": pairs.to_original(i), "side": side}
            )
    ideal = pairs.ideal_object()
    first, *rest = [_prime_ideal(p) for p in mins]
    inter = first.intersect(*rest)
    memberships = []
    for h in inter.groebner():
        record = {"element": str(h)}
        power = _power_membership(ideal, h)
        if power is not None:
            record["power_in_ideal"] = power
        else:
            if not ideal.radical_member(h):
                return {
                    "verified": False,
                    "failed_element": str(h),
                    "containment": containment,
                }
            record["radical_membership"] = "saturation certificate"
        memberships.append(record)
    return {
        "verified": True,
        "minimal_primes": [p.labels() for p in mins],
        "containment_witnesses": len(containment),
        "radical_memberships": memberships,
    }


def _prime_ideal(p: LinearPrime) -> Ideal:
    ring = p.pairs.ring
    return Ideal(ring, p.forms or [ring.zero()])


def _power_membership(ideal: Ideal, h):
    """Smallest k <= 8 with h^k in the ideal, else None."""
    power = h
    for k in range(1, 9):
        if ideal.member(power):
            return k
        power = power * h
    return None


# ---------------------------------------------------------------------------
# the rank test at a point of V(P)


class PointError(ValueError):
    pass


def point_on(ring, forms):
    """A point of V(P) for P spanned by echelon linear forms (pivot = smallest
    index): free coordinate i is 2 + i, and the pivot coordinates are
    back-substituted, largest pivot first, with field operations."""
    F = ring.field
    point = [F.of(2 + i) for i in range(ring.nvars)]
    for form in sorted(forms, key=_pivot, reverse=True):
        piv, c = _pivot(form)
        point[piv] = F.zero
        point[piv] = F.neg(F.div(form.evaluate(point), c))
    return point


def _pivot(form):
    """(index, coefficient) of the smallest variable of a linear form."""
    return min((e.index(1), c) for e, c in form.terms.items())


def ranks_rule_out(res, codim, forms) -> bool:
    """Whether the ranks of the free complex `res` of M at `point_on` prove
    the prime P spanned by `forms`, of codimension `codim`, not associated
    to M: rank d_c + rank d_(c+1) = b_c there (see the module docstring).

    Past the length of the complex b_c = 0, and nothing is evaluated.
    False proves nothing.  Raises PointError if a form does not vanish at
    the point.  As d_c d_(c+1) = 0 at the point, rank d_c is at most
    b_c - rank d_(c+1), so d_c is eliminated only until it meets that bound.
    """
    b = res.free_rank(codim)
    if not b:
        return True
    point = point_on(res.ring, forms)
    F = res.ring.field
    for f in forms:
        if not F.is_zero(f.evaluate(point)):
            raise PointError(f"the form {f} does not vanish at the point {point}")
    rest = b - res.rank_at(codim + 1, point)
    return res.rank_at(codim, point, rest) == rest


# ---------------------------------------------------------------------------
# the scans


def _scan(res, candidates, colon, progress):
    """The candidates (candidate, echelon forms of its prime) that neither
    `ranks_rule_out` on the complex `res` nor `colon(candidate, forms)`
    rules out; `progress(candidate, verdict)` fires once per candidate."""
    out = []
    for cand, forms in candidates:
        verdict = not ranks_rule_out(res, len(forms), forms) and colon(cand, forms)
        if progress is not None:
            progress(cand, verdict)
        if verdict:
            out.append(cand)
    return out


def associated_primes(pairs: PairsIdeal, progress=None):
    """The full associated-prime list of S/pairs-ideal, each tagged.

    Candidates are the biflats (complete by the structure theory).  Each is
    checked to contain the ideal by its factors, then ruled out when the
    ranks of the Schreyer complex at one point of V(P) add up to b_c
    (`ranks_rule_out`), which holds with no evaluation when codim P exceeds
    the complex's length.  The colon test runs only on the candidates left
    and decides them; each associated one keeps its witness.  Minimal
    primes are recognized combinatorially and re-certified like every other
    candidate.  `progress(candidate, verdict)` fires once per candidate.
    """
    ideal = pairs.ideal_object()
    full = frozenset(range(pairs.n))
    if ideal.is_zero_ideal():
        return [LinearPrime(pairs, frozenset(), full, tag="minimal")]
    M = pairs.matroid
    minimal_keys = {(F, full - F) for F in M.cyclic_flats()}

    def candidates():
        for F, G in biflats(M):
            cand = LinearPrime(pairs, F, G)
            cand.check_contains_ideal()
            yield cand, cand.forms

    def colon(cand, forms):
        verdict, cand.witness = is_associated(ideal, forms)
        return verdict

    out = _scan(pairs.quotient_complex(), candidates(), colon, progress)
    for p in out:
        p.tag = "minimal" if (p.I, p.J) in minimal_keys else "embedded"
    out.sort(key=lambda p: p.key())
    return out


def slice_associated_primes(pairs: PairsIdeal, progress=None):
    """Associated primes of the y-degree-one slice of the quotient.

    The (.,1) slice is a module E/N over the x-ring with candidates P_F
    over the flats F that contain a minimal nonempty cyclic flat; the (1,.)
    slice is this scan on `pairs.swap_roles()`, whose flats are the dual
    flats.  A candidate is ruled out by the ranks of the Schreyer complex
    of E/N at one point of V(P_F) (`ranks_rule_out`, b_0 = rank E); the
    module colon test decides the rest.  Both read the reduced basis of N
    in `pairs.slice_complex()`.  `progress(flat, verdict)` fires once per
    candidate.  Requires no loops or coloops.
    """
    pairs.require_no_coloops("slice associated primes")
    ctx, basis, _, res = pairs.slice_complex()
    ring, m = ctx.ring, res.free_rank(0)
    M = pairs.matroid
    minimal_cyc = M.minimal_nonempty_cyclic_flats()
    # associated primes contain a minimal prime (so F is nonempty); f_i has
    # x-ring variable indices already: they come first in S
    candidates = (
        (F, echelon_forms(ring, [pairs.f[i] for i in sorted(F)]))
        for F in M.flats()
        if any(C <= F for C in minimal_cyc)
    )

    def colon(F, forms):
        return module_prime_is_associated(ctx, basis, m, forms)

    out = [
        {
            "flat": pairs.original_labels(F),
            "rank": M.rank_of(F),
            "tag": "minimal" if F in minimal_cyc else "embedded",
            "is_maximal_ideal": M.rank_of(F) == ring.nvars,
        }
        for F in _scan(res, candidates, colon, progress)
    ]
    out.sort(key=lambda d: (len(d["flat"]), d["flat"]))
    return out


def module_prime_is_associated(ctx, basis, rank, prime_forms) -> bool:
    """Exact associatedness of a linear prime for the module E/N over ctx.ring.

    E is free of rank `rank`, `basis` a reduced Groebner basis of N: the
    rank-`rank` case of linear_prime_is_associated.
    """
    prime = Ideal(ctx.ring, prime_forms)
    return bool(prime_forms) and linear_prime_is_associated(ctx, basis, rank, prime)[0]


def prime_lists(pairs: PairsIdeal):
    """The report lists of S/I: minimal, associated and embedded primes."""
    ass = associated_primes(pairs)
    return {
        "minimal_primes": [p.labels() for p in minimal_primes(pairs)],
        "associated_primes": [p.labels() for p in ass],
        "embedded_primes": [p.labels() for p in ass if p.tag == "embedded"],
    }


# ---------------------------------------------------------------------------
# uniform-matroid membership checks


def uniform_checks(engine: GradedEngine):
    """Degreewise membership of the products of dual forms times a form,
    decided by `engine`, the graded engine of the pairs ideal.

    For uniform matroids every product g_{i_1}...g_{i_r} f_a (repeats
    allowed) must lie in the ideal; for arbitrary matroids the same holds
    when the indices run over a basis.  Returns a report with any failing
    tuple (informative for non-uniform inputs, an error for uniform ones).
    """
    pairs = engine.pairs
    r, n = pairs.r, pairs.n
    uniform = pairs.matroid.is_uniform()
    report = {"uniform": uniform, "products_checked": 0, "failures": []}
    basis = tuple(range(r))  # the pinned leading basis, one of the uniform tuples
    basis_failures = []
    for combo in combinations_with_replacement(range(n), r) if uniform else [basis]:
        prod = pairs.ring.one()
        for i in combo:
            prod = prod * pairs.g[i]
        for a in range(n):
            elem = prod * pairs.f[a]
            report["products_checked"] += uniform
            if elem.is_zero() or engine.member(elem):
                continue
            if uniform:
                report["failures"].append(
                    {"tuple": [pairs.to_original(i) for i in combo], "form": pairs.to_original(a)}
                )
            if combo == basis:
                basis_failures.append(pairs.to_original(a))
    report["basis_product_failures"] = basis_failures
    return report
