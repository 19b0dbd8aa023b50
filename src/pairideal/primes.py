"""Prime structure of the ideal of pairs: minimal primes from cyclic flats,
certified associated primes over biflat candidates, slice associated primes,
and the uniform-matroid membership checks.

Every candidate is a linear prime.  A candidate P of codimension above
pdim M is not associated to M, by Auslander-Buchsbaum: P in Ass(M) means
depth M_P = 0, so codim P = pdim M_P <= pdim M (Eisenbud-Huneke-
Vasconcelos, "Direct methods for primary decomposition", 1992, section 1).
pdim M is the largest homological index of the minimal Betti table read
off the exact Schreyer complex, which has no scan window: for S/I the
memoized `pairs_quotient_betti`, for the slices E/N `schreyer_resolution`
on the `slice_columns()` presentation.  Every other candidate is decided
by one exact test, `groebner.linear_prime_is_associated`, on top of the
one tracked-colon primitive `groebner.colon_module`: for S/I as its
rank-one case (`is_associated`), for the degree-one slices E/N as its
rank-m case (`module_prime_is_associated`).  Absence of an embedded prime
is only ever asserted by that rule or that test; degreewise scans may only
report presence.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .graded import GradedEngine
from .groebner import (
    Ideal,
    ModuleContext,
    buchberger,
    interreduce,
    is_associated,
    linear_prime_is_associated,
    prime_containing,
)
from .matroid import MatroidError, biflats
from .pairs import PairsIdeal
from .resolution import schreyer_quotient_betti, schreyer_resolution
from .ring import _unit
from .spans import Echelon


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
        # an independent generating set (echelon rows) of the prime
        self.forms = echelon_forms(
            pairs.ring,
            [pairs.f[i] for i in sorted(self.I)] + [pairs.g[j] for j in sorted(self.J)],
        )
        if len(self.forms) != self.codim:
            raise ValueError("codimension mismatch against exact linear algebra")

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
    ech = Echelon(ring.field)
    for f in forms:
        ech.insert({e.index(1): c for e, c in f.terms.items()})
    return [
        ring.from_terms((_unit(ring.nvars, i), c) for i, c in row.items())
        for _piv, row in sorted(ech.rows.items())
    ]


def pairs_ideal_object(pairs: PairsIdeal) -> Ideal:
    if not hasattr(pairs, "_ideal_object"):
        gens = [g for _, g in pairs.nonzero_generators()]
        pairs._ideal_object = Ideal(pairs.ring, gens)
    return pairs._ideal_object


def pairs_quotient_betti(pairs: PairsIdeal):
    """Minimal Betti entries {(p, grade): dim} of S/I, memoized on `pairs`.

    Read off the Schreyer complex, which is dropped when this returns.  The
    dict is shared by every caller, so none may mutate it.
    """
    if not hasattr(pairs, "_quotient_betti"):
        pairs._quotient_betti = schreyer_quotient_betti(
            pairs.ring, [g for _, g in pairs.nonzero_generators()]
        )
    return pairs._quotient_betti


def _pdim(entries):
    """Projective dimension: the largest homological index of a Betti table."""
    return max(p for p, _ in entries)


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
    of the candidate primes.  Returns a machine-checkable certificate.
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
    ideal = pairs_ideal_object(pairs)
    inter = _intersect_all([_prime_ideal(p) for p in mins], pairs.ring)
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
            record["radical_membership"] = "auxiliary-variable certificate"
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


def _intersect_all(ideals, ring):
    """Balanced pairwise intersections (fewer giant elimination steps)."""
    items = [I for I in ideals]
    if not items:
        return Ideal(ring, [ring.one()])
    while len(items) > 1:
        nxt = []
        for a in range(0, len(items) - 1, 2):
            nxt.append(items[a].intersect(items[a + 1]))
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def _power_membership(ideal: Ideal, h, max_power=8):
    """Smallest k <= max_power with h^k in the ideal, else None."""
    power = h
    k = 1
    while k <= max_power:
        if ideal.member(power):
            return k
        power = power * h
        k += 1
    return None


# ---------------------------------------------------------------------------
# associated primes of the quotient


def associated_primes(pairs: PairsIdeal, progress=None):
    """The full associated-prime list of S/pairs-ideal, each tagged.

    Candidates are the biflats (complete by the structure theory); each is
    checked to contain the ideal, then ruled out when its codim exceeds
    pdim S/I, else decided by the exact colon criterion.  Minimal primes
    are recognized combinatorially and re-certified like every other
    candidate.
    """
    ideal = pairs_ideal_object(pairs)
    if ideal.is_zero_ideal():
        full = frozenset(range(pairs.n))
        p = LinearPrime(pairs, frozenset(), full, tag="minimal")
        return [p]
    pdim = _pdim(pairs_quotient_betti(pairs))
    M = pairs.matroid
    minimal_keys = {
        (F, frozenset(range(pairs.n)) - F) for F in M.cyclic_flats()
    }
    out = []
    for F, G in biflats(M):
        cand = LinearPrime(pairs, F, G)
        if cand.codim > pdim:
            prime_containing(ideal, cand.forms)  # the check is_associated makes
            verdict = False
        else:
            verdict, witness = is_associated(ideal, cand.forms)
        if progress is not None:
            progress(cand, verdict)
        if verdict:
            cand.tag = "minimal" if (F, G) in minimal_keys else "embedded"
            cand.witness = witness
            out.append(cand)
    out.sort(key=lambda p: p.key())
    return out


# ---------------------------------------------------------------------------
# slice associated primes


def slice_associated_primes(pairs: PairsIdeal, progress=None):
    """Associated primes of the y-degree-one slice of the quotient.

    The (.,1) slice is a module over the x-ring with candidates P_F over
    nonempty flats F; the (1,.) slice is this scan on `pairs.swap_roles()`,
    whose flats are the dual flats.  Requires no loops or coloops.
    """
    pairs.require_no_coloops("slice associated primes")
    ring, m, cols, _ = pairs.slice_columns()
    pdim = _slice_pdim(ring, m, cols)
    ctx = ModuleContext(ring)
    # reduced Groebner basis of N, shared by every candidate
    basis = interreduce(ctx, buchberger(ctx, cols, track=False)[0])
    M = pairs.matroid
    minimal_cyc = M.minimal_nonempty_cyclic_flats()
    out = []
    for F in M.flats():
        if not any(C <= F for C in minimal_cyc):
            continue  # associated primes contain a minimal prime (so F is nonempty)
        # f_i has x-ring variable indices already: they come first in S
        forms = echelon_forms(ring, [pairs.f[i] for i in sorted(F)])
        if len(forms) > pdim:
            verdict = False  # codim above pdim E/N
        else:
            verdict = module_prime_is_associated(ctx, basis, m, forms)
        if progress is not None:
            progress(F, verdict)
        if verdict:
            out.append(
                {
                    "flat": pairs.original_labels(F),
                    "rank": M.rank_of(F),
                    "tag": "minimal" if F in minimal_cyc else "embedded",
                    "is_maximal_ideal": len(forms) == ring.nvars,
                }
            )
    out.sort(key=lambda d: (len(d["flat"]), d["flat"]))
    return out


def _slice_pdim(ring, rank, cols):
    """pdim E/N for E free of rank `rank` and N spanned by `cols`.

    Read off the Schreyer complex, which is dropped when this returns.
    """
    zero = (0,) * ring.ngrades
    return _pdim(schreyer_resolution(ring, cols, [zero] * rank).minimal_betti())


def module_prime_is_associated(ctx, basis, rank, prime_forms) -> bool:
    """Exact associatedness of a linear prime for the module E/N over ctx.ring.

    E is free of rank `rank`, `basis` a reduced Groebner basis of N: the
    rank-`rank` case of linear_prime_is_associated.
    """
    if not prime_forms:
        return False
    prime = Ideal(ctx.ring, prime_forms)
    return linear_prime_is_associated(ctx, basis, rank, prime_forms, prime)[0]


# ---------------------------------------------------------------------------
# uniform-matroid membership checks


def uniform_checks(pairs: PairsIdeal):
    """Degreewise membership of the products of dual forms times a form.

    For uniform matroids every product g_{i_1}...g_{i_r} f_a (repeats
    allowed) must lie in the ideal; for arbitrary matroids the same holds
    when the indices run over a basis.  Returns a report with any failing
    tuple (informative for non-uniform inputs, an error for uniform ones).
    """
    engine = GradedEngine(pairs)
    M = pairs.matroid
    r, n = pairs.r, pairs.n
    report = {"uniform": M.is_uniform(), "products_checked": 0, "failures": []}
    if report["uniform"]:
        for combo in combinations_with_replacement(range(n), r):
            prod = pairs.ring.one()
            for i in combo:
                prod = prod * pairs.g[i]
            for a in range(n):
                elem = prod * pairs.f[a]
                report["products_checked"] += 1
                if not elem.is_zero() and not engine.member(elem):
                    report["failures"].append(
                        {
                            "tuple": [pairs.to_original(i) for i in combo],
                            "form": pairs.to_original(a),
                        }
                    )
    basis = sorted(range(r))  # the pinned leading basis
    basis_failures = []
    prod = pairs.ring.one()
    for i in basis:
        prod = prod * pairs.g[i]
    for a in range(n):
        elem = prod * pairs.f[a]
        if not elem.is_zero() and not engine.member(elem):
            basis_failures.append(pairs.to_original(a))
    report["basis_product_failures"] = basis_failures
    return report
