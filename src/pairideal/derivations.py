"""Logarithmic derivations, freeness data, pdim bounds, and realization
comparison.

The module of logarithmic derivations D is computed as the y-degree-one
syzygy module of the pair generators over the x-subring (certified via
tracked Groebner syzygies), then minimalized.  Its Tor comes from the
Schreyer complex of the slice E/N (`PairsIdeal.slice_complex`): D is the
syzygy module of the columns that present N, so N = F/D for F the free
module of c-vectors, and E is free; Tor_0(D) is read from the minimal
generators, and Tor_p(D) = Tor_{p+2}(E/N) for p >= 1.
Every emitted generator is re-verified against the defining identity
theta(f_j) in (f_j).
"""

from __future__ import annotations

from .graded import theta_from_syzygy
from .linalg import ExactMatrix
from .matroid import LoopError, MatroidError, Realization
from .pairs import PairsIdeal
from .ring import Poly, RingError
from .resolution import minimal_generators, raw_grade


class DerivationModule:
    """Minimal generators, freeness and resolution data for der(A).

    Degrees follow the derivation grading (the Euler derivation sits in
    degree 0); classical coexponents are the degrees plus one.
    """

    def __init__(self, pairs: PairsIdeal):
        self.pairs = pairs
        self._build()

    def _build(self):
        pairs = self.pairs
        s = pairs.s
        # the relations of the presentation: f_k times the y-coordinates of g_k
        ctx, _, syz, res = pairs.slice_complex()
        R = self.ring = ctx.ring
        shifts = [(1,)] * pairs.n  # a c-vector of x-degree d-1 sits in degree d
        self.kernel_generators = minimal_generators(R, syz, shifts)
        self.generator_degrees = [
            raw_grade(R, rawv, shifts)[0] - 1 for rawv in self.kernel_generators
        ]
        # the generators have constant entries (the Euler derivation), so
        # Tor_0(D) is read from their grades, not from Tor_2(E/N)
        tor = {}
        for d in self.generator_degrees:
            tor[(0, d)] = tor.get((0, d), 0) + 1
        for (p, g), v in res.minimal_betti().items():
            if p >= 3:
                tor[(p - 2, g[0] - 1)] = v
        self._tor = tor
        self.pdim = max(p for p, _ in tor)
        self.free = self.pdim == 0
        self.exponents = self.generator_degrees if self.free else None
        self.thetas = []
        self.c_vectors = []
        for rawv in self.kernel_generators:
            cvec = {}
            for (k, e), v in rawv.items():
                cvec[(k, e + (0,) * s)] = v
            self.c_vectors.append(cvec)
            self.thetas.append(theta_from_syzygy(pairs, cvec))
        if self.free:
            self._saito_check()

    def _saito_check(self):
        """det[theta_j(x_i)] must be a nonzero scalar times the reduced product.

        The reduced defining polynomial takes one form per distinct
        hyperplane (one representative per rank-one flat), so the check is
        valid for non-simple inputs as well.
        """
        pairs = self.pairs
        S = pairs.ring
        r = pairs.r
        if len(self.thetas) != r:
            raise RingError("free module with generator count != rank")
        det = _poly_det([[self.thetas[j][i] for j in range(r)] for i in range(r)])
        prod = S.one()
        for F in pairs.matroid.flats_of_rank(1):
            prod = prod * pairs.f[min(F)]
        if det.is_zero():
            raise RingError("degenerate coefficient determinant on a free module")
        ok = _is_scalar_multiple(det, prod)
        if not ok:
            raise RingError("coefficient determinant is not the reduced form product")
        self.saito_verified = True

    def tor_dims(self):
        """(p, degree) -> dim Tor_p over the x-ring, derivation grading."""
        return dict(self._tor)


def _poly_det(m):
    """Exact determinant by cofactor expansion (matrices up to ~5x5)."""
    k = len(m)
    if k == 0:
        raise RingError("empty determinant")
    if k == 1:
        return m[0][0]
    ring = m[0][0].ring
    total = ring.zero()
    for j in range(k):
        entry = m[0][j]
        if entry.is_zero():
            continue
        minor = [[m[i][jj] for jj in range(k) if jj != j] for i in range(1, k)]
        term = entry * _poly_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def _is_scalar_multiple(p: Poly, q: Poly) -> bool:
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    if set(p.terms) != set(q.terms):
        return False
    F = p.ring.field
    exp0 = next(iter(p.terms))
    ratio = F.div(p.terms[exp0], q.terms[exp0])
    return all(
        F.is_zero(F.sub(c, F.mul(ratio, q.terms[e]))) for e, c in p.terms.items()
    )


# ---------------------------------------------------------------------------
# bounds and obstructions


def pdim_bounds(pairs: PairsIdeal):
    """Combinatorial lower bounds and freeness obstructions from cyclic flats."""
    M = pairs.matroid
    n, r = pairs.n, pairs.r
    cyc = M.cyclic_flats()
    cyclic_flat_bound = max(
        (2 * M.rank_of(F) - len(F) + n - r for F in cyc), default=0
    )
    minimal = M.minimal_nonempty_cyclic_flats()
    ks = max((M.rank_of(F) - 2 for F in minimal), default=0)
    kung_schenck_bound = max(ks, 0)
    rank2 = [F for F in M.flats() if M.rank_of(F) == 2]
    ziegler_flag = M.is_simple() and all(len(F) == 2 for F in rank2)
    free_obstruction = any(M.rank_of(F) >= 3 for F in minimal)
    return {
        "cyclic_flat_bound": cyclic_flat_bound,
        "kung_schenck_bound": kung_schenck_bound,
        "ziegler_flag": ziegler_flag,
        "free_obstruction": free_obstruction,
        "minimal_nonempty_cyclic_flats": [pairs.original_labels(F) for F in minimal],
    }


# ---------------------------------------------------------------------------
# the non-isomorphic-derivations comparison


def recipe_check(re_a: Realization, re_b: Realization):
    """Search for a rank>=3 minimal cyclic flat separating two realizations.

    Both realizations must be loopless with identical matroids (full
    rank-oracle comparison).  Returns None when no certificate exists, else
    a dict with the flat, the two column-span row-echelon forms, and the
    non-isomorphism verdict for the derivation modules.
    """
    ma, mb = re_a.matroid(), re_b.matroid()
    if ma.loops or mb.loops:
        raise LoopError("recipe comparison needs loopless realizations")
    if not ma.rank_function_equal(mb):
        raise MatroidError("realizations have different matroids")
    for F in sorted(ma.minimal_nonempty_cyclic_flats(), key=sorted):
        if ma.rank_of(F) < 3:
            continue
        span_a = _column_span_rref(re_a, F)
        span_b = _column_span_rref(re_b, F)
        if span_a != span_b:
            return {
                "flat": sorted(e + 1 for e in F),
                "rank": ma.rank_of(F),
                "span_a": span_a,
                "span_b": span_b,
                "verdict": "derivation modules are not isomorphic",
            }
    return None


def _column_span_rref(re: Realization, cols):
    """The reduced echelon rows of the span of the columns `cols`."""
    sub = ExactMatrix(re.field, [re.matrix.column(j) for j in sorted(cols)])
    return Realization(re.name, re.field, sub).basis_matrix.entries

