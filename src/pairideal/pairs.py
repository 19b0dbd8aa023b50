"""The ideal of pairs of a realization.

From a realization W the construction permutes the ground set so the first
r columns are a basis, pins the basis M = [I | M'] of W, and forms the
linear forms f_i (in the x-variables) and g_i (in the y-variables)
together with the generators f_i * g_i of the ideal of pairs.  Both pinned
bases are read off the realization's reduced echelon rows, with no
elimination here: the pivots are the leftmost basis, moved to the front
they make the reduced rows [I | M'], and the pinned basis D = [-M'^T | I]
of the annihilator is `Realization.dual_matrix` of the pinned
realization.  The pinned bases make every downstream number reproducible;
the ground-set permutation is recorded and inverted in reports.

The objects derived from the whole ideal are memoized on it: the `Ideal`
of S/I with its Groebner basis, the Schreyer complex of S/I and its
minimal Betti entries, the slice E/N with its reduced basis, column
syzygies and Schreyer complex, and the pairs ideal of the dual realization.
The column syzygies are the logarithmic derivations D, and N = F/D with E
and F free, so Tor_p(D) = Tor_(p+2)(E/N) for p >= 1.
"""

from __future__ import annotations

from .groebner import Ideal, ModuleContext, buchberger, interreduce
from .matroid import ColoopError, LoopError, MatroidError, Realization, labels
from .memo import memo
from .resolution import ResolutionError, SchreyerResolution, schreyer_resolution
from .ring import _unit, pair_ring, x_ring
from .spans import to_ints


class PairsIdeal:
    """The ideal (f_1 g_1, ..., f_n g_n) in S = R (x) R_perp, with context.

    Attributes use the *permuted* ground-set order (basis columns first);
    `labels[i]` is the input label of internal position i.
    """

    def __init__(self, realization: Realization, drop_loops=False):
        field = realization.field
        loops = realization.matroid().loops
        if loops and not drop_loops:
            raise LoopError(
                f"realization has loops at columns {labels(loops)}; "
                "pass drop_loops to delete them"
            )
        base = realization
        dropped = []
        if loops:
            dropped = sorted(loops)
            base = realization.delete_columns(loops)

        self.input_realization = realization
        self.dropped_loops = dropped
        self.field = field
        n = base.n
        r = base.rank

        # internal position -> base column; the pivots are the leftmost basis
        self.perm = base.pivots + [e for e in range(n) if e not in base.pivots]
        kept = [j for j in range(realization.n) if j not in dropped]
        self.labels = [kept[c] + 1 for c in self.perm]
        # the permuted reduced rows are [I | M'] as they stand
        normal = base.basis_matrix.submatrix_columns(self.perm)
        self.realization = Realization(realization.name, field, normal)
        if self.realization.pivots != list(range(r)):
            raise MatroidError("pinned basis normalization failed")
        self.matroid = self.realization.matroid()

        self.n = n
        self.r = r
        self.s = n - r  # number of y-variables
        # M' is r x (n-r)
        self.mprime = [[normal[i, r + u] for u in range(self.s)] for i in range(r)]

        self.ring = pair_ring(field, r, self.s)
        S = self.ring
        self.f = []
        self.g = []
        for i in range(n):
            if i < r:
                fi = S.var(i)
                gi = S.from_terms(
                    (_unit(S.nvars, r + u), field.neg(self.mprime[i][u])) for u in range(self.s)
                )
            else:
                u = i - r
                fi = S.from_terms(
                    (_unit(S.nvars, t), self.mprime[t][u]) for t in range(r)
                )
                gi = S.var(r + u)
            self.f.append(fi)
            self.g.append(gi)
        self.generators = [self.f[i] * self.g[i] for i in range(n)]
        self.zero_generator_indices = [i for i, p in enumerate(self.generators) if p.is_zero()]
        self.coloops = sorted(self.matroid.coloops)
        if self.zero_generator_indices != self.coloops:
            raise MatroidError("zero generators do not sit at the coloops")

        self.components = self.matroid.components()
        self.kappa = len(self.components)
        self.char_warning = field.char != 0

    def __repr__(self):
        return (
            f"PairsIdeal({self.input_realization.name!r}, n={self.n}, r={self.r}, "
            f"kappa={self.kappa})"
        )

    # -- label bookkeeping ----------------------------------------------------
    def to_original(self, internal_index: int) -> int:
        """Map an internal position to the 1-based label of the input matrix."""
        return self.labels[internal_index]

    def original_labels(self, subset) -> list:
        return sorted(self.to_original(i) for i in subset)

    # -- the Euler data ----------------------------------------------------------
    def euler_vectors(self):
        """One 0/1 indicator vector per connected component, internal order."""
        out = []
        for comp in self.components:
            out.append(tuple(1 if i in comp else 0 for i in range(self.n)))
        return out

    def euler_relation_holds(self) -> bool:
        """Expand sum(f_i g_i) over each component and compare with zero."""
        for comp in self.components:
            total = self.ring.zero()
            for i in comp:
                total = total + self.generators[i]
            if not total.is_zero():
                return False
        return True

    def nonzero_generators(self):
        return [(i, self.generators[i]) for i in range(self.n) if self.generators[i]]

    # -- S/I: the Groebner and Schreyer routes -------------------------------------
    @memo
    def ideal_object(self) -> Ideal:
        """The ideal as an `Ideal`, whose Groebner basis it memoizes."""
        return Ideal(self.ring, [g for _, g in self.nonzero_generators()])

    @memo
    def quotient_complex(self) -> SchreyerResolution:
        """The Schreyer complex of S/I, from the basis of `ideal_object`."""
        ctx, basis = self.ideal_object()._gb_elements()
        return schreyer_resolution(ctx, basis, [(0,) * self.ring.ngrades])

    @memo
    def quotient_betti(self):
        """Minimal Betti entries {(p, grade): dim} of S/I, read off the
        Schreyer complex.  The dict is shared by every caller, so none may
        mutate it."""
        return self.quotient_complex().minimal_betti()

    def slice_columns(self):
        """The y-degree-one slice as a submodule N of a free module E.

        N lives over the x-ring, E has rank n - r, and column k is f_k
        times the y-coordinates of g_k.  The (1,.) slice is this one on
        `swap_roles()`.  Returns (ring, rank of E, columns, scales): the
        columns are raw {(position, exponent): coeff} with integer
        coefficients (residues over GF(p)), column k being scales[k] times
        the slice of f_k g_k.
        """
        F = self.field
        r = self.r
        cols = []
        scales = []
        for k in range(self.n):
            raw = {}
            for e2, c2 in self.g[k].terms.items():
                u = e2.index(1) - r
                for e1, c1 in self.f[k].terms.items():
                    key = (u, e1[:r])
                    raw[key] = F.add(raw.get(key, F.zero), F.mul(c1, c2))
            col, lam = to_ints(raw, F.char)
            cols.append(col)
            scales.append(lam)
        return x_ring(F, r), self.s, cols, scales

    @memo
    def slice_complex(self):
        """The slice E/N from one tracked run on `slice_columns()`: (context,
        reduced basis of N, syzygies of the slices of the f_k g_k, verified
        Schreyer complex of E/N).  The syzygies generate D, as raw vectors
        {(k, exponent): coeff} over the column indices k."""
        ring, m, cols, scales = self.slice_columns()
        ctx = ModuleContext(ring)
        gb, syz = buchberger(ctx, cols, track=True)
        basis = interreduce(ctx, gb)
        res = schreyer_resolution(ctx, basis, [(0,) * ring.ngrades] * m)
        if not res.verify_complex():
            raise ResolutionError("differentials do not compose to zero")
        syz = [{(k, e): v * scales[k] for (k, e), v in sz.items()} for sz in syz]
        return ctx, basis, syz, res

    # -- duality ----------------------------------------------------------------------
    def require_no_coloops(self, context: str):
        if self.coloops:
            raise ColoopError(
                f"{context} requires no coloops; coloops at "
                f"{[self.to_original(i) for i in self.coloops]}"
            )

    @memo
    def swap_roles(self) -> "PairsIdeal":
        """The pairs ideal of the dual realization (grading transposed, labels kept)."""
        swap = PairsIdeal(self.realization.dual())
        swap.labels = [self.labels[c] for c in swap.perm]
        return swap
