"""Analysis orchestration: one object memoizing every engine for a realization,
the structured report, and the named verification targets.

Verification targets (each returns a dict with a boolean `passed` and the
first violated assertion when failing):

  syzygy-slices          Euler relations, dim of the (1,1) syzygy slice,
                         slice dimensions against the Hilbert function of the
                         kernel module, read from its Tor table
  derivation-param       the a-degree-one slices of the critical-set ideal,
                         counted on the Rees side (the rank of the ideal
                         piece), against the logarithmic generators and the
                         (i+1,1) syzygy kernel, two independent routes;
                         containment is tested by the product map
  min-primes             radical certificate for the cyclic-flat description
                         of the zero set, plus the localization proxy on
                         small ground sets
  tor-of-der             Koszul Betti columns in y-degree one against the
                         derivation module's Tor, read from its Schreyer
                         complex; the (1,i) column is the same check on
                         pairs.swap_roles()
  slice-min-primes       minimal primes of the (.,1) slice, and of that slice
                         of pairs.swap_roles(), against the cyclic flats of M
  uniform-products       products of dual forms times a form lie in the ideal
  parameterization-points  exact points of the parameterized critical set
                         annihilate the computed relation slices
  linear-type            bounded comparison of the full relation ideal with
                         its linear part, consistent with the slice inclusion
                         (a strict inclusion at (i;j) with i, j <= bound must
                         show as a failing (i,0;j) record)
"""

from __future__ import annotations

import random
from functools import cached_property
from math import comb

from .derivations import DerivationModule, pdim_bounds
from .graded import BettiTable, GradedEngine
from .matroid import Realization
from .memo import memo
from .pairs import PairsIdeal
from .primes import (
    _prime_ideal,
    minimal_primes,
    prime_lists,
    slice_associated_primes,
    uniform_checks,
    verify_min_primes,
)


VERIFY_TARGETS = (
    "syzygy-slices",
    "derivation-param",
    "min-primes",
    "tor-of-der",
    "slice-min-primes",
    "uniform-products",
    "parameterization-points",
    "linear-type",
)


class Workbench:
    """Memoizes the pairs ideal and every engine for one realization."""

    def __init__(self, realization: Realization, drop_loops=False, window=None, bound=4):
        self.realization = realization
        self.pairs = PairsIdeal(realization, drop_loops=drop_loops)
        self.window = window if window is not None else self.pairs.n + 2
        self.bound = bound

    @cached_property
    def engine(self) -> GradedEngine:
        return GradedEngine(self.pairs)

    @cached_property
    def derivations(self) -> DerivationModule:
        return DerivationModule(self.pairs)

    @memo
    def swap_engine(self) -> GradedEngine:
        return GradedEngine(self.pairs.swap_roles())

    @memo
    def _quotient_table(self, method) -> BettiTable:
        """The Betti table of S/I by one method; the ideal's is its view."""
        if method == "koszul":
            return self.engine.koszul_betti(window=self.window)
        entries = self.pairs.quotient_betti()
        return BettiTable("quotient", "resolution", entries, "full (exact complex)", True)

    def koszul_betti(self, target="quotient") -> BettiTable:
        table = self._quotient_table("koszul")
        return table.ideal_view() if target == "ideal" else table

    def resolution_betti(self, target="quotient") -> BettiTable:
        table = self._quotient_table("resolution")
        return table.ideal_view() if target == "ideal" else table

    # -- reports ---------------------------------------------------------------
    def summary(self):
        pairs = self.pairs
        M = pairs.matroid
        out = {
            "name": self.realization.name,
            "field": pairs.field.name,
            "n": pairs.n,
            "rank": pairs.r,
            "kappa": pairs.kappa,
            "loops_dropped": [i + 1 for i in pairs.dropped_loops],
            "coloops": [pairs.to_original(i) for i in pairs.coloops],
            "components": [pairs.original_labels(c) for c in pairs.components],
            "cyclic_flats": [
                {"flat": pairs.original_labels(F), "rank": M.rank_of(F)}
                for F in M.cyclic_flats()
            ],
            "simple": M.is_simple(),
            "uniform": M.is_uniform(),
            "generator_count": len(pairs.nonzero_generators()),
            "window": self.window,
            "bound": self.bound,
        }
        if pairs.char_warning:
            out["char_warning"] = (
                "positive characteristic: splitting statements for Euler "
                "derivations are computed but not guaranteed"
            )
        return out

    def derivation_report(self):
        dm = self.derivations
        bounds = pdim_bounds(self.pairs)
        report = {
            "free": dm.free,
            "generator_degrees": dm.generator_degrees,
            "coexponents": [d + 1 for d in dm.generator_degrees],
            "pdim": dm.pdim,
            "pdim_certificate": "minimal free resolution of the kernel module",
            "bounds": bounds,
            "kung_schenck_consistent": dm.pdim >= bounds["kung_schenck_bound"],
        }
        if dm.free:
            report["exponents"] = dm.exponents
            report["saito_determinant"] = "verified"
        if self.pairs.char_warning:
            report["char_warning"] = True
        return report

    # -- verification targets ----------------------------------------------------
    def verify(self, target: str):
        name = target.replace("_", "-")
        fns = {
            "syzygy-slices": self._verify_syzygy_slices,
            "derivation-param": self._verify_derivation_param,
            "min-primes": self._verify_min_primes,
            "tor-of-der": self._verify_tor_of_der,
            "slice-min-primes": self._verify_slice_min_primes,
            "uniform-products": self._verify_uniform_products,
            "parameterization-points": self._verify_parameterization_points,
            "linear-type": self._verify_linear_type,
        }
        if name not in fns:
            raise KeyError(f"unknown verify target {target!r}; choices: {VERIFY_TARGETS}")
        out = fns[name]()
        out["target"] = name
        out["fixture"] = self.realization.name
        return out

    def _fail(self, assertion, **details):
        return {"passed": False, "first_violation": assertion, **details}

    def _verify_syzygy_slices(self):
        pairs, eng = self.pairs, self.engine
        if not pairs.euler_relation_holds():
            return self._fail("component Euler relation does not expand to zero")
        k11 = eng.derivation_slice_dim(1)
        if k11 != pairs.kappa:
            return self._fail(
                f"dim of the (1,1) syzygy slice is {k11}, component count is {pairs.kappa}"
            )
        dm = self.derivations
        kmod = _kernel_module_dims(dm, self.window)
        checked = []
        for d in range(1, self.window + 1):
            lin = eng.derivation_slice_dim(d)
            if lin != kmod.get(d, 0):
                return self._fail(
                    f"syzygy slice dim at degree {d}: linear algebra {lin}, "
                    f"kernel module {kmod.get(d, 0)}"
                )
            checked.append({"degree": d, "dim": lin})
        details = {"passed": True, "slice_dims": checked, "euler_vectors": len(pairs.euler_vectors())}
        if not pairs.coloops:
            swap = self.swap_engine()
            for d in range(1, min(self.window, 5) + 1):
                a = eng.syzygy_slice(1, d)
                b = swap.derivation_slice(d)
                if len(a) != len(b):
                    return self._fail(
                        f"(1,{d}) slice dim {len(a)} differs from dual slice {len(b)}"
                    )
            details["dual_slices_checked"] = min(self.window, 5)
        return details

    def _verify_derivation_param(self):
        eng = self.engine
        dm = self.derivations
        rows = []
        for i in range(0, self.window):
            ix = eng.ix_dim(i, 1)
            log = eng.ilog_slice(dm.c_vectors, i, 1)
            der = eng.derivation_slice_dim(i + 1)
            if not (ix == log.dim == der):
                return self._fail(
                    f"a-degree-one slice at x-degree {i}: relation ideal {ix}, "
                    f"logarithmic part {log.dim}, derivations {der}"
                )
            if not all(eng.ix_contains(row) for row in log.rows.values()):
                return self._fail(f"logarithmic slice not inside the relation slice at ({i};1)")
            rows.append({"i": i, "dim": ix})
        return {"passed": True, "slices": rows}

    def _verify_min_primes(self):
        cert = verify_min_primes(self.pairs)
        if not cert["verified"]:
            return self._fail(
                f"radical membership failed for {cert['failed_element']}", certificate=cert
            )
        out = {"passed": True, "certificate": cert}
        if self.pairs.n <= 6:
            proxy = self._localization_proxy()
            if proxy is not None and not proxy["passed"]:
                return self._fail(proxy["first_violation"], certificate=cert)
            out["localization_proxy"] = proxy
        return out

    def _localization_proxy(self):
        """Saturating away the other components leaves each prime itself."""
        pairs = self.pairs
        mins = minimal_primes(pairs)
        if len(mins) < 2:
            return None
        ideal = pairs.ideal_object()
        # one Ideal per prime, so each reduced basis is computed once
        primes = [_prime_ideal(p) for p in mins]
        results = []
        for p, P in zip(mins, primes):
            first, *rest = [Q for Q in primes if Q is not P]
            sat = ideal.saturation(first.intersect(*rest))
            got = {str(g) for g in sat.groebner()}
            want = {str(g) for g in P.groebner()}
            if got != want:
                return self._fail(
                    f"saturation at {p.labels()} is not the prime itself"
                )
            results.append(p.labels())
        return {"passed": True, "saturations": results}

    def _verify_tor_of_der(self):
        # the identities only involve the (i,1) and (1,i) columns, so the
        # Koszul homology is computed at exactly those bidegrees; the (1,i)
        # column is checked against the derivation module of the swap
        eng = self.engine

        def sides():
            yield self.pairs, self.derivations
            if not self.pairs.coloops:
                swap = self.pairs.swap_roles()
                yield swap, DerivationModule(swap)

        out = {"passed": True, "column_checked_up_to": self.window}
        for pairs, dm in sides():
            dual = pairs is not self.pairs
            name = "dual derivation" if dual else "derivation"
            tor_der = dm.tor_dims()  # (p, der-degree) -> dim
            for i in range(1, self.window + 1):
                bideg = (1, i) if dual else (i, 1)
                at = "({},{})".format(*bideg)
                expected1 = tor_der.get((0, i - 1), 0) - (self.pairs.kappa if i == 1 else 0)
                # Tor_p of the ideal is Tor_{p+1} of the quotient
                got1 = eng.koszul_homology_dim(2, bideg)
                if got1 != expected1:
                    return self._fail(
                        f"first syzygies at {at}: table {got1}, {name} "
                        f"generators give {expected1}"
                    )
                for p in range(1, pairs.r + 2):
                    want = tor_der.get((p, i - 1), 0)
                    got = eng.koszul_homology_dim(p + 2, bideg)
                    if got != want:
                        return self._fail(
                            f"Tor_{p+1} at {at}: table {got}, {name} resolution {want}"
                        )
            if dual:
                out["dual_column_checked"] = True
        return out

    def _verify_slice_min_primes(self):
        pairs = self.pairs
        # PairsIdeal refuses or deletes loops, so only coloops can remain
        if pairs.coloops:
            return {
                "passed": True,
                "skipped": "slice statements need no loops and no coloops",
            }
        # the (1,.) slice is the (.,1) slice of the swap; both predictions
        # come from M, so duality is cross-checked
        M = pairs.matroid
        full = frozenset(range(pairs.n))
        out = {"passed": True}
        for key, side, flats in (
            ("slice_x", pairs, M.minimal_nonempty_cyclic_flats()),
            ("slice_y", pairs.swap_roles(), [full - F for F in M.maximal_proper_cyclic_flats()]),
        ):
            want = sorted(pairs.original_labels(F) for F in flats)
            got = slice_associated_primes(side)
            got_min = sorted(d["flat"] for d in got if d["tag"] == "minimal")
            if got_min != want:
                return self._fail(
                    f"minimal {key} primes {got_min} differ from the cyclic-flat "
                    f"prediction {want}"
                )
            out[key] = got
        return out

    def _verify_uniform_products(self):
        rep = uniform_checks(self.engine)
        if rep["uniform"] and rep["failures"]:
            return self._fail(
                f"uniform product membership failed at {rep['failures'][0]}", report=rep
            )
        if rep["basis_product_failures"]:
            return self._fail(
                f"basis product membership failed for form {rep['basis_product_failures'][0]}",
                report=rep,
            )
        return {"passed": True, "report": rep}

    def _verify_parameterization_points(self):
        pairs = self.pairs
        eng = self.engine
        F = pairs.field
        rng = random.Random(20250809)
        points = []
        for _ in range(4):
            u = [F.of(rng.randint(-5, 5)) for _ in range(pairs.r)]
            q = [F.of(rng.randint(-5, 5)) for _ in range(pairs.s)]
            points.append((u, q))
        checked = 0
        for (u, q) in points:
            fvals = [pairs.f[k].evaluate(u + [F.zero] * pairs.s) for k in range(pairs.n)]
            gvals = [pairs.g[k].evaluate([F.zero] * pairs.r + q) for k in range(pairs.n)]
            avals = [F.mul(fv, gv) for fv, gv in zip(fvals, gvals)]
            for (i, j) in [(i, j) for i in range(0, 3) for j in (1, 2)]:
                for vec in eng.ix_slice(i, j):
                    total = F.zero
                    for (xexp, aexp), c in vec.items():
                        term = F.of(c)
                        for t, e in enumerate(xexp[: pairs.r]):
                            for _ in range(e):
                                term = F.mul(term, u[t])
                        for k, e in enumerate(aexp):
                            for _ in range(e):
                                term = F.mul(term, avals[k])
                        total = F.add(total, term)
                    if not F.is_zero(total):
                        return self._fail(
                            f"relation slice ({i};{j}) does not vanish on a "
                            f"parameterized point"
                        )
                    checked += 1
        return {"passed": True, "evaluations": checked}

    def _verify_linear_type(self):
        eng = self.engine
        dm = self.derivations
        equal, records = eng.linear_type_check(self.bound)
        for rec in records:
            if rec["sym"] > rec["rees"]:
                return self._fail(
                    f"linear part exceeds the relation ideal at {rec} (bug)"
                )
        strict = None
        for i in range(self.window):
            ix = eng.ix_dim(i, 2)
            il = eng.ilog_slice(dm.c_vectors, i, 2).dim
            if il > ix:
                return self._fail(f"logarithmic slice exceeds relation slice at ({i};2)")
            if il < ix:
                strict = (i, 2)
                break
        # the record (i,0;j) of a strict slice must fail, when the bound
        # reaches it; past the bound no record can show it
        if strict and max(strict) <= self.bound:
            i, j = strict
            rec = next(
                (r for r in records if (r["x"], r["y"], r["a"]) == (i, 0, j)), None
            )
            if rec is None or rec["equal"]:
                return self._fail(
                    f"strict slice inclusion at ({i};{j}) but the relation "
                    f"degree ({i},0;{j}) does not fail",
                    record=rec,
                )
        return {
            "passed": True,
            "equal_up_to_bound": equal,
            "bound": self.bound,
            "strict_slice_inclusion": strict,
            "records": records,
            "evidence_label": "bounded evidence only",
        }


def _kernel_module_dims(dm: DerivationModule, window: int):
    """Hilbert function of the kernel module from its Tor table."""
    r = dm.ring.nvars
    tor = dm.tor_dims()
    out = {}
    for d in range(1, window + 1):
        total = 0
        for (p, deg), v in tor.items():
            k = d - deg - 1
            if k >= 0:
                total += (-1) ** p * v * comb(k + r - 1, r - 1)
        out[d] = total
    return out


def full_report(bench: Workbench, include_primes=True, include_betti=True):
    pairs = bench.pairs
    out = {"realization": bench.summary()}
    out["pairs_ideal"] = {
        "generators": [str(g) for g in pairs.generators],
        "zero_generators_at": [pairs.to_original(i) for i in pairs.zero_generator_indices],
        "euler_vectors": [list(v) for v in pairs.euler_vectors()],
        "minimal_generator_count": bench.engine.ideal_dim((1, 1)),
        "ground_set_permutation": [pairs.to_original(i) for i in range(pairs.n)],
    }
    out["derivations"] = bench.derivation_report()
    if include_betti:
        tab = bench.koszul_betti(target="ideal")
        res = bench.resolution_betti(target="ideal")
        out["betti"] = {
            "koszul": tab.to_json(),
            "resolution": res.to_json(),
            "methods_agree": tab.entries == res.entries,
            "pdim_ideal": max((p for (p, _) in res.entries), default=0),
            "pdim_quotient": res.max_p() + 1,
            "pdim_certificate": "exact free complex (induced orders)",
        }
    if include_primes:
        out.update(prime_lists(pairs))
    return out
