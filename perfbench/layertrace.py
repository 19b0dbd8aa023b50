"""Traced mode: time and count calls into each layer's public functions.

Spans are recorded from the benchmark's own files only: `install` replaces
each public function below with a timing wrapper, in its own module and in
every pairideal module that imported it by name (`cli` and `workbench`
import `associated_primes` and others that way).  Class methods are patched
on the class.  Hot leaves (`ring`, `scalars`, `linalg`) are not wrapped;
their cost shows in their callers' self time.

A layer is a module.  A call's self time is its duration minus the time of
the wrapped calls made inside it; an inclusive group time (`colon_s`,
`koszul_s`, ...) counts only the outermost call of the group.  Spans are
aggregated in memory per function and written once, when the job ends.

A name that a later version of the program no longer has is reported as
missing, together with the metrics that depend on it; it never crashes the
run.

The tracing overhead is estimated in the traced process itself: the CPU
time that one call of each kind of wrapper, and one Groebner pair hook,
add is measured around a no-op after the job and multiplied by the job's
call counts.  Comparing a
traced and an untraced process instead is not usable here, because two runs
of one job differ by up to about 8 % in CPU time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (layer, module, qualified name, inclusive group or None)
WRAPPED = [
    ("cli", "cli", "main", None),
    ("io", "io", "InputSpec.from_file", "io.load_s"),
    ("io", "io", "InputSpec.realization", "io.load_s"),
    ("io", "fixtures", "get_fixture", "io.load_s"),
    ("pairs", "pairs", "PairsIdeal.__init__", "pairs.build_s"),
    ("pairs", "pairs", "PairsIdeal.swap_roles", "pairs.build_s"),
    ("matroid", "matroid", "Matroid.__init__", None),
    ("matroid", "matroid", "Matroid.rank_of", None),
    ("matroid", "matroid", "Matroid.closure", None),
    ("matroid", "matroid", "Matroid.circuits", None),
    ("matroid", "matroid", "Matroid.flats", None),
    ("matroid", "matroid", "Matroid.cyclic_flats", None),
    ("matroid", "matroid", "Matroid.minimal_nonempty_cyclic_flats", None),
    ("matroid", "matroid", "Matroid.components", None),
    ("matroid", "matroid", "DualMatroid.flats", None),
    ("matroid", "matroid", "biflats", None),
    ("spans", "spans", "Echelon.insert", None),
    ("spans", "spans", "Echelon.insert_tracked", None),
    ("spans", "spans", "Echelon.reduce", None),
    ("spans", "spans", "Echelon.contains", None),
    ("spans", "spans", "kernel_of_stacked_vectors", None),
    ("groebner", "groebner", "buchberger", None),
    ("groebner", "groebner", "interreduce", "groebner.interreduce_s"),
    ("groebner", "groebner", "module_syzygies", None),
    ("groebner", "groebner", "Ideal.groebner", None),
    ("groebner", "groebner", "Ideal.normal_form", None),
    ("groebner", "groebner", "Ideal.member", None),
    ("groebner", "groebner", "Ideal.colon_element", "groebner.colon_s"),
    ("groebner", "groebner", "Ideal.colon_linear_ideal_gens", "groebner.colon_s"),
    ("groebner", "groebner", "Ideal.colon_ideal", "groebner.colon_s"),
    ("groebner", "groebner", "Ideal.saturation", "groebner.colon_s"),
    ("groebner", "groebner", "Ideal.intersect", "groebner.colon_s"),
    ("groebner", "groebner", "Ideal.radical_member", "groebner.colon_s"),
    ("groebner", "groebner", "is_associated", "groebner.colon_s"),
    ("graded", "graded", "GradedEngine.__init__", None),
    ("graded", "graded", "GradedEngine.ideal_dim", None),
    ("graded", "graded", "GradedEngine.quotient_dim", None),
    ("graded", "graded", "GradedEngine.hilbert", None),
    ("graded", "graded", "GradedEngine.member", None),
    ("graded", "graded", "GradedEngine.koszul_homology_dim", None),
    ("graded", "graded", "GradedEngine.koszul_betti", "graded.koszul_s"),
    ("graded", "graded", "GradedEngine.derivation_slice", "graded.slice_s"),
    ("graded", "graded", "GradedEngine.ix_slice", "graded.slice_s"),
    ("graded", "graded", "GradedEngine.ilog_slice", "graded.slice_s"),
    ("graded", "graded", "GradedEngine.syzygy_slice", "graded.slice_s"),
    ("graded", "graded", "GradedEngine.rees_kernel_dim", None),
    ("graded", "graded", "GradedEngine.symmetric_kernel_dim", None),
    ("graded", "graded", "GradedEngine.linear_type_check", "graded.linear_type_s"),
    ("resolution", "resolution", "minimal_generators", "resolution.minres_s"),
    ("resolution", "resolution", "resolve_submodule", "resolution.minres_s"),
    ("resolution", "resolution", "resolve_quotient_by_ideal", "resolution.minres_s"),
    ("resolution", "resolution", "schreyer_resolution", "resolution.schreyer_s"),
    ("resolution", "resolution", "schreyer_quotient_betti", "resolution.schreyer_s"),
    ("derivations", "derivations", "DerivationModule.__init__", None),
    ("derivations", "derivations", "pdim_bounds", None),
    ("derivations", "derivations", "recipe_check", None),
    ("derivations", "derivations", "ilog_generators", None),
    ("primes", "primes", "minimal_primes", None),
    ("primes", "primes", "verify_min_primes", "primes.mincert_s"),
    ("primes", "primes", "associated_primes", None),
    ("primes", "primes", "slice_associated_primes", None),
    ("primes", "primes", "module_prime_is_associated", None),
    ("primes", "primes", "uniform_checks", None),
    ("workbench", "workbench", "Workbench.koszul_betti", None),
    ("workbench", "workbench", "Workbench.resolution_betti", None),
    ("workbench", "workbench", "Workbench.summary", None),
    ("workbench", "workbench", "Workbench.derivation_report", None),
    ("workbench", "workbench", "Workbench.verify", None),
    ("workbench", "workbench", "full_report", None),
]

LAYERS = sorted({layer for layer, _, _, _ in WRAPPED})

# (arguments, result) of a no-op shaped like the real call, for the wrappers
# whose counting hooks read them (see Tracer.overhead_s)
_PROBE_CALLS = {
    "spans.Echelon.insert": ((None, None), True),
    "spans.Echelon.insert_tracked": ((None, None, None), None),
    "groebner.buchberger": ((), ((), ())),
    "matroid.Matroid.rank_of": ((None, tuple(range(6))), 0),
}

PACKAGE = "pairideal"


class Tracer:
    """Aggregated spans and counters of one worker process."""

    def __init__(self):
        self.calls = {}  # function name -> call count
        self.self_s = {}  # function name -> summed self time
        self.groups = {}  # inclusive group -> summed outermost time
        self.counts = {
            "spairs": 0,
            "pending_max": 0,
            "basis_elems": 0,
            "syzygies": 0,
            "candidates": 0,
            "associated": 0,
            "slice_candidates": 0,
            "useful_inserts": 0,
        }
        self.missing = []  # names the program no longer has
        self._depth = {}
        self._stack = [0.0]  # child-time accumulators; [0] is the root
        self._rank_keys = set()  # (matroid id, subset) pairs seen by rank_of
        self._matroids = {}

    # -- installation -------------------------------------------------------
    def install(self):
        modules = {
            name: sys.modules.get(f"{PACKAGE}.{name}")
            for name in {mod for _, mod, _, _ in WRAPPED}
        }
        for layer, mod_name, qualname, group in WRAPPED:
            module = modules[mod_name]
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if module is None or owner is None or attr not in vars(owner):
                self.missing.append(f"{mod_name}.{qualname}")
                continue
            raw = vars(owner)[attr]
            func = raw.__func__ if isinstance(raw, classmethod) else raw
            func = self._instrument(f"{mod_name}.{qualname}", func)
            wrapper = self._wrap(func, f"{mod_name}.{qualname}", group)
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(wrapper))
            elif owner_name:
                setattr(owner, attr, wrapper)
            else:
                _rebind(raw, wrapper)
        groebner = modules["groebner"]
        if groebner is not None and hasattr(groebner, "TRACE"):
            groebner.TRACE = self._on_spair
            groebner.TRACE_EVERY = 1
        else:
            self.missing.append("groebner.TRACE")

    def _instrument(self, name, func):
        """Counting hooks that need the call's arguments or result."""
        counts = self.counts
        if name == "spans.Echelon.insert":

            def insert(ech, vec):
                grew = func(ech, vec)
                counts["useful_inserts"] += bool(grew)
                return grew

            return insert
        if name == "spans.Echelon.insert_tracked":

            def insert_tracked(ech, vec, tag):
                dependence = func(ech, vec, tag)
                counts["useful_inserts"] += dependence is None
                return dependence

            return insert_tracked
        if name == "groebner.buchberger":

            def buchberger(*args, **kw):
                basis, syzygies = func(*args, **kw)
                counts["basis_elems"] += len(basis)
                counts["syzygies"] += len(syzygies)
                return basis, syzygies

            return buchberger
        if name == "matroid.Matroid.rank_of":
            keys, alive = self._rank_keys, self._matroids

            def rank_of(matroid, subset):
                alive.setdefault(id(matroid), matroid)  # keeps ids from being reused
                keys.add((id(matroid), frozenset(subset)))
                return func(matroid, subset)

            return rank_of
        if name in ("primes.associated_primes", "primes.slice_associated_primes"):
            if "progress" not in inspect.signature(func).parameters:
                self.missing.append(f"{name}(progress=)")
                return func
            key = "candidates" if name == "primes.associated_primes" else "slice_candidates"

            def scan(*args, progress=None, **kw):
                def count(candidate, verdict):
                    counts[key] += 1
                    if key == "candidates":
                        counts["associated"] += bool(verdict)
                    if progress is not None:
                        progress(candidate, verdict)

                return func(*args, progress=count, **kw)

            return scan
        return func

    def _wrap(self, func, name, group):
        perf = time.perf_counter
        stack = self._stack
        calls, self_s, depth, groups = self.calls, self.self_s, self._depth, self.groups
        calls[name] = 0
        self_s[name] = 0.0
        if group:
            depth.setdefault(group, 0)
            groups.setdefault(group, 0.0)

        def wrapper(*args, **kw):
            t0 = perf()
            stack.append(0.0)
            if group:
                depth[group] += 1
            try:
                return func(*args, **kw)
            finally:
                dt = perf() - t0
                child = stack.pop()
                stack[-1] += dt
                calls[name] += 1
                self_s[name] += dt - child
                if group:
                    depth[group] -= 1
                    if not depth[group]:
                        groups[group] += dt

        return functools.update_wrapper(wrapper, func)

    def _on_spair(self, processed, pending, basis):
        self.counts["spairs"] += 1
        if pending > self.counts["pending_max"]:
            self.counts["pending_max"] = pending

    def overhead_s(self, repeat=5000):
        """Estimated CPU time the tracing added to this job.

        Each kind of wrapper that ran is timed around a no-op in this
        process, and its cost is multiplied by its call count; so is the pair
        hook.  Cache effects of the wrappers on the program are not counted.
        """
        clock = time.process_time

        def per_call(func, args):
            best = float("inf")
            for _ in range(3):
                t0 = clock()
                for _ in range(repeat):
                    func(*args)
                best = min(best, clock() - t0)
            return best / repeat

        def returning(result):
            return lambda *args, **kw: result

        probe, costs, total = Tracer(), {}, 0.0
        for _, mod_name, qualname, group in WRAPPED:
            name = f"{mod_name}.{qualname}"
            if not self.calls.get(name):
                continue
            args, result = _PROBE_CALLS.get(name, ((None,), None))
            key = name if name in _PROBE_CALLS else group is not None
            if key not in costs:
                noop = returning(result)
                traced = probe._wrap(probe._instrument(name, noop), name, group)
                costs[key] = max(per_call(traced, args) - per_call(noop, args), 0.0)
            total += self.calls[name] * costs[key]
        if self.counts["spairs"]:
            noop = returning(None)
            hook = per_call(probe._on_spair, (1, 1, None)) - per_call(noop, (1, 1, None))
            total += self.counts["spairs"] * max(hook, 0.0)
        return total

    # -- report -------------------------------------------------------------
    def report(self):
        counts = dict(self.counts, rank_distinct=len(self._rank_keys))
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "groups": self.groups,
            "counts": counts,
            "missing": self.missing,
        }


def _rebind(original, wrapper):
    """Replace `original` in every module of the package that holds it."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def merge(total, part):
    """Sum one job's trace report into a running total (same shape)."""
    for key in ("calls", "self_s", "groups", "counts"):
        bucket = total.setdefault(key, {})
        for name, value in part[key].items():
            if key == "counts" and name == "pending_max":
                bucket[name] = max(bucket.get(name, 0), value)
            else:
                bucket[name] = bucket.get(name, 0) + value
    total["overhead_s"] = total.get("overhead_s", 0.0) + part.get("overhead_s", 0.0)
    missing = total.setdefault("missing", [])
    missing.extend(m for m in part["missing"] if m not in missing)
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(total):
    """Per-layer metrics of one workload from its merged trace reports.

    Each metric is (unit, value, wrapped names it needs); a metric whose
    names are missing, or whose inclusive group has no function left, is
    reported with value None.
    """
    calls, self_s = total["calls"], total["self_s"]
    groups, counts = total["groups"], total["counts"]

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)

    def called(*names):
        return sum(calls.get(n, 0) for n in names)

    inserts = called("spans.Echelon.insert", "spans.Echelon.insert_tracked")
    rank_calls = called("matroid.Matroid.rank_of")
    spec = {
        "groebner.self_s": ("s", layer_self("groebner"), []),
        "groebner.gb_runs": ("count", called("groebner.buchberger"), ["groebner.buchberger"]),
        "groebner.spairs": ("count", counts["spairs"], ["groebner.TRACE"]),
        "groebner.pending_max": ("count", counts["pending_max"], ["groebner.TRACE"]),
        "groebner.basis_elems": ("count", counts["basis_elems"], ["groebner.buchberger"]),
        "groebner.syzygies": ("count", counts["syzygies"], ["groebner.buchberger"]),
        "groebner.basis_per_spair": (
            "ratio",
            _ratio(counts["basis_elems"], counts["spairs"]),
            ["groebner.buchberger", "groebner.TRACE"],
        ),
        "groebner.interreduce_s": ("s", groups.get("groebner.interreduce_s"), ["groebner.interreduce"]),
        "groebner.colon_s": ("s", groups.get("groebner.colon_s"), []),
        "primes.self_s": ("s", layer_self("primes"), []),
        "primes.candidates": (
            "count",
            counts["candidates"],
            ["primes.associated_primes", "primes.associated_primes(progress=)"],
        ),
        "primes.associated_ratio": (
            "ratio",
            _ratio(counts["associated"], counts["candidates"]),
            ["primes.associated_primes", "primes.associated_primes(progress=)"],
        ),
        "primes.slice_candidates": (
            "count",
            counts["slice_candidates"],
            ["primes.slice_associated_primes", "primes.slice_associated_primes(progress=)"],
        ),
        "primes.mincert_s": ("s", groups.get("primes.mincert_s"), ["primes.verify_min_primes"]),
        "spans.self_s": ("s", layer_self("spans"), []),
        "spans.inserts": ("count", inserts, ["spans.Echelon.insert"]),
        "spans.insert_useful_ratio": (
            "ratio",
            _ratio(counts["useful_inserts"], inserts),
            ["spans.Echelon.insert"],
        ),
        "spans.reduces": ("count", called("spans.Echelon.reduce"), ["spans.Echelon.reduce"]),
        "spans.kernel_calls": (
            "count",
            called("spans.kernel_of_stacked_vectors"),
            ["spans.kernel_of_stacked_vectors"],
        ),
        "graded.self_s": ("s", layer_self("graded"), []),
        "graded.koszul_bidegrees": (
            "count",
            called("graded.GradedEngine.koszul_homology_dim"),
            ["graded.GradedEngine.koszul_homology_dim"],
        ),
        "graded.koszul_s": ("s", groups.get("graded.koszul_s"), ["graded.GradedEngine.koszul_betti"]),
        "graded.linear_type_s": (
            "s",
            groups.get("graded.linear_type_s"),
            ["graded.GradedEngine.linear_type_check"],
        ),
        "graded.slice_s": ("s", groups.get("graded.slice_s"), []),
        "resolution.self_s": ("s", layer_self("resolution"), []),
        "resolution.schreyer_s": ("s", groups.get("resolution.schreyer_s"), []),
        "resolution.minres_s": ("s", groups.get("resolution.minres_s"), []),
        "matroid.self_s": ("s", layer_self("matroid"), []),
        "matroid.rank_calls": ("count", rank_calls, ["matroid.Matroid.rank_of"]),
        "matroid.rank_distinct_ratio": (
            "ratio",
            _ratio(counts["rank_distinct"], rank_calls),
            ["matroid.Matroid.rank_of"],
        ),
        "pairs.build_s": ("s", groups.get("pairs.build_s"), ["pairs.PairsIdeal.__init__"]),
        "derivations.self_s": ("s", layer_self("derivations"), []),
        "derivations.builds": (
            "count",
            called("derivations.DerivationModule.__init__"),
            ["derivations.DerivationModule.__init__"],
        ),
        "workbench.self_s": ("s", layer_self("workbench"), []),
        "io.load_s": ("s", groups.get("io.load_s"), []),
        "cli.self_s": ("s", layer_self("cli"), ["cli.main"]),
    }
    missing = set(total["missing"])
    out = {}
    for name, (unit, value, needs) in spec.items():
        gone = sorted(missing.intersection(needs))
        if gone or value is None:
            note = ", ".join(gone) or "every function of the group"
            out[name] = {"value": None, "unit": unit, "missing": note}
        else:
            out[name] = {"value": value, "unit": unit}
    out["trace.self_sum_s"] = {"value": sum(layer_self(l) for l in LAYERS), "unit": "s"}
    out["trace.overhead_s"] = {"value": total.get("overhead_s", 0.0), "unit": "s"}
    return out
