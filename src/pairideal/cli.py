"""Command-line surface: analyze, betti, flats, primes, der, verify, compare,
fixtures.

Sources are fixture names (see `fixtures list`) or paths to JSON input
files.  All output is deterministic; --json switches to machine-readable
output.  Exit codes: 0 success, 2 verification failure, 1 error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .derivations import recipe_check
from .fixtures import FixtureError, fixture_names, get_fixture
from .groebner import GroebnerError
from .io import InputError, InputSpec, count_option, spec_for_realization
from .matroid import MatroidError
from .pairs import PairsIdeal
from .primes import PointError, prime_lists, slice_associated_primes
from .resolution import ResolutionError
from .ring import RingError
from .scalars import FieldError
from .workbench import VERIFY_TARGETS, Workbench, full_report


def _load_realization(source):
    if os.path.exists(source):
        spec = InputSpec.from_file(source)
        re = spec.realization()
        for w in spec.warnings:
            print(f"warning: {w}", file=sys.stderr)
        return re, spec.options
    re = get_fixture(source)
    return re, {}


def _count_option(args, options, name, default):
    """The CLI value, else the input file's option (checked when the file
    was read), else the default; each is >= 1."""
    value = count_option(name, getattr(args, name, None))
    if value is None:
        value = options.get(name)
    return default if value is None else value


def _bench(source, args):
    re, options = _load_realization(source)
    window = _count_option(args, options, "window", None)
    bound = _count_option(args, options, "bound", 4)
    drop = getattr(args, "drop_loops", False) or options.get("drop_loops", False)
    return Workbench(re, drop_loops=drop, window=window, bound=bound)


def _emit(args, data, text_renderer=None):
    if getattr(args, "json", False):
        print(json.dumps(data, indent=2, sort_keys=True, default=str))
    elif text_renderer is not None:
        text_renderer(data)
    else:
        print(json.dumps(data, indent=2, sort_keys=True, default=str))


def cmd_fixtures(args):
    if args.action == "list":
        for name in fixture_names():
            print(name)
        return 0
    if args.name is None:
        raise InputError("fixtures show needs a fixture name (see `fixtures list`)")
    re = get_fixture(args.name)
    print(spec_for_realization(re).render())
    return 0


def cmd_analyze(args):
    bench = _bench(args.source, args)
    report = full_report(
        bench, include_primes=not args.no_primes, include_betti=not args.no_betti
    )

    def render(rep):
        s = rep["realization"]
        print(f"{s['name']}: n={s['n']} rank={s['rank']} kappa={s['kappa']} field={s['field']}")
        print(f"cyclic flats: {[d['flat'] for d in s['cyclic_flats']]}")
        d = rep["derivations"]
        print(
            f"derivations: free={d['free']} degrees={d['generator_degrees']} pdim={d['pdim']}"
        )
        print(f"bounds: {d['bounds']}")
        if "betti" in rep:
            b = rep["betti"]
            print(
                f"betti: methods agree={b['methods_agree']} "
                f"pdim(ideal)={b['pdim_ideal']} pdim(quotient)={b['pdim_quotient']}"
            )
        if "associated_primes" in rep:
            print("associated primes:")
            for p in rep["associated_primes"]:
                print(f"  I={p['I']} J={p['J']} codim={p['codim']} [{p['tag']}]")

    _emit(args, report, render)
    return 0


def cmd_betti(args):
    bench = _bench(args.source, args)
    tables = {}
    if args.method in ("koszul", "both"):
        tables["koszul"] = bench.koszul_betti(target=args.target)
    if args.method in ("resolution", "both"):
        tables["resolution"] = bench.resolution_betti(target=args.target)
    data = {k: t.to_json() for k, t in tables.items()}
    if len(tables) == 2:
        data["methods_agree"] = tables["koszul"].entries == tables["resolution"].entries

    def render(_):
        for k, t in tables.items():
            print(f"[{k}] target={t.target} window={t.window_description}")
            print(t.render())
            print()
        if "methods_agree" in data:
            print(f"methods agree: {data['methods_agree']}")

    _emit(args, data, render)
    return 0


def cmd_flats(args):
    bench = _bench(args.source, args)
    pairs = bench.pairs
    M = pairs.matroid
    data = {
        "flats": [
            {"flat": pairs.original_labels(F), "rank": M.rank_of(F)} for F in M.flats()
        ],
        "cyclic_flats": [
            {"flat": pairs.original_labels(F), "rank": M.rank_of(F)}
            for F in M.cyclic_flats()
        ],
        "minimal_nonempty_cyclic_flats": [
            pairs.original_labels(F) for F in M.minimal_nonempty_cyclic_flats()
        ],
        "circuits": [pairs.original_labels(c) for c in M.circuits()],
        "components": [pairs.original_labels(c) for c in pairs.components],
    }

    def render(d):
        print(f"flats ({len(d['flats'])}):")
        for f in d["flats"]:
            print(f"  {f['flat']} rank {f['rank']}")
        print(f"cyclic flats: {[f['flat'] for f in d['cyclic_flats']]}")
        print(f"components: {d['components']}")

    _emit(args, data, render)
    return 0


def cmd_primes(args):
    bench = _bench(args.source, args)
    pairs = bench.pairs
    data = prime_lists(pairs)
    if args.slices:
        data["slice_x"] = slice_associated_primes(pairs)
        data["slice_y"] = slice_associated_primes(pairs.swap_roles())

    def render(d):
        for key in ("minimal_primes", "associated_primes", "embedded_primes"):
            print(f"{key}:")
            for p in d[key]:
                print(f"  I={p['I']} J={p['J']} codim={p['codim']} [{p['tag']}]")
        for key in ("slice_x", "slice_y"):
            if key in d:
                print(f"{key}: {d[key]}")

    _emit(args, data, render)
    return 0


def cmd_der(args):
    bench = _bench(args.source, args)
    data = bench.derivation_report()

    def render(d):
        print(
            f"free: {d['free']}  generator degrees: {d['generator_degrees']} "
            f"(coexponents {d['coexponents']})  pdim: {d['pdim']}"
        )
        print(f"bounds: {d['bounds']}")

    _emit(args, data, render)
    return 0


def cmd_verify(args):
    bench = _bench(args.source, args)
    targets = list(VERIFY_TARGETS) if args.theorem == "all" else [args.theorem]
    results = []
    failed = False
    for t in targets:
        res = bench.verify(t)
        results.append(res)
        if not res.get("passed") and not res.get("skipped"):
            failed = True

    def render(_):
        for res in results:
            status = "PASS" if res.get("passed") else "FAIL"
            if res.get("skipped"):
                status = "SKIP"
            print(f"[{status}] {res['target']} on {res['fixture']}")
            if not res.get("passed") and "first_violation" in res:
                print(f"    first violation: {res['first_violation']}")

    _emit(args, results if len(results) > 1 else results[0], render)
    return 2 if failed else 0


def cmd_compare(args):
    re_a, _ = _load_realization(args.source_a)
    re_b, _ = _load_realization(args.source_b)
    cert = recipe_check(re_a, re_b)
    data = {
        "certificate": cert,
        "verdict": cert["verdict"] if cert else "no separating flat found (no claim)",
    }
    if args.slices:
        # evidence report: do the embedded slice primes depend on the
        # realization?  (open question; reported, never answered)
        slices = {}
        for label, re in (("a", re_a), ("b", re_b)):
            pairs = PairsIdeal(re)
            if pairs.coloops:
                slices[label] = "skipped (coloops)"
                continue
            slices[label] = {
                "x": slice_associated_primes(pairs),
                "y": slice_associated_primes(pairs.swap_roles()),
            }
        data["slice_evidence"] = slices
        if isinstance(slices.get("a"), dict) and isinstance(slices.get("b"), dict):
            same = all(
                [d for d in slices["a"][s] if d["tag"] == "embedded"]
                == [d for d in slices["b"][s] if d["tag"] == "embedded"]
                for s in ("x", "y")
            )
            data["embedded_slice_primes_equal"] = same

    def render(d):
        if cert:
            print(f"certificate flat: {cert['flat']} (rank {cert['rank']})")
            print(cert["verdict"])
        else:
            print(d["verdict"])
        if "embedded_slice_primes_equal" in d:
            print(f"embedded slice primes equal: {d['embedded_slice_primes_equal']}")

    _emit(args, data, render)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError (one `error:` line, exit 1), not
    argparse's usage text and exit 2; subparsers share the class."""

    def error(self, message):
        raise InputError(message)


def build_parser():
    ap = _Parser(
        prog="pairideal",
        description="Exact workbench for the ideal of pairs of a matroid realization.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, *counts):
        """--json, --drop-loops and the count options `counts` the command reads."""
        helps = {"window": "bidegree scan window", "bound": "linear-type degree bound"}
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for name in counts:
            p.add_argument(f"--{name}", type=int, default=None, help=helps[name])
        p.add_argument("--drop-loops", action="store_true", help="delete loop columns")

    p = sub.add_parser("fixtures", help="list or show built-in realizations")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?", help="fixture name for `show`")
    p.set_defaults(fn=cmd_fixtures)

    p = sub.add_parser("analyze", help="full structured report")
    p.add_argument("source")
    p.add_argument("--no-primes", action="store_true")
    p.add_argument("--no-betti", action="store_true")
    common(p, "window", "bound")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("betti", help="bigraded Betti tables")
    p.add_argument("source")
    p.add_argument("--target", choices=["ideal", "quotient"], default="ideal")
    p.add_argument("--method", choices=["koszul", "resolution", "both"], default="both")
    common(p, "window")
    p.set_defaults(fn=cmd_betti)

    p = sub.add_parser("flats", help="matroid structure")
    p.add_argument("source")
    common(p)
    p.set_defaults(fn=cmd_flats)

    p = sub.add_parser("primes", help="minimal and associated primes")
    p.add_argument("source")
    p.add_argument("--slices", action="store_true", help="include degree-one slices")
    common(p)
    p.set_defaults(fn=cmd_primes)

    p = sub.add_parser("der", help="logarithmic derivation module")
    p.add_argument("source")
    common(p)
    p.set_defaults(fn=cmd_der)

    p = sub.add_parser("verify", help="run a named verification target")
    p.add_argument("source")
    p.add_argument(
        "--theorem",
        default="all",
        choices=list(VERIFY_TARGETS) + ["all"],
        help="verification target",
    )
    common(p, "window", "bound")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("compare", help="compare two realizations of one matroid")
    p.add_argument("source_a")
    p.add_argument("source_b")
    p.add_argument(
        "--slices",
        action="store_true",
        help="report embedded slice primes of both realizations (evidence only)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=cmd_compare)
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone: send what is still buffered to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (
        InputError,
        FixtureError,
        MatroidError,
        GroebnerError,
        PointError,
        ResolutionError,
        RingError,
        FieldError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
