"""The benchmark's workloads: fixed job lists of CLI commands.

Load model: closed loop, one client.  Each job is one `pairideal` command
run in a fresh interpreter, the way a user invokes it; the next job starts
when the previous one has ended, so at most one worker is busy.

Every input is a seeded projective transform of a shipped fixture (see
inputs.py), so expected answers do not depend on the seed.

Left out because one job alone would take longer than a run:
`primes bracelet9` (about 227 s; `a3+u:2:3` stands in) and
`verify bracelet9 --theorem linear-type --bound 3` (about 617 s and 304 MB;
bound 2 runs instead).
"""

from __future__ import annotations

from typing import NamedTuple


class Job(NamedTuple):
    id: str
    fixture: str  # fixture name; `a+b` is a block-diagonal sum
    field: str  # "qq" or "gfp" (GF(32003))
    args: tuple  # CLI arguments after the input path
    exit_code: int = 0

    def argv(self, path):
        return [self.args[0], path, *self.args[1:], "--json"]


def _job(fixture, field, *args):
    words = [args[0], fixture, *[a.lstrip("-") for a in args[1:]], field]
    return Job("-".join(words).replace(":", ""), fixture, field, args)


WORKLOADS = {
    # Groebner and colon work; almost no spans/graded work.
    "primes_qq": [
        _job("seven", "qq", "primes", "--slices"),
        # stand-in for associated_primes(bracelet9), which is too long to
        # repeat: n = 9, 198 biflat candidates, 92 with codim above pdim 6
        _job("a3+u:2:3", "qq", "primes"),
        _job("bracelet9", "qq", "verify", "--theorem", "slice-min-primes"),
        _job("a3", "qq", "primes", "--slices"),
        _job("a3", "qq", "verify", "--theorem", "min-primes"),
        # the min-prime radical certificate on the largest fixture
        _job("bracelet9", "qq", "verify", "--theorem", "min-primes"),
        _job("fail_A", "qq", "primes"),
        _job("fail_PA", "qq", "primes"),
    ],
    # Linear algebra: most of the work is spans.Echelon and graded, with a
    # minor groebner share through the Schreyer complex.
    "tables_qq": [
        _job("seven", "qq", "betti", "--method", "both"),
        _job("a3", "qq", "betti", "--method", "both"),
        _job("u:3:5", "qq", "betti", "--method", "both"),
        _job("bracelet9", "qq", "betti", "--method", "resolution"),
        _job("seven", "qq", "verify", "--theorem", "linear-type", "--bound", "3"),
        _job("a3", "qq", "verify", "--theorem", "linear-type", "--bound", "3"),
        _job("bracelet9", "qq", "verify", "--theorem", "linear-type", "--bound", "2"),
        _job("seven", "qq", "verify", "--theorem", "syzygy-slices"),
        _job("seven", "qq", "verify", "--theorem", "tor-of-der"),
        _job("seven", "qq", "verify", "--theorem", "derivation-param"),
        # the matroid rank oracle at n = 12: thousands of tiny Echelons
        _job("u:6:12", "qq", "flats"),
        _job("boolean:12", "qq", "flats"),
    ],
    # The same layers through their GF(p) branches, so a QQ/GF(p) kernel
    # change that helps one field and hurts the other shows up.  Most of the
    # time is spans (Koszul maps, linear type) and the Schreyer complex; the
    # colon scans of seven are left to primes_qq (`--no-primes`).
    "analyze_gfp": [
        _job("seven", "gfp", "analyze", "--no-primes"),
        _job("a3", "gfp", "analyze"),
        _job("u:3:5", "gfp", "analyze"),
        _job("fail_PA", "gfp", "analyze"),
        _job("a3", "gfp", "verify", "--bound", "3"),
        _job("seven", "gfp", "verify", "--theorem", "linear-type", "--bound", "3"),
        _job("bracelet9", "gfp", "verify", "--theorem", "linear-type", "--bound", "2"),
        _job("bracelet9", "gfp", "betti", "--method", "resolution"),
        _job("seven", "gfp", "verify", "--theorem", "tor-of-der"),
        _job("seven", "gfp", "verify", "--theorem", "derivation-param"),
        _job("bracelet9", "gfp", "der"),
    ],
}
