"""Multigraded polynomial rings, their one monomial order, and exact
polynomials.

The pair ring S has r variables of bidegree (1,0) (coordinates on W) and
n-r of bidegree (0,1) (coordinates on the annihilator); the parameter ring
S[a] appends variables carrying one extra grading slot, written last.  Monomials are dense exponent tuples; polynomials are sparse dicts
keyed by exponent tuple with nonzero field coefficients.  Every ring
orders its monomials by one key, `degrevlex`: leading terms, printing and
every Groebner run use it, and intersection and radical membership are
colons (see `groebner`), so no elimination order is needed.
"""

from __future__ import annotations

from itertools import product as iproduct
from math import comb



class RingError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the monomial order


def degrevlex(exp):
    """Sort key of the degree reverse lexicographic order on exponent tuples;
    max over keys = leading monomial."""
    return (sum(exp), tuple(-e for e in reversed(exp)))


# ---------------------------------------------------------------------------
# rings


class PolyRing:
    """A polynomial ring with named variables and per-variable grade vectors."""

    def __init__(self, field, names, grades):
        self.field = field
        self.names = tuple(names)
        self.nvars = len(self.names)
        self.grades = tuple(tuple(g) for g in grades)
        if len(self.grades) != self.nvars:
            raise RingError("one grade vector per variable required")
        self.ngrades = len(self.grades[0]) if self.grades else 0
        if any(len(g) != self.ngrades for g in self.grades):
            raise RingError("inconsistent grade vector lengths")
        self.zero_exp = (0,) * self.nvars

    def __repr__(self):
        return f"PolyRing({self.field}, {','.join(self.names)})"

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.field == self.field
            and other.names == self.names
            and other.grades == self.grades
        )

    def __hash__(self):
        return hash((self.field, self.names, self.grades))

    # -- constructors --------------------------------------------------------
    def zero(self):
        return Poly(self, {})

    def one(self):
        return Poly(self, {self.zero_exp: self.field.one})

    def var(self, i):
        return Poly(self, {_unit(self.nvars, i): self.field.one})

    def from_terms(self, terms):
        d = {}
        F = self.field
        for exp, c in terms:
            c = F.of(c)
            exp = tuple(exp)
            acc = F.add(d.get(exp, F.zero), c)
            if F.is_zero(acc):
                d.pop(exp, None)
            else:
                d[exp] = acc
        return Poly(self, d)

    # -- grading ---------------------------------------------------------------
    def exp_grade(self, exp):
        g = [0] * self.ngrades
        for e, gv in zip(exp, self.grades):
            if e:
                for t in range(self.ngrades):
                    g[t] += e * gv[t]
        return tuple(g)

    def monomial_basis(self, grade):
        """All exponent tuples of the given multigrade, leading first.

        Requires every variable grade to be a unit vector (true for all the
        rings built here); the count is a product of binomials.
        """
        grade = tuple(grade)
        if len(grade) != self.ngrades:
            raise RingError("grade length mismatch")
        groups = {}
        for i, gv in enumerate(self.grades):
            if sum(gv) != 1 or set(gv) - {0, 1}:
                raise RingError("monomial_basis needs unit variable grades")
            groups.setdefault(gv.index(1), []).append(i)
        if any(grade[t] and t not in groups for t in range(self.ngrades)):
            return []
        picks = iproduct(*[_compositions(grade[t], len(groups[t])) for t in sorted(groups)])
        out = [sum(pick, ()) for pick in picks]  # exponents in block order
        order = sum((groups[t] for t in sorted(groups)), [])
        if order != list(range(self.nvars)):  # blocks not of consecutive variables
            at = sorted(range(self.nvars), key=order.__getitem__)
            out = [tuple(e[j] for j in at) for e in out]
        # one total degree: descending degrevlex is ascending reversed exponents
        out.sort(key=lambda e: e[::-1])
        return out

    def monomial_count(self, grade):
        grade = tuple(grade)
        groups = {}
        for i, gv in enumerate(self.grades):
            groups.setdefault(gv.index(1), []).append(i)
        total = 1
        for t in range(self.ngrades):
            k = len(groups.get(t, []))
            d = grade[t]
            if k == 0:
                if d:
                    return 0
                continue
            total *= comb(d + k - 1, k - 1)
        return total

    # -- printing ----------------------------------------------------------------
    def exp_str(self, exp):
        parts = []
        for name, e in zip(self.names, exp):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


def _unit(n, k):
    """The exponent tuple of length n with a single 1 at position k."""
    return tuple(1 if i == k else 0 for i in range(n))


def _compositions(total, k):
    """All tuples of k nonnegative ints summing to total."""
    if k == 0:
        return [()] if total == 0 else []
    if k == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, k - 1):
            out.append((first,) + rest)
    return out


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """A sparse exact polynomial in a PolyRing."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms  # {exp tuple: nonzero field scalar}

    # -- basics -----------------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Poly) and other.ring == self.ring and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def _check(self, other):
        if not isinstance(other, Poly):
            raise RingError(f"expected Poly, got {type(other).__name__}")
        if other.ring != self.ring:
            raise RingError("mixed-ring operands")

    def __add__(self, other):
        self._check(other)
        F = self.ring.field
        d = dict(self.terms)
        for exp, c in other.terms.items():
            acc = F.add(d.get(exp, F.zero), c)
            if F.is_zero(acc):
                d.pop(exp, None)
            else:
                d[exp] = acc
        return Poly(self.ring, d)

    def __neg__(self):
        F = self.ring.field
        return Poly(self.ring, {e: F.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check(other)
        F = self.ring.field
        d = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                acc = F.add(d.get(exp, F.zero), F.mul(c1, c2))
                if F.is_zero(acc):
                    d.pop(exp, None)
                else:
                    d[exp] = acc
        return Poly(self.ring, d)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        F = self.ring.field
        c = F.of(c)
        if F.is_zero(c):
            return Poly(self.ring, {})
        return Poly(self.ring, {e: F.mul(c, v) for e, v in self.terms.items()})

    def __pow__(self, k):
        if k < 0:
            raise RingError("negative power")
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def mul_monomial(self, exp, coeff=1):
        F = self.ring.field
        coeff = F.of(coeff)
        if F.is_zero(coeff):
            return self.ring.zero()
        exp = tuple(exp)
        return Poly(
            self.ring,
            {
                tuple(a + b for a, b in zip(e, exp)): F.mul(c, coeff)
                for e, c in self.terms.items()
            },
        )

    # -- grading -------------------------------------------------------------------
    def grade(self):
        """The multigrade if homogeneous; raises on inhomogeneous input."""
        ring = self.ring
        it = iter(self.terms)
        try:
            first = next(it)
        except StopIteration:
            raise RingError("the zero polynomial has no grade")
        g = ring.exp_grade(first)
        for exp in it:
            if ring.exp_grade(exp) != g:
                raise RingError("inhomogeneous polynomial")
        return g

    def homogeneous_components(self):
        """Dict multigrade -> homogeneous Poly."""
        ring = self.ring
        out = {}
        for exp, c in self.terms.items():
            g = ring.exp_grade(exp)
            out.setdefault(g, {})[exp] = c
        return {g: Poly(ring, d) for g, d in sorted(out.items())}

    # -- evaluation -----------------------------------------------------------------
    def evaluate(self, point):
        F = self.ring.field
        point = [F.of(p) for p in point]
        if len(point) != self.ring.nvars:
            raise RingError("point length mismatch")
        total = F.zero
        for exp, c in self.terms.items():
            v = c
            for p, e in zip(point, exp):
                for _ in range(e):
                    v = F.mul(v, p)
            total = F.add(total, v)
        return total

    # -- printing -----------------------------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        ring = self.ring
        F = ring.field
        parts = []
        exps = sorted(self.terms, key=degrevlex, reverse=True)
        for exp in exps:
            c = self.terms[exp]
            mono = ring.exp_str(exp)
            cs = F.to_str(c)
            if mono == "1":
                term = cs
            elif cs == "1":
                term = mono
            elif cs == "-1":
                term = "-" + mono
            else:
                term = f"{cs}*{mono}"
            if parts and not term.startswith("-"):
                parts.append("+ " + term)
            elif parts:
                parts.append("- " + term[1:])
            else:
                parts.append(term)
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self})"


# ---------------------------------------------------------------------------
# ring builders used across the package


def pair_ring(field, r, s):
    """S = k[x1..xr, y1..ys] with x of bidegree (1,0) and y of (0,1)."""
    names = [f"x{i+1}" for i in range(r)] + [f"y{j+1}" for j in range(s)]
    grades = [(1, 0)] * r + [(0, 1)] * s
    return PolyRing(field, names, grades)


def x_ring(field, r):
    """R = k[x1..xr], standard grading."""
    return PolyRing(field, [f"x{i+1}" for i in range(r)], [(1,)] * r)

