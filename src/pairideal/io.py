"""Input files and their schema.

An input is a JSON object

    {"name": str,
     "field": "rational" | {"prime": int},
     "matrix": [[int | "a/b", ...], ...],
     "options": {"drop_loops": bool, "window": int, "bound": int,
                 "allow_small_prime": bool}}

and parses to an InputSpec; rendering back is byte-stable after one
round trip.  Prime fields with p <= n are refused unless the option
"allow_small_prime" is set (then a warning is attached).
"""

from __future__ import annotations

import json
from fractions import Fraction

from .linalg import ExactMatrix
from .matroid import Realization
from .scalars import FieldError, PrimeField, field_descriptor, field_from_descriptor, parse_scalar


class InputError(ValueError):
    pass


DEFAULT_OPTIONS = {"drop_loops": False, "window": None, "bound": 4}
MAX_GROUND_SET = 12


def count_option(name, value):
    """value, if it is None or an integer >= 1; else InputError."""
    if value is not None and (isinstance(value, bool) or not isinstance(value, int) or value < 1):
        raise InputError(f"{name} must be an integer >= 1, got {value!r}")
    return value


class InputSpec:
    def __init__(self, name, field_desc, matrix_rows, options=None):
        self.name = name
        self.field_desc = field_desc
        self.matrix_rows = matrix_rows
        self.options = dict(DEFAULT_OPTIONS)
        self.options.update(options or {})
        self.warnings = []

    @classmethod
    def from_json(cls, data) -> "InputSpec":
        if not isinstance(data, dict):
            raise InputError("input must be a JSON object")
        unknown = set(data) - {"name", "field", "matrix", "options"}
        if unknown:
            raise InputError(f"unknown keys {sorted(unknown)}")
        for key in ("name", "field", "matrix"):
            if key not in data:
                raise InputError(f"missing key {key!r}")
        if not isinstance(data["name"], str):
            raise InputError(f"name must be a string, got {data['name']!r}")
        matrix = data["matrix"]
        if (
            not isinstance(matrix, list)
            or not matrix
            or not all(isinstance(r, list) and r for r in matrix)
        ):
            raise InputError("matrix must be a nonempty list of nonempty rows")
        width = len(matrix[0])
        if any(len(r) != width for r in matrix):
            raise InputError("matrix rows must have equal length")
        if width > MAX_GROUND_SET:
            raise InputError(f"ground set larger than the configured max {MAX_GROUND_SET}")
        for row in matrix:
            for entry in row:
                if isinstance(entry, bool) or not isinstance(entry, (int, str)):
                    raise InputError(f"matrix entries are ints or 'a/b' strings, got {entry!r}")
                if isinstance(entry, str):
                    try:
                        parse_scalar(entry)
                    except FieldError as exc:
                        raise InputError(str(exc)) from exc
        options = data.get("options", {})
        if not isinstance(options, dict):
            raise InputError("options must be an object")
        bad = set(options) - {"drop_loops", "window", "bound", "allow_small_prime"}
        if bad:
            raise InputError(f"unknown options {sorted(bad)}")
        for key in ("drop_loops", "allow_small_prime"):
            if key in options and not isinstance(options[key], bool):
                raise InputError(f"{key} must be true or false, got {options[key]!r}")
        for key in ("window", "bound"):
            count_option(key, options.get(key))
        return cls(data["name"], data["field"], matrix, options)

    @classmethod
    def from_file(cls, path) -> "InputSpec":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InputError(f"invalid JSON: {exc}") from exc
        return cls.from_json(data)

    def to_json(self):
        out = {
            "name": self.name,
            "field": self.field_desc,
            "matrix": self.matrix_rows,
        }
        opts = {k: v for k, v in self.options.items() if DEFAULT_OPTIONS.get(k) != v}
        if opts:
            out["options"] = opts
        return out

    def render(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def realization(self) -> Realization:
        try:
            field = field_from_descriptor(self.field_desc)
        except FieldError as exc:
            raise InputError(str(exc)) from exc
        n = len(self.matrix_rows[0])
        if isinstance(field, PrimeField) and field.p <= n:
            if not self.options.get("allow_small_prime"):
                raise InputError(
                    f"prime {field.p} <= ground-set size {n}; small primes risk "
                    "accidental degenerations (set allow_small_prime to override)"
                )
            self.warnings.append(
                f"prime {field.p} <= n = {n}: derived fixtures may degenerate"
            )
        try:
            matrix = ExactMatrix(field, self.matrix_rows)
        except (FieldError, ValueError) as exc:
            raise InputError(str(exc)) from exc
        return Realization(self.name, field, matrix)


def spec_for_realization(re: Realization, options=None) -> InputSpec:
    rows = [[_scalar_json(re.field, e) for e in row] for row in re.matrix.entries]
    return InputSpec(re.name, field_descriptor(re.field), rows, options)


def _scalar_json(field, value):
    if field.char:
        return int(value)
    f = Fraction(value)
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"
