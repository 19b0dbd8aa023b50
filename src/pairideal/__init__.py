"""Exact computer-algebra workbench for the ideal of pairs of a matroid
realization: cyclic flats, bigraded Betti tables, logarithmic derivations,
and associated-prime structure, all in exact arithmetic."""

from .scalars import QQ, PrimeField, Rationals
from .linalg import ExactMatrix
from .matroid import Matroid, Realization, biflats
from .ring import Poly, PolyRing, pair_ring, x_ring
from .pairs import PairsIdeal
from .graded import BettiTable, GradedEngine
from .groebner import Ideal, is_associated
from .resolution import SchreyerResolution, minimal_generators, schreyer_resolution
from .derivations import DerivationModule, pdim_bounds, recipe_check
from .primes import (
    LinearPrime,
    associated_primes,
    minimal_primes,
    slice_associated_primes,
    uniform_checks,
    verify_min_primes,
)
from .fixtures import fixture_names, get_fixture
from .io import InputSpec, spec_for_realization
from .workbench import VERIFY_TARGETS, Workbench, full_report

__version__ = "0.1.0"

__all__ = [
    "QQ",
    "PrimeField",
    "Rationals",
    "ExactMatrix",
    "Matroid",
    "Realization",
    "biflats",
    "Poly",
    "PolyRing",
    "pair_ring",
    "x_ring",
    "PairsIdeal",
    "BettiTable",
    "GradedEngine",
    "Ideal",
    "is_associated",
    "SchreyerResolution",
    "minimal_generators",
    "schreyer_resolution",
    "DerivationModule",
    "pdim_bounds",
    "recipe_check",
    "LinearPrime",
    "associated_primes",
    "minimal_primes",
    "slice_associated_primes",
    "uniform_checks",
    "verify_min_primes",
    "fixture_names",
    "get_fixture",
    "InputSpec",
    "spec_for_realization",
    "VERIFY_TARGETS",
    "Workbench",
    "full_report",
]
