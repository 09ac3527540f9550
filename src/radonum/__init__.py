"""Exact 2-color Rado numbers for x1 + ... + x_{m-1} = a*x_m.

The package computes the nested-ceiling value C(m, a) and its polynomial
closed form, builds solution-free colorings certifying lower bounds, checks
arbitrary colorings for monochromatic solutions, and determines Rado numbers
exactly by exhaustive search with machine-checkable certificates.
"""

__version__ = "0.1.0"

from .checker import (
    find_mono_solution,
    is_valid_coloring,
    naive_find_mono_solution,
    verify_witness,
)
from .construction import lower_bound_coloring, small_case_coloring
from .core import Color, Coloring, RadoEquation, Witness
from .formula import (
    FormulaBreakdown,
    KnownNumber,
    ceiling_formula,
    closed_form,
    decompose,
    known_rado_number,
)
from .search import (
    SearchOutcome,
    SearchStats,
    exact_rado_number,
)

__all__ = [
    "Color",
    "Coloring",
    "FormulaBreakdown",
    "KnownNumber",
    "RadoEquation",
    "SearchOutcome",
    "SearchStats",
    "Witness",
    "ceiling_formula",
    "closed_form",
    "decompose",
    "exact_rado_number",
    "find_mono_solution",
    "is_valid_coloring",
    "known_rado_number",
    "lower_bound_coloring",
    "naive_find_mono_solution",
    "small_case_coloring",
    "verify_witness",
]
