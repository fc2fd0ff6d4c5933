"""Convergence acceleration for series and products whose terms expand in
fractional powers of n, with built-in numerical-stability monitoring."""

from .classify import (
    RatioExpansion,
    StructuralParameters,
    Verdict,
    convergence_verdict,
    epsilons_from_ratio,
    structure_from_ratio,
)
from .numerics import (
    DOUBLE,
    PRESETS,
    QUAD,
    Precision,
    NotANumberError,
    RangeOverflowError,
    make_context,
)
from .sampling import Schedule, make_aps, make_explicit, make_gps, parse_schedule
from .series_model import (
    ProductProblem,
    SeriesProblem,
    TelescopingFamily,
    builtin_ids,
    builtin_problem,
    load_problem,
    product_to_series,
    telescoping_terms,
    trig_series_pair,
)
from .transform import (
    AccelerationResult,
    accelerate,
    estimate_errors,
    sum_trig,
)
from .w_algorithm import (DegenerateDenominatorError, ExtrapolationTable, WeightUnderflowError, ZeroTermError,
                          build_table)

__version__ = "0.1.0"

__all__ = [
    "AccelerationResult",
    "DegenerateDenominatorError",
    "DOUBLE",
    "ExtrapolationTable",
    "NotANumberError",
    "PRESETS",
    "Precision",
    "ProductProblem",
    "QUAD",
    "RangeOverflowError",
    "RatioExpansion",
    "Schedule",
    "SeriesProblem",
    "StructuralParameters",
    "TelescopingFamily",
    "Verdict",
    "WeightUnderflowError",
    "ZeroTermError",
    "accelerate",
    "build_table",
    "builtin_ids",
    "builtin_problem",
    "convergence_verdict",
    "epsilons_from_ratio",
    "estimate_errors",
    "load_problem",
    "make_aps",
    "make_context",
    "make_explicit",
    "make_gps",
    "parse_schedule",
    "product_to_series",
    "structure_from_ratio",
    "sum_trig",
    "telescoping_terms",
    "trig_series_pair",
]
