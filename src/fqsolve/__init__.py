"""Exact solving, summing and analysis of polynomial equation systems
over finite fields."""

from .analysis import (ExponentReport, entropy_H, ext_binom,
                       ext_binom_cum, gap_I, zeta)
from .core import SolverParams, full_sum, partial_sum, solve_pes, zdegree
from .field import FieldSpec, make_field
from .mpoly import (Polynomial, PolySystem, TrimmedPointSet, enumerate_points,
                    eval_indicator, format_pes, parse_pes, symbolic_coefficient)
from .oracle import (RootCount, brute_Z, brute_partial_sum, count_common_roots,
                     plurality)
from .randomized import RngStream, razborov_smolensky, valiant_vazirani
from .reduction import Cnf, ReductionPlan, parse_dimacs, reduce_cnf
from .transform import (TrimmedEvaluation, evaluate_trimmed,
                        format_evaluation, interpolate_trimmed,
                        parse_evaluation)

__version__ = "0.1.0"

__all__ = [
    "ExponentReport", "entropy_H", "ext_binom", "ext_binom_cum", "gap_I",
    "zeta", "SolverParams", "full_sum", "partial_sum", "plurality",
    "solve_pes", "zdegree", "FieldSpec", "make_field", "Polynomial",
    "PolySystem", "TrimmedPointSet", "enumerate_points", "eval_indicator",
    "format_pes", "parse_pes", "symbolic_coefficient", "RootCount",
    "brute_Z", "brute_partial_sum", "count_common_roots", "RngStream",
    "razborov_smolensky", "valiant_vazirani", "Cnf", "ReductionPlan",
    "parse_dimacs", "reduce_cnf", "TrimmedEvaluation", "evaluate_trimmed",
    "format_evaluation", "interpolate_trimmed", "parse_evaluation",
]
