"""Exact arithmetic for involution numbers and related combinatorics.

Involution numbers, involution polynomials, partial sums, p-adic valuation
formulas and trees, cycle-index polynomials of bounded-cycle permutations,
truncated EGF algebra, saddle-point asymptotics, and a brute-force oracle.
"""

from .exactnum import (
    ZeroValuationError,
    multinomial,
    nu_int,
    nu_rat,
    partitions,
    poly_text,
)
from .involution import (
    hermite_poly,
    involution_number,
    involution_number_bisplit,
    involution_number_by_sum,
    involution_poly,
    umbral_derivative_coeffs,
)
from .partialsum import (
    F_sum,
    b_k,
    cauchy_alternating_sum,
    partial_sum,
    partial_sum_by_binomial,
)
from .valuation import (
    build_valuation_tree,
    conjecture_check,
    inefficient_primes_upto,
    is_efficient,
    nu2_involution,
    nu2_partial_sum,
    nu3_partial_sum,
    nu3_partial_sum_pattern_check,
    periodicity_check,
)
from .cyclecount import (
    CycleIndexPoly,
    cycle_index_poly,
    cycle_index_polys,
    restricted_count,
    toeplitz_determinant,
)
from .series import (
    TruncatedEGF,
    involution_egf,
    partial_sum_transform,
    series_derive,
    series_exp,
    series_integrate,
    series_mul,
)
from .asymptotic import (
    beta_closed_form,
    beta_series_extraction,
    estimate_closed_form,
    estimate_saddle,
    fit_phi_coefficients,
    log_exact_count,
    solve_saddle,
)
from .oracle import enumerate_census, partition_census

__version__ = "0.1.0"

__all__ = [
    "ZeroValuationError",
    "multinomial",
    "nu_int",
    "nu_rat",
    "partitions",
    "poly_text",
    "hermite_poly",
    "involution_number",
    "involution_number_bisplit",
    "involution_number_by_sum",
    "involution_poly",
    "umbral_derivative_coeffs",
    "F_sum",
    "b_k",
    "cauchy_alternating_sum",
    "partial_sum",
    "partial_sum_by_binomial",
    "build_valuation_tree",
    "conjecture_check",
    "inefficient_primes_upto",
    "is_efficient",
    "nu2_involution",
    "nu2_partial_sum",
    "nu3_partial_sum",
    "nu3_partial_sum_pattern_check",
    "periodicity_check",
    "CycleIndexPoly",
    "cycle_index_poly",
    "cycle_index_polys",
    "restricted_count",
    "toeplitz_determinant",
    "TruncatedEGF",
    "involution_egf",
    "partial_sum_transform",
    "series_derive",
    "series_exp",
    "series_integrate",
    "series_mul",
    "beta_closed_form",
    "beta_series_extraction",
    "estimate_closed_form",
    "estimate_saddle",
    "fit_phi_coefficients",
    "log_exact_count",
    "solve_saddle",
    "enumerate_census",
    "partition_census",
]
