"""Columns A(j, .) of the extrapolation triangle, for tests that check j > 0.

``build_table`` keeps only the j = 0 diagonal.  Column j of the triangle
uses only the samples l >= j, so the table built on the shifted schedule
R_j, R_{j+1}, ... has the same fit ordinates, weights and nodes t; only
H and K change sign as a whole (for odd j), which |.| removes.  Its
diagonal is therefore column j, bit for bit; test_w_algorithm checks
this against the triangle oracle in ``oracles.py``.
"""

from fracsum.series_model import sums_and_terms
from fracsum.w_algorithm import build_table


def problem_arrays(problem, schedule, depth, ctx):
    """``sums`` and ``terms`` indexed from 0 (A_0 = 0, a_0 unused) up to R_depth."""
    R = schedule.prefix(depth + 1)
    sums, terms = sums_and_terms(problem, R[-1], ctx)
    return [ctx.zero] + sums, [None] + terms


def columns(sums, terms, schedule, m, sigma_hat, depth, ctx):
    """Tables whose ``A[n]``, ``gamma[n]``, ``lam[n]`` are A(j,n), Gamma(j,n), Lambda(j,n).

    Entry j of the returned list serves column j, for 0 <= j <= depth.
    """
    R = schedule.prefix(depth + 1)
    return [
        build_table(sums, terms, R[j:], m, sigma_hat, ctx)
        for j in range(depth + 1)
    ]


def problem_columns(problem, schedule, depth, ctx):
    """``columns`` for a series problem, from its own sums and terms."""
    sums, terms = problem_arrays(problem, schedule, depth, ctx)
    return columns(sums, terms, schedule, problem.m, problem.sigma_hat, depth, ctx)
