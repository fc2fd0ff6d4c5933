"""User-facing acceleration driver.

``accelerate`` takes the schedule prefix R once, accumulates the partial
sums, keeping A_k and a_k at k = R_l and R_l - 1 only (so its memory
grows with the depth, not with R_depth), runs the W-algorithm and
answers with the deepest j = 0 diagonal entry of least ``score``.
``estimate_errors`` is the one pass that makes the diagonal's rows
(Gamma*u, Lambda*u, Lambda*u/|A| with u = ``ctx.eps``, and the score);
builtin products arrive as the series of
``series_model.product_to_series``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .sampling import Schedule, _check_integer
from .series_model import SeriesProblem, resolve_known_S, sums_and_terms
from .w_algorithm import ExtrapolationTable, build_table

__all__ = [
    "AccelerationResult",
    "DiagnosticsRow",
    "accelerate",
    "sum_trig",
    "estimate_errors",
]


@dataclass
class AccelerationResult:
    """Outcome of one acceleration run.

    ``rows`` are the ``estimate_errors`` rows, ``best = (0, n)`` the deepest
    of least ``score``, and ``value``, ``est_abs_error`` and
    ``est_rel_error`` that row's ``value``, ``est_abs`` and ``est_rel``.
    """

    table: ExtrapolationTable
    best: tuple
    value: object
    est_abs_error: object
    est_rel_error: object
    rows: list


def accelerate(problem: SeriesProblem, schedule: Schedule, depth: int, ctx) -> AccelerationResult:
    """Accelerate a series up to diagonal entry A(0, depth), depth >= 0.

    ``problem.known_S`` is resolved, and so may raise, before any term is evaluated.
    Every term a_1..a_{R_depth} is evaluated and summed once, but only the
    partial sums and terms at R_l and R_l - 1 are kept, so that the fit
    ordinates are there for either sign of sigma_hat; ``build_table``
    reads them from mappings by index, with A_0 = 0.
    """
    _check_integer(depth, "depth", 0)
    known_S = resolve_known_S(problem.known_S, ctx)
    R = schedule.prefix(depth + 1)
    kept, last = [], 0  # R_l - 1 and R_l in one pass over the increasing R
    for r in R:
        if r - 1 > last:
            kept.append(r - 1)
        kept.append(r)
        last = r
    sums, terms = sums_and_terms(problem, kept, ctx)
    table = build_table(dict(zip([0, *kept], [ctx.zero, *sums])), dict(zip(kept, terms)), R,
                        problem.m, problem.sigma_hat, ctx)
    rows = estimate_errors(table, known_S)
    best = min(reversed(rows), key=lambda row: row.score)  # ties resolve to the deeper entry
    return AccelerationResult(
        table=table,
        best=(0, best.n),
        value=best.value,
        est_abs_error=best.est_abs,
        est_rel_error=best.est_rel,
        rows=rows,
    )


def sum_trig(pair, schedule: Schedule, depth: int, ctx):
    """Cosine and sine sums (S_c, S_s) from a ``trig_series_pair``.

    Both problems are accelerated and combined as (S+ + S-)/2 and
    (S+ - S-)/(2i).  Only for a pair made with ``h_is_real=True`` is one
    acceleration of the '+' problem used, and (S_c, S_s) = (Re, Im) of its
    value.
    """
    plus, minus = pair
    if plus.meta.get("h_is_real"):
        value = accelerate(plus, schedule, depth, ctx).value
        return ctx.convert(value.real), ctx.convert(value.imag)
    sp = accelerate(plus, schedule, depth, ctx).value
    sm = accelerate(minus, schedule, depth, ctx).value
    return (sp + sm) / 2, (sp - sm) / (2 * ctx.mpc(0, 1))


@dataclass
class DiagnosticsRow:
    """Per-entry diagnostics along the j = 0 diagonal, with the entry's selection score."""

    n: int
    R: int
    sample: object
    value: object
    gamma: object
    lam: object
    est_abs: object  # Lambda * u
    est_rel: object  # Lambda * u / |value|
    score: object  # max(stability part, convergence signal); see estimate_errors
    sample_error: Optional[object] = None  # |A_{R_n} - S|, when S is known
    true_error: Optional[object] = None  # |A(0,n) - S|, when S is known


def estimate_errors(table: ExtrapolationTable, known_S=None) -> list:
    """Diagnostics rows for the j = 0 diagonal, each with its selection score.

    The stability part of ``score`` is max(Gamma*u, Lambda*u/|A|), the
    attainable relative accuracy at entry n; A = 0 with Lambda = 0
    (A(0,0) = A_0 = 0 when sigma_hat < 0 and R_0 = 1) has no relative-error
    scale, and Gamma*u alone remains.  That part is smallest at n = 0, where
    nothing has converged yet, so the score is its max with the realized
    convergence signal |A(0,n) - A(0,n-1)|/|A(0,n)| (1 at n = 0, claiming
    no digits; inf at A = 0), and it bottoms out at the instability onset.
    This rule is a heuristic of this implementation, not of the algorithm.
    ``known_S`` is read by ``series_model.resolve_known_S``; the true
    errors it gives are reporting-only and never feed the score.
    """
    ctx = table.ctx
    u = ctx.eps
    S = resolve_known_S(known_S, ctx)
    rows = []
    columns = zip(table.R, table.samples, table.A, table.gamma, table.lam)
    for n, (R_n, sample, value, gam, lam) in enumerate(columns):
        absv = ctx.convert(abs(value))
        est_gamma, est_abs = gam * u, lam * u
        est_rel = est_abs / absv if absv > 0 else ctx.inf
        stab = est_gamma if absv == 0 and lam == 0 else max(est_gamma, est_rel)
        if n == 0:
            conv = ctx.one
        else:
            conv = abs(value - table.A[n - 1]) / absv if absv > 0 else ctx.inf
        rows.append(
            DiagnosticsRow(
                n=n,
                R=R_n,
                sample=sample,
                value=value,
                gamma=gam,
                lam=lam,
                est_abs=est_abs,
                est_rel=est_rel,
                score=max(stab, conv),
                sample_error=ctx.convert(abs(sample - S)) if S is not None else None,
                true_error=ctx.convert(abs(value - S)) if S is not None else None,
            )
        )
    return rows
