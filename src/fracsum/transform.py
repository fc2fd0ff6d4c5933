"""User-facing acceleration driver.

``accelerate`` takes the schedule prefix R once, accumulates the partial
sums, runs the W-algorithm and selects an answer from the j = 0 diagonal
by the rows of ``estimate_errors`` (Gamma*u, Lambda*u and Lambda*u/|A|,
with u = ``ctx.eps``), built once per run and returned as
``AccelerationResult.rows``.  Builtin products arrive as the series of
``series_model.product_to_series``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .numerics import resolve_scalar
from .sampling import Schedule, _check_integer
from .series_model import SeriesProblem, sums_and_terms
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

    ``value`` is the entry at ``best = (j, n)``; ``est_abs_error`` and
    ``est_rel_error`` are the stability-based estimates Lambda*u and
    Lambda*u/|value| there.  ``rows`` are the ``estimate_errors`` rows and
    ``scores`` the per-n selection metric minimized over them (``_select``).
    """

    table: ExtrapolationTable
    best: tuple
    value: object
    est_abs_error: object
    est_rel_error: object
    scores: list
    rows: list


def _select(table: ExtrapolationTable, known_S=None) -> AccelerationResult:
    """Pick the diagonal entry with the smallest combined error metric.

    The stability part of the score is max(Gamma*u, Lambda*u/|A|), the
    attainable relative accuracy at entry n.  On its own it is useless
    early in the diagonal (it is smallest at n = 0, where nothing has
    converged yet), so it is combined with the realized convergence
    signal |A_n - A_{n-1}|/|A_n|; the score bottoms out at the
    instability onset, after which added terms stop helping.  This
    selection rule is a heuristic of this implementation, not part of
    the algorithm.  The rows' true errors (from ``known_S``) are not read.
    """
    rows = estimate_errors(table, known_S)
    scores = []
    prev = None
    for row in rows:
        absa = abs(row.value)
        # A = 0 with Lambda = 0 (A(0,0) = A_0 = 0 when sigma_hat < 0 and
        # R_0 = 1) has no relative-error scale; Gamma*u alone remains
        stab = row.est_gamma if absa == 0 and row.lam == 0 else max(row.est_gamma, row.est_rel)
        if row.n == 0:
            conv = table.ctx.one  # no convergence evidence yet: claim no digits
        elif absa > 0:
            conv = abs(row.value - prev) / absa
        else:
            conv = table.ctx.inf
        scores.append(max(stab, conv))
        prev = row.value
    best_n = 0
    for n, s in enumerate(scores):
        if s <= scores[best_n]:  # ties resolve to the deeper entry
            best_n = n
    best = rows[best_n]
    return AccelerationResult(
        table=table,
        best=(0, best_n),
        value=best.value,
        est_abs_error=best.est_abs,
        est_rel_error=best.est_rel,
        scores=scores,
        rows=rows,
    )


def accelerate(problem: SeriesProblem, schedule: Schedule, depth: int, ctx) -> AccelerationResult:
    """Accelerate a series up to diagonal entry A(0, depth), depth >= 0.

    ``problem.known_S`` is resolved, and so may raise, before any term is evaluated.
    """
    _check_integer(depth, "depth", 0)
    known_S = resolve_scalar(problem.known_S, ctx)
    R = schedule.prefix(depth + 1)
    sums, terms = sums_and_terms(problem, R[-1], ctx)
    table = build_table([ctx.zero] + sums, [None] + terms, R, problem.m, problem.sigma_hat, ctx)
    return _select(table, known_S)


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
    """Per-entry diagnostics along the j = 0 diagonal."""

    n: int
    R: int
    sample: object
    value: object
    gamma: object
    lam: object
    est_gamma: object  # Gamma * u: attainable relative accuracy, convergent case
    est_abs: object  # Lambda * u
    est_rel: object  # Lambda * u / |value|
    sample_error: Optional[object] = None  # |A_{R_n} - S|, when S is known
    true_error: Optional[object] = None  # |A(0,n) - S|, when S is known


def estimate_errors(table: ExtrapolationTable, known_S=None) -> list:
    """Diagnostics rows for the j = 0 diagonal.

    When ``known_S`` is given the true errors are included; they are
    reporting-only and never feed back into entry selection.
    """
    ctx = table.ctx
    u = ctx.eps
    S = resolve_scalar(known_S, ctx)
    rows = []
    columns = zip(table.R, table.samples, table.A, table.gamma, table.lam)
    for n, (R_n, sample, value, gam, lam) in enumerate(columns):
        absv = ctx.convert(abs(value))
        rows.append(
            DiagnosticsRow(
                n=n,
                R=R_n,
                sample=sample,
                value=value,
                gamma=gam,
                lam=lam,
                est_gamma=gam * u,
                est_abs=lam * u,
                est_rel=lam * u / absv if absv > 0 else ctx.inf,
                sample_error=ctx.convert(abs(sample - S)) if S is not None else None,
                true_error=ctx.convert(abs(value - S)) if S is not None else None,
            )
        )
    return rows
