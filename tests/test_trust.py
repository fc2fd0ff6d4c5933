"""Trust ledger: how often the error estimate covers the true error, across depths.

For each of the 14 reference pairs (problem, schedule) whose limit S is
known, one ``accelerate`` table is built, at depth 64 for APS schedules
and at max(40, reference depth) for GPS.  A(0,n) and its ``score`` read
samples 0..n only, so the selection at a shallower depth d is the
deepest row of least score among rows 0..d.  The ledger takes it at
depths 8, 12, 16, ... and at each reference depth: 188 selections per
preset.

A selection is covered when |A - S| <= ``est_abs_error`` (Lambda*u) and
under-estimated when |A - S| exceeds it more than 1e3-fold.  The counts
are today's, asserted as a floor (covered) and a ceiling
(under-estimated); a change that moves them updates the bound.  Every
miss is printed (run with ``-s`` to see them), so a change can name the
misses it fixes.  The ex5_7 ``aps:1,1`` plateau is one of them.
"""

import pytest

from fracsum.numerics import DOUBLE, QUAD, make_context
from fracsum.reference_tables import REFERENCE_TABLES
from fracsum.sampling import parse_schedule
from fracsum.series_model import builtin_problem
from fracsum.transform import accelerate

SELECTIONS = 188
# (covered floor, under-estimated ceiling) per preset
LEDGER = {"quad": (71, 81), "double": (123, 43)}
UNDER = 1000


def _selections(ctx):
    """(label, selected row, whether d is a reference depth) for every selection of the sweep."""
    for ref in REFERENCE_TABLES:
        if not ref.has_S:
            continue
        problem, schedule = builtin_problem(ref.problem), parse_schedule(ref.schedule)
        deepest = 64 if ref.schedule.startswith("aps") else max(40, ref.depth)
        rows = accelerate(problem, schedule, deepest, ctx).rows
        for d in sorted(set(range(8, deepest + 1, 4)) | {ref.depth}):
            best = min(reversed(rows[:d + 1]), key=lambda row: row.score)  # ties to the deeper row
            if d == ref.depth:
                assert accelerate(problem, schedule, d, ctx).best == (0, best.n), (ref.problem, d)
            yield f"{ref.problem} {ref.schedule} depth {d}", best


@pytest.mark.parametrize("precision", [QUAD, DOUBLE], ids=["quad", "double"])
def test_trust_ledger_across_depths(precision):
    ctx = make_context(precision)
    covered = under = total = 0
    for label, row in _selections(ctx):
        total += 1
        if row.true_error <= row.est_abs:
            covered += 1
            continue
        ratio = row.true_error / row.est_abs if row.est_abs else ctx.inf
        under += ratio > UNDER
        print(f"miss: {label}: n = {row.n}, true/est = {ctx.nstr(ratio, 3)}")
    print(f"{precision.name}: {covered} of {total} covered, {under} under-estimated > {UNDER}x")
    floor, ceiling = LEDGER[precision.name]
    assert total == SELECTIONS
    assert covered >= floor, (covered, floor)
    assert under <= ceiling, (under, ceiling)
