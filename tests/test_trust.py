"""Trust ledgers: how often the error estimate covers the true error.

The depth sweep runs the paper's known-S examples across depths; the
class corpus runs drawn telescoping families outside the builtins.

For each of the 14 reference pairs (problem, schedule) whose limit S is
known, one ``accelerate`` table is built, at depth 64 for APS schedules
and at max(40, reference depth) for GPS.  A(0,n) and its ``score`` read
samples 0..n only, so the selection at a shallower depth d is the
deepest row of least score among rows 0..d.  The ledger takes it at
depths 8, 12, 16, ... and at each reference depth: 188 selections per
preset.

A selection is covered when |A - S| <= ``est_abs_error`` (score*|A|) and
under-estimated when |A - S| exceeds it more than 1e3-fold.  The counts
are today's, asserted as a floor (covered) and a ceiling
(under-estimated); a change that moves them updates the bound.  Every
miss is printed (run with ``-s`` to see them), so a change can name the
misses it fixes.  The ex5_7 ``aps:1,1`` plateau is one of them.

The class corpus is ``oracles.telescoping_corpus(CORPUS_SEED,
CORPUS_DRAWS)``: 60 ``TelescopingFamily`` problems, whose sum is -1,
each run by ``accelerate`` at its drawn schedule and depth (about 2 s at
quad and 1 s at double); the seed was fixed before any result was seen.
Its ledger counts the same two things for ``accelerate``'s selection,
and apart from them the draws that end in an error, each of which must
be one of fracsum's named errors.
"""

import pytest

from fracsum import TelescopingFamily, telescoping_terms
from fracsum.numerics import DOUBLE, QUAD, make_context
from fracsum.reference_tables import REFERENCE_TABLES
from fracsum.sampling import parse_schedule
from fracsum.series_model import builtin_problem
from fracsum.transform import accelerate

from oracles import telescoping_corpus

SELECTIONS = 188
# (covered floor, under-estimated ceiling) per preset
LEDGER = {"quad": (147, 19), "double": (142, 23)}
UNDER = 1000
CORPUS_SEED, CORPUS_DRAWS = 27, 60
# (covered floor, under-estimated ceiling) per preset
CORPUS_LEDGER = {"quad": (39, 2), "double": (38, 3)}


def _tally(ctx, label, row):
    """(covered, under-estimated more than UNDER-fold) for one selected row; prints a miss."""
    if row.true_error <= row.est_abs:
        return True, False
    ratio = row.true_error / row.est_abs if row.est_abs else ctx.inf
    print(f"miss: {label}: n = {row.n}, true/est = {ctx.nstr(ratio, 3)}")
    return False, ratio > UNDER


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
        hit, far = _tally(ctx, label, row)
        covered += hit
        under += far
    print(f"{precision.name}: {covered} of {total} covered, {under} under-estimated > {UNDER}x")
    floor, ceiling = LEDGER[precision.name]
    assert total == SELECTIONS
    assert covered >= floor, (covered, floor)
    assert under <= ceiling, (under, ceiling)


@pytest.mark.parametrize("precision", [QUAD, DOUBLE], ids=["quad", "double"])
def test_trust_ledger_over_the_class_corpus(precision):
    ctx = make_context(precision)
    covered = under = 0
    errors = []
    for kind, s, m, theta, schedule, depth in telescoping_corpus(CORPUS_SEED, CORPUS_DRAWS):
        label = (f"kind {kind}, s = {s}, m = {m}, theta = ({', '.join(map(str, theta))}) "
                 f"{schedule} depth {depth}")
        problem = telescoping_terms(TelescopingFamily(kind, s, m, theta))
        try:
            result = accelerate(problem, parse_schedule(schedule), depth, ctx)
        except Exception as exc:  # counted apart; each must be named below
            errors.append((label, exc))
            print(f"error: {label}: {type(exc).__name__}: {exc}")
            continue
        hit, far = _tally(ctx, label, result.rows[result.best[1]])
        covered += hit
        under += far
    print(f"{precision.name}: {covered} of {CORPUS_DRAWS - len(errors)} covered, "
          f"{under} under-estimated > {UNDER}x, {len(errors)} named errors")
    for label, exc in errors:
        assert type(exc).__module__.startswith("fracsum.") and str(exc), (label, exc)
    floor, ceiling = CORPUS_LEDGER[precision.name]
    assert covered >= floor, (covered, floor)
    assert under <= ceiling, (under, ceiling)
