import re
import tracemalloc

import pytest

from fracsum import transform
from fracsum.sampling import make_aps, make_gps, parse_schedule
from fracsum.series_model import (
    ProductProblem,
    SeriesProblem,
    builtin_ids,
    builtin_problem,
    load_problem,
    product_to_series,
    sums_and_terms,
    trig_series_pair,
)
from fracsum.transform import (
    accelerate,
    estimate_errors,
    sum_trig,
)
from fracsum.numerics import DOUBLE, QUAD, NotANumberError, make_context
from fracsum.w_algorithm import ExtrapolationTable, ZeroTermError, build_table

from columns import problem_columns
from oracles import cos_sqrt_reference


def test_ex5_2_deep_diagonal(qctx):
    res = accelerate(builtin_problem("ex5_2"), make_aps(1, 1), 28, qctx)
    assert abs(res.table.A[28] + 1) <= 1e-31
    assert abs(res.value + 1) <= 1e-31


def test_ex5_6_antilimit_value(qctx):
    res = accelerate(builtin_problem("ex5_6"), make_aps(1, 1), 32, qctx)
    ref = qctx.mpf("-1.02396073204906060526534757003580917")
    assert abs(res.table.A[32] - ref) <= 1e-29


def test_single_term_series_rejected(qctx):
    p = SeriesProblem("spike", lambda n, ctx: ctx.mpf(7) if n == 1 else ctx.zero, m=1)
    with pytest.raises(ZeroTermError):
        accelerate(p, make_aps(1, 1), 4, qctx)


def test_depth_validation(qctx):
    with pytest.raises(ValueError):
        accelerate(builtin_problem("ex5_1"), make_aps(1, 1), -1, qctx)
    calls = []
    counted = SeriesProblem("counted", lambda n, ctx: calls.append(n) or ctx.one / n, m=1)
    res = accelerate(counted, make_aps(3, 2), 0, qctx)  # R_0 = 2
    assert (res.best, res.value, calls) == ((0, 0), qctx.mpf(3) / 2, [1, 2])


def test_negative_sigma_hat_with_zero_first_ordinate(qctx):
    # sigma_hat < 0 and R_0 = 1 make A(0,0) = A_0 = 0 with Lambda(0,0) = 0: the
    # stability part of that entry's score is Gamma*u, so its score is 1, not inf
    problem, _ = load_problem({"expression": "power(-1,n)/n", "m": 1, "sigma_hat": -1})
    res = accelerate(problem, make_aps(1, 1), 0, qctx)
    assert (res.best, res.value, res.est_abs_error) == ((0, 0), 0, 0)
    assert [r.score for r in res.rows] == [1]
    assert res.est_rel_error == qctx.inf
    res = accelerate(problem, make_aps(1, 1), 20, qctx)
    assert (res.best, [r.score for r in res.rows[:2]]) == ((0, 20), [1, 1])
    assert (res.value, res.est_abs_error, res.est_rel_error) == tuple(map(qctx.mpf, (
        "-0.693147180559079048041782649636964154", "1.33495291090631643944382471321461805e-34",
        "1.92592994438723585305597794258492732e-34")))


@pytest.mark.parametrize("ident", ["ex5_2", "ex5_6", "ex7_1"])
def test_result_rows_are_the_diagnostics_rows(qctx, ident):
    problem = builtin_problem(ident)
    res = accelerate(problem, make_gps(1.3), 16, qctx)
    assert [vars(r) for r in res.rows] == [
        vars(r) for r in estimate_errors(res.table, problem.known_S)]
    assert (res.rows[-1].true_error is None) == (problem.known_S is None)
    # the selection never reads the true errors
    problem.known_S = None
    blind = accelerate(problem, make_gps(1.3), 16, qctx)
    assert (blind.best, blind.value) == (res.best, res.value)
    assert [r.score for r in blind.rows] == [r.score for r in res.rows]
    assert [vars(r) for r in blind.rows] == [vars(r) for r in estimate_errors(blind.table)]


@pytest.mark.parametrize("precision", [QUAD, DOUBLE], ids=lambda p: p.name)
def test_the_answer_is_the_deepest_row_of_least_score(precision):
    ctx = make_context(precision)
    for ident in builtin_ids():
        res = accelerate(builtin_problem(ident), make_aps(1, 1), 24, ctx)
        least = min(row.score for row in res.rows)
        row = [row for row in res.rows if row.score == least][-1]
        assert res.best == (0, row.n), ident
        assert (res.value, res.est_abs_error, res.est_rel_error) == (
            row.value, row.est_abs, row.est_rel), ident


def test_hand_built_table_scores(qctx, monkeypatch):
    # A(0,0) = 0 with Lambda = 0 scores max(Gamma*u, 1), not inf; A = 0 with
    # Lambda > 0 scores inf; rows 2 and 3 tie at 1/2, and the deeper one wins
    u, mpf = qctx.eps, qctx.mpf
    A = [mpf(0), mpf(1), mpf(2), mpf(4), mpf(0)]
    table = ExtrapolationTable(depth=4, ctx=qctx, R=[1, 2, 3, 4, 5], samples=A, A=A,
                               gamma=[mpf(3)] * 5, lam=[mpf(0)] + [mpf(1)] * 4)
    rows = estimate_errors(table)
    assert [r.score for r in rows] == [1, 1, 0.5, 0.5, qctx.inf]
    assert (rows[0].est_abs, rows[0].est_rel, rows[3].est_rel) == (0, qctx.inf, u / 4)
    monkeypatch.setattr(transform, "build_table", lambda *args: table)
    res = accelerate(SeriesProblem("ones", lambda n, ctx: ctx.one, m=1), make_aps(1, 1), 4, qctx)
    assert (res.best, res.value, res.est_rel_error) == ((0, 3), 4, u / 4)
    assert [vars(r) for r in res.rows] == [vars(r) for r in rows]


@pytest.mark.parametrize("precision", [QUAD, DOUBLE], ids=lambda p: p.name)
def test_known_S_is_read_by_one_rule(precision):
    # estimate_errors took True as S = 1, a NaN as S, and refused a string
    ctx = make_context(precision)

    def basel(n, ctx):
        return 1 / ctx.mpf(n) ** 2

    table = accelerate(SeriesProblem("basel", basel, m=1), make_aps(1, 1), 12, ctx).table
    for bad, message in ((True, "known_S must be a number or an expression string, got True"),
                         (float("nan"), "known_S must be finite, got nan")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SeriesProblem("basel", basel, m=1, known_S=bad)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            estimate_errors(table, bad)
    problem = SeriesProblem("basel", basel, m=1, known_S="pi*pi/6")
    rows = estimate_errors(table, "pi*pi/6")
    assert [vars(r) for r in rows] == [vars(r) for r in estimate_errors(table, problem.known_S)]
    assert rows[-1].true_error <= 1e-10
    with pytest.raises(ValueError, match=r"^known_S 'n \+ 1' uses n; known_S is the limit, a constant$"):
        estimate_errors(table, "n + 1")


def test_product_with_known_limit(qctx):
    res = accelerate(builtin_problem("ex7_1"), make_gps(1.3), 20, qctx)
    S = 2 / qctx.pi
    assert abs(res.table.A[20] - S) / abs(S) <= 1e-23


def test_product_ex7_2_reference_value(qctx):
    res = accelerate(builtin_problem("ex7_2"), make_gps(1.3), 32, qctx)
    ref = qctx.mpf("9.20090121315934117115672682505231045")
    # the reference and the last two diagonal entries agree to the
    # Lambda*u noise scale (~2e-26 here)
    assert abs(res.table.A[32] - ref) <= 1e-22
    assert abs(res.table.A[32] - res.table.A[31]) <= 1e-23


def test_degenerate_product_rejected(qctx):
    dead = ProductProblem("flat", lambda n, ctx: ctx.zero, m=1, t=2)
    with pytest.raises(ZeroTermError):
        accelerate(product_to_series(dead), make_aps(1, 1), 4, qctx)


def test_sum_trig_zero_phase_gives_zero_sine(qctx):
    pair = trig_series_pair(lambda n, ctx: 1 / ctx.mpf(n) ** 2, (0,), (0,), 0, 2, h_is_real=True)
    sc, ss = sum_trig(pair, make_gps(1.3), 32, qctx)
    assert ss == 0
    assert abs(sc - qctx.pi**2 / 6) <= 1e-20


def test_sum_trig_conjugation_law(qctx):
    pair = trig_series_pair(lambda n, ctx: 1 / ctx.mpf(n) ** 2, (0,), (0, 1), 0, 2)
    plus, minus = pair
    rp = problem_columns(plus, make_gps(1.3), 12, qctx)
    rm = problem_columns(minus, make_gps(1.3), 12, qctx)
    for j in range(13):
        for n in range(13 - j):
            assert rm[j].A[n] == qctx.conj(rp[j].A[n])
            assert rm[j].gamma[n] == rp[j].gamma[n]
            assert rm[j].lam[n] == rp[j].lam[n]


def test_sum_trig_cos_sqrt_over_n2(qctx):
    pair = trig_series_pair(
        lambda n, ctx: 1 / ctx.mpf(n) ** 2, (0,), (0, 1), 0, 2, h_is_real=True
    )
    sc, ss = sum_trig(pair, make_gps(1.3), 32, qctx)
    reference = cos_sqrt_reference(qctx)
    assert abs(sc - reference) <= 1e-20
    # the default (complex-h) path must agree with the real-h shortcut
    default = trig_series_pair(lambda n, ctx: 1 / ctx.mpf(n) ** 2, (0,), (0, 1), 0, 2)
    sc2, ss2 = sum_trig(default, make_gps(1.3), 32, qctx)
    assert abs(sc2 - sc) <= 1e-25
    assert abs(ss2 - ss) <= 1e-25


def test_sum_trig_does_not_guess_that_h_is_real(qctx):
    # h is real at n = 1, 2, 3 and complex beyond; by linearity S_c and S_s
    # are those of the real part plus i times those of the imaginary part
    def h_re(n, ctx):
        return 1 / ctx.mpf(n) ** 2

    def g(n, ctx):  # h_re + Im h, nonzero at every n so its pair can be summed
        return h_re(n, ctx) + (n - 1) * (n - 2) * (n - 3) / ctx.mpf(n) ** 5

    def h(n, ctx):
        return ctx.mpc(h_re(n, ctx), g(n, ctx) - h_re(n, ctx))

    def sums(f, **kwargs):
        return sum_trig(trig_series_pair(f, (0,), (0, 1), 0, 2, **kwargs), make_gps(1.3), 32, qctx)

    sc, ss = sums(h)
    rc, rs = sums(h_re, h_is_real=True)
    gc, gs = sums(g, h_is_real=True)
    assert abs(sc - qctx.mpc(rc, gc - rc)) <= 1e-20
    assert abs(ss - qctx.mpc(rs, gs - rs)) <= 1e-20
    assert abs(sc.imag + 0.046367) <= 1e-6


def test_scale_equivariance_exact_binary(qctx):
    # scaling by a power of two commutes with every rounding: bitwise equality
    base = builtin_problem("ex5_1")
    scaled = SeriesProblem("x8", lambda n, ctx: 8 * base.term(n, ctx), m=2)
    r1 = problem_columns(base, make_aps(1, 1), 10, qctx)
    r2 = problem_columns(scaled, make_aps(1, 1), 10, qctx)
    for j in range(11):
        for n in range(11 - j):
            assert r2[j].A[n] == 8 * r1[j].A[n]
            assert r2[j].gamma[n] == r1[j].gamma[n]
            assert r2[j].lam[n] == 8 * r1[j].lam[n]


def test_scale_equivariance_generic(qctx):
    # generic scalings perturb each rounding; the divided differences
    # amplify those perturbations by the conditioning that Gamma measures,
    # so the ulp bound carries a max(1, Gamma) factor
    base = builtin_problem("ex5_1")
    c = qctx.mpc(3, -2)
    scaled = SeriesProblem("scaled", lambda n, ctx: c * base.term(n, ctx), m=2)
    r1 = problem_columns(base, make_aps(1, 1), 10, qctx)
    r2 = problem_columns(scaled, make_aps(1, 1), 10, qctx)
    u = qctx.eps
    for j in range(11):
        for n in range(11 - j):
            slack = 8 * u * max(1, r1[j].gamma[n])
            ref = c * r1[j].A[n]
            assert abs(r2[j].A[n] - ref) <= slack * abs(ref)
            assert abs(r2[j].gamma[n] - r1[j].gamma[n]) <= slack * r1[j].gamma[n]
            lam_ref = abs(c) * r1[j].lam[n]
            assert abs(r2[j].lam[n] - lam_ref) <= slack * lam_ref


@pytest.mark.parametrize(
    "ident,sched,depth",
    [("ex5_1", "aps:1,1", 32), ("ex5_1", "gps:1.3", 24), ("ex5_7", "aps:5,5", 24)],
)
def test_best_entry_never_worse_than_first(qctx, ident, sched, depth):
    res = accelerate(builtin_problem(ident), parse_schedule(sched), depth, qctx)
    assert res.rows[res.best[1]].score <= res.rows[0].score
    assert 0 <= res.best[1] <= depth


def test_estimate_errors_signals_instability(qctx):
    res = accelerate(builtin_problem("ex5_3"), make_aps(1, 1), 36, qctx)
    rows = estimate_errors(res.table, builtin_problem("ex5_3").known_S)
    row36 = rows[36]
    assert 1 / 5 <= row36.gamma / qctx.mpf("8.15e28") <= 5
    # the estimated digit floor Gamma*u (~1.6e-5) correctly flags that
    # only a few digits are reliable: the realized error sits well above
    # the quad roundoff unit but within a few orders of the floor
    assert qctx.mpf("1e-8") <= row36.true_error <= qctx.mpf("1e-1")
    assert row36.sample_error is not None


def test_estimate_errors_stagnation_floor(qctx):
    p = builtin_problem("ex5_10")
    res = accelerate(p, make_aps(1, 1), 40, qctx)
    rows = estimate_errors(res.table)
    row40 = rows[40]
    assert row40.gamma == 1
    assert 1 / 5 <= row40.est_rel / qctx.mpf("6.7e-34") <= 5
    assert row40.true_error is None and row40.sample_error is None


def test_estimate_errors_known_S_columns(qctx):
    p = builtin_problem("ex5_2")
    res = accelerate(p, make_aps(1, 1), 8, qctx)
    rows = estimate_errors(res.table, p.known_S)
    assert abs(rows[0].sample_error - qctx.mpf("0.368")) < 5e-4
    assert rows[8].true_error <= qctx.mpf("4e-8")


def test_a_failing_known_S_raises_before_any_term(qctx):
    problem, _ = load_problem({"expression": "1/n**2", "m": 1, "known_S": "1/0"})
    term, calls = problem.term, []

    def counting(n, ctx):
        calls.append(n)
        return term(n, ctx)

    problem.term = counting
    with pytest.raises(ValueError, match=r"^known_S '1/0' fails: division by zero$"):
        accelerate(problem, make_aps(1, 1), 4, qctx)
    assert calls == []


@pytest.mark.parametrize("bad", [lambda ctx: ctx.nan, lambda ctx: ctx.mpc(1, ctx.nan)])
def test_nan_term_names_first_index(qctx, bad):
    # a NaN term used to yield a wrong value with a tiny error estimate
    def term(n, ctx):
        return bad(ctx) if n == 5 else 1 / ctx.mpf(n) ** 2

    with pytest.raises(NotANumberError, match=r"A_5\b"):
        accelerate(SeriesProblem("nan5", term, m=1), make_aps(1, 1), 8, qctx)


def _bits(x):
    """A float's hex form or an mpf's or mpc's raw tuple, so that equal bits compare equal."""
    if type(x) is float:
        return x.hex()
    return getattr(x, "_mpf_", None) or x._mpc_


@pytest.mark.parametrize("precision", [QUAD, DOUBLE], ids=["quad", "double"])
@pytest.mark.parametrize("sigma_hat", ["1", "0", "-1/2"])
def test_a_gps_table_is_the_table_of_the_full_sums(precision, sigma_hat):
    # accelerate keeps the sums at R_l and R_l - 1 only; on gps:1.3 the
    # R_l - 1 past R_7 = 7 lie outside R, and sigma_hat < 0 fits on them
    ctx = make_context(precision)
    problem, _ = load_problem({"expression": "power(-1,n)/sqrt(n)", "m": 2, "sigma_hat": sigma_hat})
    schedule, depth = parse_schedule("gps:1.3"), 24
    R = schedule.prefix(depth + 1)
    sums, terms = sums_and_terms(problem, range(1, R[-1] + 1), ctx)
    full = build_table([ctx.zero] + sums, [None] + terms, R, problem.m, problem.sigma_hat, ctx)
    table = accelerate(problem, schedule, depth, ctx).table
    assert table.R == R
    for name in ("samples", "A", "gamma", "lam"):
        assert list(map(_bits, getattr(table, name))) == list(map(_bits, getattr(full, name))), name


@pytest.mark.parametrize("bad", [lambda ctx: ctx.nan, lambda ctx: -ctx.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("precision", [QUAD, DOUBLE], ids=["quad", "double"])
def test_a_bad_term_between_two_samples_is_named(precision, bad):
    # on gps:1.3, R = 1, ..., 7, 9, 11, 14, 18, ...: a_16 is neither a sample nor the term before one
    ctx = make_context(precision)

    def term(n, ctx):
        return bad(ctx) if n == 16 else 1 / ctx.convert(n) ** 2

    named = r"^partial sum A_16 (is NaN|exceeds the .*: its term a_16 is infinite)$"
    with pytest.raises(ArithmeticError, match=named):
        accelerate(SeriesProblem("bad16", term, m=1), parse_schedule("gps:1.3"), 12, ctx)


@pytest.mark.parametrize("precision, depth", [(QUAD, 32), (DOUBLE, 36)], ids=["quad", "double"])
def test_accelerate_holds_the_samples_only(precision, depth):
    # gps:1.3 reaches R_32 = 5,258 and R_36 = 15,015 terms; a table keeps 2 * (depth + 1) sums
    ctx = make_context(precision)
    problem, schedule = builtin_problem("ex5_1"), parse_schedule("gps:1.3")
    accelerate(problem, schedule, depth, ctx)  # the warm-up builds the kernel tables
    tracemalloc.start()
    try:
        accelerate(problem, schedule, depth, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000, peak
