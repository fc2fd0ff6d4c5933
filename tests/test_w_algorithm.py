import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fracsum.numerics import (DOUBLE, QUAD, NotANumberError, Precision, RangeOverflowError,
                              make_context)
from fracsum.reference_tables import REFERENCE_TABLES
from fracsum.sampling import make_aps, make_explicit, make_gps, parse_schedule
from fracsum.series_model import builtin_problem
from fracsum.w_algorithm import (DegenerateDenominatorError, WeightUnderflowError, ZeroTermError,
                                  build_table)

from columns import columns, problem_arrays, problem_columns
from oracles import (
    SingularSystemError,
    dense_oracle,
    gamma_from_weights,
    lambda_from_weights,
    w_triangle,
)


def _table(ident, schedule, depth, ctx):
    p = builtin_problem(ident)
    sums, terms = problem_arrays(p, schedule, depth, ctx)
    R = schedule.prefix(depth + 1)
    return build_table(sums, terms, R, p.m, p.sigma_hat, ctx), sums, terms, p


def test_depth_zero_column(qctx):
    table, sums, terms, p = _table("ex5_1", make_aps(1, 1), 6, qctx)
    cols = columns(sums, terms, make_aps(1, 1), p.m, p.sigma_hat, 6, qctx)
    for j in range(7):
        assert cols[j].A[0] == sums[j + 1]  # A(j,0) = A_{R_j}, bit-exact
        assert cols[j].gamma[0] == 1
        assert cols[j].lam[0] == abs(sums[j + 1])
    assert abs(table.lam[0] - qctx.mpf("0.632")) < 5e-4


def test_alternating_series_gamma_exactly_one(qctx):
    table, sums, terms, p = _table("ex5_2", make_aps(1, 1), 8, qctx)
    cols = columns(sums, terms, make_aps(1, 1), p.m, p.sigma_hat, 8, qctx)
    for j in range(9):
        for n in range(9 - j):
            assert cols[j].gamma[n] == 1
    err = abs(table.A[8] + 1)
    assert abs(err / qctx.mpf("3.33e-8") - 1) < 0.02


def test_constant_tail_is_reproduced_exactly(qctx):
    # manufactured data: every fit ordinate equals S = -1, terms arbitrary
    schedule = make_aps(1, 1)
    depth = 6
    sums = [qctx.mpf(-1)] * 10
    sums[0] = qctx.zero
    terms = [None] + [qctx.mpf(2 + (i % 3)) / 7 for i in range(9)]
    cols = columns(sums, terms, schedule, 2, Fraction(1), depth, qctx)
    for j in range(depth + 1):
        for n in range(depth + 1 - j):
            assert cols[j].A[n] == -1


@pytest.mark.parametrize("sigma_hat", [Fraction(1), Fraction(-1, 2)])
def test_model_data_is_reproduced(qctx, sigma_hat):
    # ordinates built from the fitted model itself: entries with n >= 3
    # must return S up to roundoff amplification
    m = 2
    S = qctx.mpf("0.7")
    betas = [qctx.mpf(2), qctx.mpf(-1), qctx.mpf("0.5")]
    schedule = make_aps(1, 1)
    depth = 6
    R = schedule.prefix(depth + 1)
    sums = [qctx.zero] * (R[-1] + 1)
    terms = [None] * (R[-1] + 1)
    for r in R:
        a = 1 + qctx.one / r
        terms[r] = a
        basis = sum(b * qctx.power(r, -qctx.mpf(i) / m) for i, b in enumerate(betas))
        ordinate = S + qctx.power(r, qctx.convert(sigma_hat)) * a * basis
        if sigma_hat < 0:
            sums[r - 1] = ordinate
        else:
            sums[r] = ordinate
    cols = columns(sums, terms, schedule, m, sigma_hat, depth, qctx)
    for j in range(depth + 1):
        for n in range(3, depth + 1 - j):
            assert abs(cols[j].A[n] - S) <= 1e-27
    d = dense_oracle(sums, terms, schedule, m, sigma_hat, 0, 0, 3, qctx)
    assert abs(d.value - S) <= 1e-27


def test_dense_oracle_with_offset_alpha(qctx):
    # model built on the (R + 1)^(-i/m) basis is recovered by alpha = 1
    m = 2
    S = qctx.mpf(-3)
    betas = [qctx.mpf(1), qctx.mpf(4), qctx.mpf(-2)]
    schedule = make_aps(1, 1)
    R = schedule.prefix(5)
    sums = [qctx.zero] * (R[-1] + 1)
    terms = [None] * (R[-1] + 1)
    for r in R:
        a = qctx.one / (r + 2)
        terms[r] = a
        basis = sum(b * qctx.power(r + 1, -qctx.mpf(i) / m) for i, b in enumerate(betas))
        sums[r] = S + r * a * basis
    d = dense_oracle(sums, terms, schedule, m, Fraction(1), 1, 0, 4, qctx)
    assert abs(d.value - S) <= 1e-28
    assert abs(sum(d.weights) - 1) <= 1e-25 * max(1, float(gamma_from_weights(d)))
    with pytest.raises(ValueError):
        dense_oracle(sums, terms, schedule, m, Fraction(1), -1, 0, 2, qctx)


def test_zero_term_error_names_index(qctx):
    schedule = make_aps(1, 1)
    sums = [qctx.one] * 8
    terms = [None] + [qctx.one] * 7
    terms[3] = qctx.zero
    with pytest.raises(ZeroTermError, match="a_3"):
        build_table(sums, terms, schedule.prefix(5), 2, Fraction(1), qctx)
    with pytest.raises(ZeroTermError, match="a_3"):
        dense_oracle(sums, terms, schedule, 2, Fraction(1), 0, 0, 4, qctx)


def test_zero_term_error_names_no_underflow_at_quad(qctx):
    schedule = make_aps(1, 1)
    sums = [qctx.one] * 8
    terms = [None] + [qctx.one] * 7
    terms[3] = qctx.zero
    with pytest.raises(ZeroTermError) as info:
        build_table(sums, terms, schedule.prefix(5), 2, Fraction(1), qctx)
    assert info.value.index == 3
    assert str(info.value) == "term a_3 at a scheduled index is zero"


def test_dense_trivial_entry(qctx):
    table, sums, terms, p = _table("ex5_1", make_aps(1, 1), 4, qctx)
    d = dense_oracle(sums, terms, make_aps(1, 1), p.m, p.sigma_hat, 0, 2, 0, qctx)
    assert d.value == sums[3]
    assert d.weights == [1]
    assert gamma_from_weights(d) == 1
    assert lambda_from_weights(d) == abs(sums[3])


def test_dense_matches_recursion_ex5_1(qctx):
    table, sums, terms, p = _table("ex5_1", make_aps(1, 1), 8, qctx)
    d = dense_oracle(sums, terms, make_aps(1, 1), p.m, p.sigma_hat, 0, 0, 8, qctx)
    assert abs(table.A[8] - d.value) <= 1e-20 * abs(d.value)
    err = abs(d.value + 1)
    assert abs(err / qctx.mpf("4.65e-4") - 1) < 0.02
    assert abs(gamma_from_weights(d) - table.gamma[8]) <= 1e-20 * table.gamma[8]
    assert abs(lambda_from_weights(d) - table.lam[8]) <= 1e-20 * table.lam[8]


def test_weight_normalization_randomized(qctx):
    rng = random.Random(20170423)
    for trial in range(12):
        depth = rng.randint(6, 9)
        start = rng.randint(1, 3)
        values = [start]
        while len(values) <= depth:
            values.append(values[-1] + rng.randint(1, 3))
        schedule = make_explicit(values)
        m = rng.choice([1, 2, 3])
        sums = [qctx.zero] * (values[-1] + 1)
        terms = [None] * (values[-1] + 1)
        for k in range(1, values[-1] + 1):
            terms[k] = qctx.exp(qctx.mpf(rng.uniform(-1, 1)))
            sums[k] = sums[k - 1] + terms[k]
        for j in range(4):
            for n in range(7):
                if j + n > depth:
                    continue
                d = dense_oracle(sums, terms, schedule, m, Fraction(1), 0, j, n, qctx)
                scale = max(1, float(gamma_from_weights(d)))
                assert abs(sum(d.weights) - 1) <= 1e-25 * scale, (trial, j, n)


def test_gamma_lower_bound(qctx):
    cols = problem_columns(builtin_problem("ex5_1"), make_gps(1.3), 16, qctx)
    for j in range(17):
        for n in range(17 - j):
            assert cols[j].gamma[n] >= 1 - qctx.mpf("1e-30")


def test_singular_system_raises(qctx):
    # phi_l constant makes the beta_0 column collinear with the ones column
    schedule = make_aps(1, 1)
    sums = [qctx.zero] + [qctx.mpf(k) for k in range(1, 8)]
    terms = [None] + [qctx.one / r for r in range(1, 8)]  # r * a_r = 1 for all rows
    with pytest.raises(SingularSystemError) as info:
        dense_oracle(sums, terms, schedule, 2, Fraction(1), 0, 0, 2, qctx)
    assert info.value.condition_estimate == qctx.inf


def test_build_table_requires_enough_terms(qctx):
    schedule = make_aps(1, 1)
    sums = [qctx.zero, qctx.one]
    terms = [None, qctx.one]
    with pytest.raises(ValueError):
        build_table(sums, terms, schedule.prefix(4), 2, Fraction(1), qctx)


@pytest.mark.parametrize("R", [[], [0, 1], [2, 2]], ids=["empty", "zero", "repeated"])
def test_build_table_rejects_a_bad_schedule_prefix(qctx, R):
    sums = [qctx.zero] + [qctx.one] * 4
    terms = [None] + [qctx.one] * 4
    with pytest.raises(ValueError, match="R must be nonempty, positive and strictly increasing"):
        build_table(sums, terms, R, 1, Fraction(1), qctx)


def test_complex_terms_table(qctx):
    # complex phases: A entries complex, Gamma/Lambda real and >= their bounds
    p = builtin_problem("ex5_1")

    def cterm(n, ctx):
        return p.term(n, ctx) * ctx.expjpi(ctx.mpf(n) / 3)

    from fracsum.series_model import SeriesProblem

    cp = SeriesProblem("complexified", cterm, m=2)
    sums, terms = problem_arrays(cp, make_aps(1, 1), 6, qctx)
    table = build_table(sums, terms, make_aps(1, 1).prefix(7), 2, Fraction(1), qctx)
    assert table.A[6].imag != 0
    for n in range(7):
        assert table.gamma[n] >= 1 - qctx.mpf("1e-30")
        assert table.lam[n] >= 0


def _assert_columns_of_triangle(tables, triangle, R):
    """tables[j] equals column j of the ``w_triangle`` result, bit for bit."""
    samples, A, G, L = triangle
    for j, table in enumerate(tables):
        assert table.R == R[j:], j
        assert table.samples == samples[j:], j
        assert table.A == A[j], j
        assert table.gamma == G[j], j
        assert table.lam == L[j], j


# deep alternating tables: H mirrors N throughout, K mirrors M in part (ex5_8) or hardly (ex5_12)
_DEEP_ALTERNATING = [("ex5_8", "aps:1,1", 128), ("ex5_12", "aps:1,1", 128)]


@pytest.mark.parametrize("precision", [QUAD, DOUBLE], ids=["quad", "double"])
def test_streamed_diagonal_matches_triangle_on_reference_tables(precision):
    ctx = make_context(precision)
    cases = [(ref.problem, ref.schedule, ref.depth) for ref in REFERENCE_TABLES]
    for ident, spec, depth in cases + _DEEP_ALTERNATING:
        problem = builtin_problem(ident)
        schedule = parse_schedule(spec)
        R = schedule.prefix(depth + 1)
        sums, terms = problem_arrays(problem, schedule, depth, ctx)
        table = build_table(sums, terms, R, problem.m, problem.sigma_hat, ctx)
        triangle = w_triangle(sums, terms, R, problem.m, problem.sigma_hat, ctx)
        _assert_columns_of_triangle([table], triangle, R)


@st.composite
def _explicit_problems(draw, numerators=lambda m: st.integers(-2 * m, m)):
    """Random explicit schedule, m, sigma_hat = k/m with k from ``numerators(m)``, real or complex terms."""
    gaps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=9))
    R = [sum(gaps[: i + 1]) for i in range(len(gaps))]
    m = draw(st.sampled_from([1, 2, 3]))
    sigma_hat = Fraction(draw(numerators(m)), m)
    complex_terms = draw(st.booleans())
    logs = st.floats(-3, 3, allow_nan=False)
    phases = st.floats(-1, 1, allow_nan=False) if complex_terms else st.sampled_from([0.0, 1.0])
    parts = draw(st.lists(st.tuples(logs, phases), min_size=R[-1], max_size=R[-1]))
    return R, m, sigma_hat, complex_terms, parts


def _arrays_from_parts(parts, complex_terms, ctx):
    """``sums`` and ``terms`` from 0 with a_k = e^x * e^(i pi phase) for each (x, phase)."""
    sums = [ctx.zero]
    terms = [None]
    for x, phase in parts:
        a = ctx.exp(ctx.mpf(x)) * ctx.expjpi(ctx.mpf(phase))
        terms.append(a if complex_terms else a.real)
        sums.append(sums[-1] + terms[-1])
    return sums, terms


@settings(max_examples=60, deadline=None)
@given(_explicit_problems())
def test_streamed_diagonal_matches_triangle_property(qctx, case):
    R, m, sigma_hat, complex_terms, parts = case
    sums, terms = _arrays_from_parts(parts, complex_terms, qctx)
    depth = len(R) - 1
    try:
        triangle = w_triangle(sums, terms, R, m, sigma_hat, qctx)
    except ZeroDivisionError:
        assume(False)  # some N(j,n) = 0: covered by the degenerate-denominator test
    tables = columns(sums, terms, make_explicit(R), m, sigma_hat, depth, qctx)
    _assert_columns_of_triangle(tables, triangle, R)


_ALTERNATING_BUILTINS = ("ex5_2", "ex5_4", "ex5_6", "ex5_8", "ex5_10", "ex5_12", "ex5_13")


@pytest.mark.parametrize("precision", [QUAD, DOUBLE], ids=["quad", "double"])
@pytest.mark.parametrize("ident", _ALTERNATING_BUILTINS)
def test_alternating_builtins_have_gamma_exactly_one(ident, precision):
    # the paper's stability property: sign-alternating weights make Gamma(0,n) = 1
    table = _table(ident, make_aps(1, 1), 64, make_context(precision))[0]
    assert all(g == 1 for g in table.gamma), [n for n, g in enumerate(table.gamma) if g != 1]


@st.composite
def _sign_runs(draw):
    """Real terms and fit ordinates whose H and K follow sign runs.

    The term at R_l has sign (-1)^l times a run sign that flips at random
    samples, so H(l, 0) = c*N(l, 0) with one c per run; the ordinates keep
    a sign that also flips at random samples, so K runs against M the same
    way, and about one ordinate in six is zero, which matches either sign.
    The runs have drawn lengths, so tables of up to 40 samples hold runs
    of 20 or more, of either sign, that end mid-table.  Entries the
    recursion does not read stay zero.
    """
    size = draw(st.integers(1, 40))
    gaps = draw(st.lists(st.integers(1, 3), min_size=size, max_size=size))
    R = [sum(gaps[: i + 1]) for i in range(size)]
    m = draw(st.sampled_from([1, 2, 3]))
    sigma_hat = Fraction(draw(st.sampled_from([m, 0, -1])), m)
    logs = st.floats(-3, 3, allow_nan=False)
    # the term sign and the ordinate sign flip at the ends of runs of drawn lengths
    # (a first length of 0 flips the first sign)
    runs = st.lists(st.integers(0, 40), max_size=4).map(lambda n: set(itertools.accumulate(n)))
    flips = [draw(runs), draw(runs)]
    parts = draw(st.lists(st.tuples(logs, logs, st.integers(0, 5)), min_size=size, max_size=size))
    samples = [(x, y, int(l not in flips[0]), int(l not in flips[1]), zero)
               for l, (x, y, zero) in enumerate(parts)]
    return R, m, sigma_hat, samples


def _arrays_from_runs(R, sigma_hat, samples, ctx):
    """``sums`` and ``terms`` holding the drawn ordinates and terms at the sampled indices."""
    sums = [ctx.zero] * (R[-1] + 1)
    terms = [ctx.zero] * (R[-1] + 1)
    term_sign = ordinate_sign = 1
    for l, (r, (x, y, term_break, ordinate_break, zero)) in enumerate(zip(R, samples)):
        term_sign *= -1 if term_break == 0 else 1
        ordinate_sign *= -1 if ordinate_break == 0 else 1
        terms[r] = (-1) ** l * term_sign * ctx.exp(ctx.mpf(x))
        at = r - 1 if sigma_hat < 0 else r
        if at > 0 and zero != 0:  # A_0 stays 0
            sums[at] = ordinate_sign * ctx.exp(ctx.mpf(y))
    return sums, terms


# 40 samples: the H run (c = -1) ends at sample 24, the K run (c = +1) at 25, since
# the zero ordinate at 24 matches either sign
_LONG_RUNS = ([sum(1 + k % 3 for k in range(l + 1)) for l in range(40)], 2, Fraction(1),
              [((l * 7 % 11) / 4 - 1.3, (l * 5 % 13) / 5 - 1.1, int(l not in (0, 24)), int(l != 0),
                l % 6) for l in range(40)])


@pytest.mark.parametrize("precision", [QUAD, DOUBLE], ids=["quad", "double"])
@settings(max_examples=60, deadline=None)
@given(_sign_runs())
@example(case=_LONG_RUNS)
def test_sign_runs_match_triangle_property(precision, case):
    R, m, sigma_hat, samples = case
    ctx = make_context(precision)
    sums, terms = _arrays_from_runs(R, sigma_hat, samples, ctx)
    try:
        triangle = w_triangle(sums, terms, R, m, sigma_hat, ctx)
    except ZeroDivisionError:
        assume(False)  # some N(j,n) = 0: covered by the degenerate-denominator test
    tables = columns(sums, terms, make_explicit(R), m, sigma_hat, len(R) - 1, ctx)
    _assert_columns_of_triangle(tables, triangle, R)


def test_degenerate_denominator_names_entry(qctx):
    # a_n = 1/n with sigma_hat = 1 gives omega = 1 at every sample, so N(0,1) = 0
    schedule = make_aps(1, 1)
    terms = [None] + [qctx.one / k for k in range(1, 8)]
    sums = [qctx.zero]
    for a in terms[1:]:
        sums.append(sums[-1] + a)
    with pytest.raises(DegenerateDenominatorError, match=r"N\(0,1\).*sigma_hat") as info:
        build_table(sums, terms, schedule.prefix(5), 1, Fraction(1), qctx)
    assert (info.value.j, info.value.n) == (0, 1)
    assert isinstance(info.value, ArithmeticError)
    # the same data with sigma_hat = 0 is well posed
    build_table(sums, terms, schedule.prefix(5), 1, Fraction(0), qctx)


def _parts_canonical(x):
    """Zero, or an odd mantissa whose bc is its bit length, for each part of an mpf or mpc."""
    parts = x._mpc_ if hasattr(x, "_mpc_") else (x._mpf_,)
    return all(man & 1 and bc == man.bit_length() if man else (sign, exp, bc) == (0, 0, 0)
               for sign, man, exp, bc in parts)


def test_every_value_build_table_returns_is_canonical(qctx):
    # mpf == compares raw tuples, so a value with trailing zero bits would miscompare silently
    deep = [(ident, "aps:1,1", 128) for ident in ("ex5_2", "ex5_8", "ex5_4", "ex5_12")]
    for ident, spec, depth in [(r.problem, r.schedule, r.depth) for r in REFERENCE_TABLES] + deep:
        table = _table(ident, parse_schedule(spec), depth, qctx)[0]
        for name in ("A", "gamma", "lam", "samples"):
            bad = [n for n, x in enumerate(getattr(table, name)) if not _parts_canonical(x)]
            assert not bad, (ident, spec, name, bad)


# a narrow range at each mantissa width: max_exp2 = int(40 log2 10) + 4 = 136
_NARROW = {QUAD: Precision("narrow-quad", 113, 40), DOUBLE: Precision("narrow-double", 53, 40)}


@pytest.mark.parametrize("precision", [QUAD, DOUBLE], ids=["quad", "double"])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_each_sample_raises_its_named_errors_in_order(precision, kind):
    ctx = make_context(precision)
    u = ctx.one if kind == "real" else ctx.mpc(0, 1)
    R = [1, 2, 3, 4, 5]
    # a_k = u/k with sigma_hat = 1: omega = u at every sample, so N(0,1) = 0
    terms = [None] + [u / k for k in range(1, 6)]
    sums = [ctx.zero * u]
    for a in terms[1:]:
        sums.append(sums[-1] + a)
    with pytest.raises(DegenerateDenominatorError, match=r"^W-algorithm denominator N\(0,1\) is"):
        build_table(sums, terms, R, 1, 1, ctx)
    # samples raise in order: N(0,1) of sample 1 before the zero a_3 of sample 2
    zero_at_3 = terms[:3] + [ctx.zero * u] + terms[4:]
    with pytest.raises(DegenerateDenominatorError):
        build_table(sums, zero_at_3, R, 1, 1, ctx)
    with pytest.raises(ZeroTermError, match=r"^term a_3 at a scheduled index is zero"):
        build_table(sums, zero_at_3, R, 1, 0, ctx)
    if kind == "real" and precision is DOUBLE:
        # 2^-1 * 5e-324 underflows in binary64; the complex weight is an mpmath mpc, which does not
        tiny = terms[:2] + [ctx.mpf(5e-324)] + terms[3:]
        with pytest.raises(WeightUnderflowError, match=r"^remainder weight omega_2 = 2\^\(-1\) "):
            build_table(sums, tiny, R, 1, -1, ctx)
    # R = [1, 2], m = 1, sigma_hat = 0: M(0,1) = 2 (A_1 / a_1 - A_2 / a_2) = 2^136 has mag 137
    narrow = make_context(_NARROW[precision])
    v = narrow.one if kind == "real" else narrow.mpc(0, 1)
    big = [narrow.zero, narrow.ldexp(1, 135) * v, narrow.zero * v]
    with pytest.raises(RangeOverflowError, match=rf"^M\(0,1\) exceeds the narrow-{precision.name} "):
        build_table(big, [None, v, 2 * v], [1, 2], 1, 0, narrow)


@pytest.mark.parametrize("precision", [QUAD, DOUBLE], ids=["quad", "double"])
def test_a_depth_zero_table_range_checks_its_ordinate(precision):
    # each ordinate is checked at its own sample, at depth 0 and past it alike
    ctx = make_context(precision)
    terms = [None, ctx.one, ctx.one]
    with pytest.raises(NotANumberError, match=r"^partial sum A_1 is NaN$"):
        build_table([ctx.zero, ctx.nan], terms, [1], 1, 1, ctx)
    with pytest.raises(RangeOverflowError, match=rf"^partial sum A_1 exceeds the {precision.name} "):
        build_table([ctx.zero, -ctx.inf], terms, [1], 1, 1, ctx)
    # with sigma_hat < 0 the ordinate at R_0 = 2 is A_1
    with pytest.raises(NotANumberError, match=r"^partial sum A_1 is NaN$"):
        build_table([ctx.zero, ctx.nan, ctx.one], terms, [2], 1, -1, ctx)
    with pytest.raises(NotANumberError, match=r"^partial sum A_1 is NaN$"):
        build_table([ctx.zero, ctx.nan, ctx.one], terms, [1, 2], 1, 1, ctx)
    assert build_table([ctx.zero, ctx.one], terms, [1], 1, 1, ctx).A == [ctx.one]


# The dense oracle runs at three times the quad mantissa on the exact quad
# inputs, so its own error is negligible; the recursion then stays within
# a few Gamma*u of it (at most 14 Gamma*u in 1,300 random cases of this shape).
_ORACLE = make_context(Precision("oracle", 3 * QUAD.mantissa_bits, QUAD.max_exp10))
_DENSE_SLACK = 64


@settings(max_examples=60, deadline=None)
@given(_explicit_problems(lambda m: st.sampled_from([m, 0, -1])))  # sigma_hat 1, 0 or -1/m
def test_diagonal_matches_dense_oracle_property(qctx, case):
    R, m, sigma_hat, complex_terms, parts = case
    sums, terms = _arrays_from_parts(parts, complex_terms, qctx)
    schedule = make_explicit(R)
    depth = len(R) - 1
    exact_sums = [_ORACLE.convert(x) for x in sums]
    exact_terms = [None] + [_ORACLE.convert(a) for a in terms[1:]]
    try:
        table = build_table(sums, terms, R, m, sigma_hat, qctx)
        solves = [dense_oracle(exact_sums, exact_terms, schedule, m, sigma_hat, 0, 0, n, _ORACLE)
                  for n in range(depth + 1)]
    except (DegenerateDenominatorError, SingularSystemError):
        assume(False)
    for n, d in enumerate(solves):
        gam, lam = table.gamma[n], table.lam[n]
        assert gam >= 1, n
        tol = _DENSE_SLACK * gam * qctx.eps
        assert abs(table.A[n] - d.value) <= tol * lam, n
        assert abs(gam - gamma_from_weights(d)) <= tol * gam, n
        assert abs(lam - lambda_from_weights(d)) <= tol * lam, n
