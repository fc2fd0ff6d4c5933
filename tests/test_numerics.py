import math

import mpmath
import pytest
from mpmath.ctx_mp import MPContext

from fracsum import accelerate, build_table, make_aps
from fracsum.numerics import (
    DOUBLE,
    QUAD,
    NotANumberError,
    Precision,
    RangeOverflowError,
    as_value,
    check_range,
    ln_factorial_frac,
    make_context,
)
from fracsum.series_model import SeriesProblem, sums_and_terms


def test_roundoff_unit_quad_preset():
    u = make_context(QUAD).eps
    assert abs(u - 1.93e-34) <= 0.005e-34  # 1.93e-34 to three digits


def test_precision_validation():
    with pytest.raises(ValueError):
        Precision("tiny", 24, 100)
    with pytest.raises(ValueError):
        Precision("norange", 64, 0)


def test_quad_preset_exponent_range():
    assert QUAD.mantissa_bits == 113
    assert QUAD.max_exp10 >= 4900
    ctx = make_context(QUAD)
    # partial-product magnitudes around 1e300 are nowhere near the limit
    check_range(ctx.mpf("1e300"), ctx, QUAD, "probe")


def test_ln_factorial_frac_trivial(qctx):
    assert ln_factorial_frac(0, 1, 2, qctx) == 0
    assert ln_factorial_frac(1, 3, 2, qctx) == 0
    assert ln_factorial_frac(7, 0, 2, qctx) == 0


def test_ln_factorial_frac_values(qctx):
    v = ln_factorial_frac(4, 1, 2, qctx)
    assert abs(v - qctx.log(24) / 2) <= 4 * qctx.eps
    assert abs(float(v) - 1.58903) <= 1e-5
    w = ln_factorial_frac(10, -1, 2, qctx)
    assert abs(w - (-qctx.log(3628800) / 2)) <= 4 * qctx.eps * abs(w)
    assert abs(float(w) + 7.55221) <= 1e-5


@pytest.mark.parametrize("s,m", [(1, 2), (-1, 2), (3, 4), (-2, 5), (2, 3)])
def test_exp_ln_factorial_matches_exact_factorials(qctx, s, m):
    # reference from exact integer factorials at a wider precision
    ref_prec = Precision("ref", 160, 100000)
    wide = make_context(ref_prec)
    for n in range(2, 31):
        x = ln_factorial_frac(n, s, m, qctx)
        ours = qctx.exp(x)
        ref = qctx.mpf(wide.power(wide.mpf(math.factorial(n)), wide.mpf(s) / m))
        # exponentiation amplifies the log's rounding by |x|: allow the
        # standard 4-ulp slack plus that unavoidable forward-error term
        tol = (4 + 2 * abs(x)) * qctx.eps * abs(ref)
        assert abs(ours - ref) <= tol, (n, s, m)


def test_double_to_quad_round_trip_exact(qctx, dctx):
    cases = [1.9, 0.1, -3.7e-300, 12345.6789, 2.0**-1040, 6.02e23]
    for x in cases:
        low = as_value(x, dctx)
        high = as_value(low, qctx)
        assert high == low
        assert float(high) == x


def test_check_range_raises(dctx):
    with pytest.raises(RangeOverflowError, match="double"):
        check_range(dctx.mpf("1e320"), dctx, DOUBLE, "partial sum A_3")


def test_check_range_rejects_nan_and_formats_label_on_raise(dctx):
    check_range(dctx.mpc(1, 2), dctx, DOUBLE, "M(%d,%d)", 3, 4)
    with pytest.raises(NotANumberError, match=r"^N\(3,4\) is NaN$"):
        check_range(dctx.nan, dctx, DOUBLE, "N(%d,%d)", 3, 4)
    # mpmath's mag of mpc(1, nan) is finite, so the range test alone misses it
    with pytest.raises(NotANumberError, match="A_5"):
        check_range(dctx.mpc(1, dctx.nan), dctx, DOUBLE, "partial sum A_%d", 5)
    with pytest.raises(RangeOverflowError, match=r"^M\(3,4\) exceeds the double"):
        check_range(dctx.mpf("-1e320"), dctx, DOUBLE, "M(%d,%d)", 3, 4)


def _nan_at_5(n, ctx):
    return ctx.nan if n == 5 else ctx.one / (n * n)


def _bare_quad():
    ctx = MPContext()
    ctx.prec = QUAD.mantissa_bits
    return ctx


@pytest.mark.parametrize("ctx", [_bare_quad(), mpmath.mp], ids=["MPContext", "mpmath.mp"])
def test_contexts_not_made_by_make_context_are_refused(ctx):
    state = (mpmath.mp.prec, mpmath.mp.pretty)
    problem = SeriesProblem("nan at 5", _nan_at_5, m=1)
    qctx = make_context(QUAD)
    sums, terms = [qctx.zero, qctx.one], [qctx.zero, qctx.one]
    for call in (lambda: accelerate(problem, make_aps(1, 1), 8, ctx),
                 lambda: sums_and_terms(problem, 8, ctx),
                 lambda: build_table(sums, terms, [1], 1, 1, ctx)):
        with pytest.raises(TypeError, match="make_context"):
            call()
    assert (mpmath.mp.prec, mpmath.mp.pretty) == state
    # the same term under a context of make_context names the NaN
    with pytest.raises(NotANumberError, match="partial sum A_5 is NaN"):
        accelerate(problem, make_aps(1, 1), 8, qctx)
