"""The binary64 context for DOUBLE against mpmath software floats at 53 bits.

``make_context(DOUBLE)`` computes with Python floats.  Every result it
gives must carry the same bits as an mpmath ``MPContext`` at 53 bits
(what ``DOUBLE`` ran on before), except for two things.  ``power``,
``exp`` and ``loggamma`` of floats are the platform's libm, within
``oracles.LIBM_ULPS`` of mpmath's, and a table built on them stays within
roundoff of mpmath's; and binary64's exponent range ends where the range
tests at the bottom pin it down.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath.ctx_mp import MPContext
from mpmath.libmp import from_float

from fracsum import bench_cli, numerics
from fracsum.numerics import (
    DOUBLE,
    QUAD,
    Binary64Context,
    NotANumberError,
    Precision,
    RangeOverflowError,
    check_range,
    loop_arithmetic,
    make_context,
)
from fracsum.reference_tables import REFERENCE_TABLES
from fracsum.sampling import make_gps, parse_schedule
from fracsum.series_model import (
    SeriesProblem,
    builtin_ids,
    builtin_problem,
    load_problem,
    sums_and_terms,
    trig_series_pair,
)
from fracsum.transform import accelerate, estimate_errors, sum_trig
from fracsum.w_algorithm import ZeroTermError, build_table

from oracles import within_libm_bound


def _mp53():
    """The context DOUBLE used to get: mpmath software floats at 53 bits."""
    ctx = MPContext()
    ctx.prec = 53
    ctx.pretty = False
    ctx._fracsum_precision = DOUBLE
    return ctx


FP = make_context(DOUBLE)
MP = _mp53()


def _bits(x):
    """Raw mpmath tuple of a float, mpf or mpc, so equal bits compare equal."""
    if isinstance(x, float):
        return from_float(x)
    if hasattr(x, "_mpf_"):
        return x._mpf_
    return x._mpc_


def _same(ours, ref):
    assert _bits(ours) == _bits(ref), (ours, ref)


def _same_lists(ours, ref):
    assert [_bits(x) for x in ours] == [_bits(x) for x in ref]


def _same_result(ours, ref):
    assert ours.table.R == ref.table.R
    for name in ("samples", "A", "gamma", "lam"):
        _same_lists(getattr(ours.table, name), getattr(ref.table, name))
    assert ours.best == ref.best
    for name in ("value", "est_abs_error", "est_rel_error"):
        _same(getattr(ours, name), getattr(ref, name))


def test_double_gets_the_binary64_context_and_quad_does_not():
    assert isinstance(FP, Binary64Context)
    assert not isinstance(make_context(QUAD), Binary64Context)
    assert type(FP.convert(Fraction(1, 3))) is float
    assert (FP.eps, FP.dps, FP.prec) == (float(MP.eps), MP.dps, MP.prec)
    _same(FP.pi, +MP.pi)


def test_reference_tables_agree_with_mpmath_53_within_roundoff():
    # libm's last bits move the terms of ex5_11, ex5_12 and ex5_13 (the others are bit for bit
    # mpmath's); every entry stays within reproduce's noise floor of 1000 Lambda*u of mpmath's
    # (3.6 Lambda*u measured), Gamma and Lambda within a relative 1000 Gamma*u (6.5 measured),
    # and every selection is mpmath's
    noise, u = bench_cli._NOISE, FP.eps
    for ref in REFERENCE_TABLES:
        problem = builtin_problem(ref.problem)
        schedule = parse_schedule(ref.schedule)
        ours = accelerate(problem, schedule, ref.depth, FP)
        theirs = accelerate(problem, schedule, ref.depth, MP)
        assert all(type(x) is float for x in ours.table.A + ours.table.gamma), ref
        assert (ours.table.R, ours.best) == (theirs.table.R, theirs.best), ref
        for n, (A, G, L) in enumerate(zip(ours.table.A, ours.table.gamma, ours.table.lam)):
            B, H, K = theirs.table.A[n], theirs.table.gamma[n], theirs.table.lam[n]
            assert abs(A - B) <= noise * K * u, (ref, n)
            assert abs(G - H) <= noise * H * H * u and abs(L - K) <= noise * H * K * u, (ref, n)


def test_rendering_matches_mpmath_53():
    problem = builtin_problem("ex5_3")
    schedule = parse_schedule("gps:1.3")
    ours = estimate_errors(accelerate(problem, schedule, 24, FP).table, -1)
    ref = estimate_errors(accelerate(problem, schedule, 24, MP).table, -1)
    for a, b in zip(ours, ref):
        for x, y in ((a.value, b.value), (a.gamma, b.gamma), (a.est_rel, b.est_rel),
                     (a.true_error, b.true_error)):
            assert bench_cli._sci(x) == bench_cli._sci(y)
            assert bench_cli._full(x, FP) == bench_cli._full(y, MP)


@pytest.mark.parametrize("h", [lambda n, ctx: 1 / ctx.mpf(n * n),
                               lambda n, ctx: ctx.mpc(1, n) / ctx.power(n, 3)],
                         ids=["real-h", "complex-h"])
def test_sum_trig_is_bit_identical_to_mpmath_53(h):
    pair = trig_series_pair(h, (0, 0, -1), (0, 1), 0, 2)
    ours = sum_trig(pair, make_gps(1.3), 20, FP)
    ref = sum_trig(pair, make_gps(1.3), 20, MP)
    for x, y in zip(ours, ref):
        _same(x, y)


def test_reals_made_from_complex_values_are_floats():
    # |.|, .real and .imag of an mpc are mpf values; at double they must come out as floats
    problem = SeriesProblem("cx", lambda n, c: c.exp(c.mpc(-1, 1) * c.sqrt(n)), m=2)
    schedule = parse_schedule("aps:1,1")
    ours = accelerate(problem, schedule, 8, FP)
    reals = ours.table.gamma + ours.table.lam + [ours.est_abs_error, ours.est_rel_error]
    assert all(type(x) is float for x in reals)
    _same_result(ours, accelerate(problem, schedule, 8, MP))

    pair = trig_series_pair(lambda n, c: 1 / c.mpf(n * n), (0, 0, -1), (0, 1), 0, 2,
                            h_is_real=True)
    ours = sum_trig(pair, make_gps(1.3), 20, FP)
    assert all(type(x) is float for x in ours)
    for x, y in zip(ours, sum_trig(pair, make_gps(1.3), 20, MP)):
        _same(x, y)


@pytest.mark.parametrize("expression, complex_value", [
    ("exp(i*sqrt(n) - sqrt(n)/4) * log(n + 1) / power(n, 1.5) + cos(n) / (n*n)", True),
    # ** is ctx.power, not the platform's pow; 7**400 overflows binary64
    ("(-1)**n * n**-1.5 + 1/n**400 + pi**2/n**3.7", False),
], ids=["complex", "powers"])
def test_expression_is_bit_identical_to_mpmath_53(expression, complex_value):
    problem, _ = load_problem({"expression": expression, "m": 2})
    schedule = parse_schedule("aps:1,1")
    ours = accelerate(problem, schedule, 30, FP)
    assert hasattr(ours.value, "_mpc_") == complex_value
    _same_result(ours, accelerate(problem, schedule, 30, MP))


# ---------------------------------------------------------------------------
# Kernels: each equals float() of the mpmath-53 result
# ---------------------------------------------------------------------------

_positive = st.floats(min_value=1e-300, max_value=1e300)
_ints = st.integers(min_value=-(2**80), max_value=2**80)


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


def _matches(ours, ref, libm=None):
    """An outcome against MP's: the same error, the same complex value, or float(MP's value).

    For *libm*, the name of one of the float arithmetic's libm functions,
    a float within that function's ``LIBM_ULPS`` of MP's value.
    """
    if isinstance(ref, type):
        assert ours is ref
    elif hasattr(ref, "_mpc_"):
        assert hasattr(ours, "_mpc_") and ours == ref
    elif libm:
        assert type(ours) is float and within_libm_bound(libm, ours, ref), (ours, ref)
    else:
        # the sign too: mpmath has no -0.0
        assert type(ours) is float and ours == float(ref), (ours, ref)
        assert math.copysign(1.0, ours) == math.copysign(1.0, float(ref)), (ours, ref)


# the context's functions whose floats are libm's, by the name of their LIBM_ULPS bound
_LIBM = {"power": "pow", "pow": "pow", "exp": "exp", "loggamma": "loggamma"}


def _same_kernel(name, *args):
    """FP.name(*args) is float(MP.name(*args)) (libm's within its bound), or both raise the same error."""
    _matches(_outcome(getattr(FP, name), *args), _outcome(getattr(MP, name), *args), _LIBM.get(name))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(), st.integers(-(2**60), 2**60).map(float),
                 st.integers(-1074, 1023).map(lambda e: math.ldexp(1.0, e))))
def test_raw_float_is_libmps_from_float(x):
    assert numerics._raw(x) == from_float(x)


@settings(max_examples=200, deadline=None)
@given(_ints, st.integers(-(2**70), 2**70), st.integers(1, 2**70))
def test_convert_kernels_match(k, p, q):
    _same_kernel("convert", k)
    _same_kernel("convert", Fraction(p, q))
    _same_kernel("mpf", k)


@settings(max_examples=200, deadline=None)
@given(st.integers(-(10**20), 10**20), st.integers(-330, 330))
def test_convert_strings_match(mantissa, exponent):
    text = f"{mantissa}e{exponent}"
    _same_kernel("convert", text)
    _same_kernel("mpf", text)


# The float loop arithmetic's transcendental kernels, those of the hot loops
# and the builtin terms at DOUBLE, and the functions of the same names of the
# DOUBLE context, which take those kernels on floats and ints, as called
# from an expression and directly.  Each gives float(MP's value), within
# libm's bound where libm computes it, or MP's error.  Where MP's value is
# complex, the loop kernel raises and the context's function gives that
# complex value.
_LOOP = loop_arithmetic(FP)


def _same_loop_kernel(name, *args):
    # a loop takes an int through from_int, exact up to 2^53
    lifted = [_LOOP.from_int(x) if type(x) is int else x for x in args]
    ours = _outcome(getattr(_LOOP, name), *lifted)
    ref = _outcome(getattr(MP, "power" if name == "pow" else name), *args)
    if hasattr(ref, "_mpc_"):
        assert isinstance(ours, type), (ours, ref)
    else:
        _matches(ours, ref, _LIBM.get(name))


def _same_expression_function(name, *args):
    expr = f"{name}({', '.join(map(repr, args))})"
    problem, _ = load_problem({"expression": expr, "m": 1})
    # an expression takes each literal at the working precision: an int past 2^53 rounds
    args = [MP.mpf(x) if type(x) is int else x for x in args]
    try:
        ref = getattr(MP, name)(*args)
    except ZeroDivisionError:
        ref = "division by zero"
    except ValueError as exc:
        ref = str(exc)
    except ArithmeticError as exc:
        ref = type(exc)
    if isinstance(ref, str):  # MP's ValueError or division by zero: the term's names expr and n
        with pytest.raises(ValueError) as failure:
            problem.term(1, FP)
        assert str(failure.value) == f"expression {expr!r} fails at n = 1: {ref}"
    else:
        _matches(_outcome(problem.term, 1, FP), ref, _LIBM.get(name))


def _same_function(name, *args):
    if all(type(x) is not int or abs(x) <= 2**53 for x in args):
        _same_loop_kernel("pow" if name == "power" else name, *args)
    _same_expression_function(name, *args)
    _same_kernel(name, *args)  # the context's own function, as a term function calls it


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-800, max_value=800), st.integers(-800, 800))
def test_exp_matches(x, k):
    _same_function("exp", x)
    _same_function("exp", k)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_positive, st.integers(1, 10**9), st.floats(-50, 50)),
       st.one_of(st.floats(-12, 12), st.integers(-40, 40), st.sampled_from([0.5, -0.5, 1.5])))
def test_power_matches(x, y):
    _same_function("power", x, y)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6000), st.integers(-4, 4), st.integers(1, 4))
def test_power_of_a_sample_index_matches(r, k, m):
    # build_table's weight r^sigma_hat and node r^(-1/m): an index r to a multiple of 1/m
    _same_loop_kernel("pow", r, FP.convert(Fraction(k, m)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.floats(min_value=0.01, max_value=1e8), st.integers(1, 10**6)))
def test_loggamma_matches(x):
    _same_function("loggamma", x)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.floats(min_value=0, max_value=1e300), st.integers(0, 2**70),
                 st.floats(-10, -1e-10)))
@example(-0.0)  # math.sqrt keeps its sign
@example(708977432488605024909)  # math.sqrt rounds it to a float first, and its root then
def test_sqrt_matches(x):
    _same_function("sqrt", x)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_positive, st.integers(1, 2**70), st.floats(-10, -1e-10)),
       st.sampled_from([None, 10, 2, 0.5]))
def test_log_matches(x, base):
    if base is None:
        _same_kernel("log", x)
    else:
        _same_kernel("log", x, base)


def test_loggamma_of_an_int_is_libms_up_to_2_53():
    # an int that is a float exactly takes libm's lgamma, on these ints not mpmath's at 53 bits;
    # a larger int keeps mpmath's
    ours = [FP.loggamma(n) for n in range(2, 200)]
    assert ours == [math.lgamma(n) for n in range(2, 200)]
    assert ours != [float(MP.loggamma(n)) for n in range(2, 200)]
    for n in (2**53 + 1, 2**60 + 3, -(2**53) - 1):
        assert _outcome(FP.loggamma, n) == _outcome(lambda: float(MP.loggamma(n)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(-2000, 2000), st.sampled_from([2**53, -(2**53), 2**53 - 1])),
       st.one_of(st.floats(-12, 12), st.integers(-40, 40)))
def test_an_exact_int_argument_is_its_float(k, y):
    # power's base, exp's and loggamma's argument: the bits, or the error, of float(k)
    for name, args in (("exp", (k,)), ("loggamma", (k,)), ("power", (k, y))):
        ours = _outcome(getattr(FP, name), *args)
        assert repr(ours) == repr(_outcome(getattr(FP, name), float(k), *args[1:])), (name, args)


def test_fpcontext_defects_are_mended():
    inf = float("inf")
    assert FP.mag(inf) == inf and FP.mag(-inf) == inf
    assert math.isnan(FP.mag(float("nan")))
    assert FP.mag(0.0) == -inf and FP.mag(10.0) == MP.mag(10)
    assert FP.nstr(0.1, 15, strip_zeros=False) == MP.nstr(MP.mpf(0.1), 15, strip_zeros=False)
    _same(FP.log10(7.0), MP.log10(7))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["cosh", "sinh", "digamma", "cbrt", "sec", "erf"]),
       st.one_of(st.floats(-800, 800), st.integers(-60, 60)))
def test_every_other_function_is_mpmaths_at_53_bits(name, x):
    _same_kernel(name, x)


def test_overflow_is_inf_not_an_exception():
    assert FP.cosh(1000.0) == FP.sinh(1000.0) == math.inf
    assert FP.cosh(-1000.0) == math.inf and FP.sinh(-1000.0) == -math.inf


def test_no_term_or_entry_resolves_through_the_fallback(monkeypatch):
    resolved = []
    fallback = Binary64Context.__getattr__

    def counting(ctx, name):
        resolved.append(name)
        return fallback(ctx, name)

    monkeypatch.setattr(Binary64Context, "__getattr__", counting)
    ctx = Binary64Context(DOUBLE)  # nothing resolved on it yet
    assert ctx.cosh(0.5) == ctx.cosh(0.5) and resolved == ["cosh"]  # then kept
    resolved.clear()
    R = make_gps(1.3).prefix(21)

    def run(problem):
        sums, terms = sums_and_terms(problem, range(1, R[-1] + 1), ctx)
        build_table([ctx.zero] + sums, [None] + terms, R, problem.m, problem.sigma_hat, ctx)

    for ident in builtin_ids():
        run(builtin_problem(ident))
    assert resolved == []
    # the range checks of complex values, each once: the complex term's own exp and
    # power and the functions of the native arithmetic the complex sums switch to
    # are the class's kernel functions
    run(trig_series_pair(lambda n, c: c.mpc(1, n) / c.power(n, 3), (0, 0, -1), (0, 1), 0, 2)[0])
    assert resolved == ["mag", "isnan"]


# ---------------------------------------------------------------------------
# Where binary64's range ends before DOUBLE's 1e308 bound (2^1027) does
# ---------------------------------------------------------------------------


def test_ieee_inf_and_nan_raise_named_errors():
    with pytest.raises(RangeOverflowError, match=r"^M\(3,4\) exceeds the double"):
        check_range(float("-inf"), FP, "M(%d,%d)", 3, 4)
    with pytest.raises(NotANumberError, match=r"^N\(3,4\) is NaN$"):
        check_range(float("nan"), FP, "N(%d,%d)", 3, 4)
    check_range(1.7e308, FP, "A_%d", 1)
    # exp(800) - exp(800) is inf - inf in binary64 but 0 at 53 mpmath bits
    problem = SeriesProblem("cancel", lambda n, ctx: ctx.exp(800 * n) - ctx.exp(800 * n), m=1)
    with pytest.raises(NotANumberError, match=r"^partial sum A_1 is NaN$"):
        sums_and_terms(problem, range(1, 4), FP)
    assert sums_and_terms(problem, range(1, 4), MP)[0] == [0, 0, 0]


def test_a_narrower_binary64_range_is_still_checked():
    narrow = Precision("narrow", 53, 100)
    ctx = make_context(narrow)
    assert isinstance(ctx, Binary64Context)
    check_range(1e100, ctx, "A_%d", 1)
    with pytest.raises(RangeOverflowError, match=r"^A_1 exceeds the narrow exponent range"):
        check_range(-1e102, ctx, "A_%d", 1)
    # and so in both loops, where finite floats are not all in range
    with pytest.raises(RangeOverflowError, match=r"^partial sum A_1 exceeds the narrow"):
        sums_and_terms(SeriesProblem("big", lambda n, c: 1e102, m=1), range(1, 3), ctx)
    with pytest.raises(RangeOverflowError, match=r"^partial sum A_1 exceeds the narrow"):
        build_table([0.0, 1e102, 0.0], [None, 1.0, 2.0], [1, 2], 1, 0, ctx)


@pytest.mark.parametrize("config, label", [
    # mpmath at 53 bits first exceeds 2^1027 at H(3,133) (M(3,139) while H went unchecked)
    (bench_cli.RunConfig(problem="ex7_1", depth=160, precision="double"), r"H\(4,132\)"),
    # ... at partial sum A_308
    (bench_cli.RunConfig(problem="ex5_11", depth=320, precision="double"), "partial sum A_307"),
    # ... at partial sum A_712
    (bench_cli.RunConfig(problem_file='{"expression": "exp(n)", "m": 1}', depth=720,
                         precision="double"), "partial sum A_710"),
    # ... at partial sum A_257; float ** would raise a bare OverflowError
    (bench_cli.RunConfig(problem_file='{"expression": "n**(n/2)", "m": 1}', depth=300,
                         precision="double"), "partial sum A_256"),
    # ... at H(1,178) and K(2,176); unchecked, H and K made Gamma and Lambda inf
    (bench_cli.RunConfig(problem="ex5_1", depth=180, precision="double", stride=1), r"H\(4,175\)"),
    (bench_cli.RunConfig(problem="ex5_9", depth=180, precision="double"), r"K\(4,174\)"),
], ids=["ex7_1", "ex5_11", "exp(n)", "n**(n/2)", "ex5_1-H", "ex5_9-K"])
def test_overflow_boundary(config, label):
    with pytest.raises(RangeOverflowError, match=f"^{label} exceeds the double exponent range"):
        bench_cli.run(config)


def test_underflowed_term_is_a_zero_term():
    # a_4045 = e^(sqrt n - n/5) is about 1e-327: zero in binary64; mpmath at
    # 53 bits keeps it and overflows at M(30,1) instead
    config = bench_cli.RunConfig(problem="ex5_9", schedule="gps:1.3", depth=40,
                                 precision="double")
    with pytest.raises(ZeroTermError, match="a_4045") as info:
        bench_cli.run(config)
    assert info.value.index == 4045
    assert str(info.value) == (
        "term a_4045 at a scheduled index is zero (in binary64 it may have underflowed "
        "below 2^-1074; --precision quad has the wider range)"
    )
