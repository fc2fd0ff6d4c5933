import math
from fractions import Fraction
from functools import partial

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.ctx_mp import MPContext
from mpmath.libmp import (
    finf,
    fnan,
    fninf,
    from_int,
    from_man_exp,
    from_rational,
    fzero,
    mpf_add,
    mpf_div,
    mpf_exp,
    mpf_loggamma,
    mpf_mul,
    mpf_neg,
    mpf_pow,
    mpf_sqrt,
    mpf_sub,
    normalize,
    round_nearest,
)
from mpmath.libmp.libmpf import int_cache

from fracsum import accelerate, build_table, make_aps, numerics
from fracsum.numerics import (
    DOUBLE,
    QUAD,
    NotANumberError,
    Precision,
    RangeOverflowError,
    _mpf_kernels,
    _mpmath_context,
    _nearest_kernels,
    _raw_arithmetic,
    check_range,
    loop_arithmetic,
    make_context,
)
from fracsum.series_model import SeriesProblem, _LogFactor, sums_and_terms

from oracles import log_factor


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
    check_range(ctx.mpf("1e300"), ctx, "probe")


def _log(factor, n, ctx):
    """The factor's log at n, as a scalar of ctx."""
    ar, log = factor.loop(ctx)
    return ar.lower(log(n))


def test_ln_factorial_frac_trivial(qctx):
    assert _log(_LogFactor(1, 2, ()), 0, qctx) == 0
    assert _log(_LogFactor(3, 2, ()), 1, qctx) == 0
    assert _log(_LogFactor(0, 2, ()), 7, qctx) == 0


def test_ln_factorial_frac_values(qctx):
    v = _log(_LogFactor(1, 2, ()), 4, qctx)
    assert abs(v - qctx.log(24) / 2) <= 4 * qctx.eps
    assert abs(float(v) - 1.58903) <= 1e-5
    w = _log(_LogFactor(-1, 2, ()), 10, qctx)
    assert abs(w - (-qctx.log(3628800) / 2)) <= 4 * qctx.eps * abs(w)
    assert abs(float(w) + 7.55221) <= 1e-5


@pytest.mark.parametrize("s,m", [(1, 2), (-1, 2), (3, 4), (-2, 5), (2, 3)])
def test_exp_ln_factorial_matches_exact_factorials(qctx, s, m):
    # reference from exact integer factorials at a wider precision
    ref_prec = Precision("ref", 160, 100000)
    wide = make_context(ref_prec)
    for n in range(2, 31):
        x = _log(_LogFactor(s, m, ()), n, qctx)
        ours = qctx.exp(x)
        ref = qctx.mpf(wide.power(wide.mpf(math.factorial(n)), wide.mpf(s) / m))
        # exponentiation amplifies the log's rounding by |x|: allow the
        # standard 4-ulp slack plus that unavoidable forward-error term
        tol = (4 + 2 * abs(x)) * qctx.eps * abs(ref)
        assert abs(ours - ref) <= tol, (n, s, m)


_COEFFICIENTS = st.one_of(st.sampled_from([1, -1, 0]),
                          st.fractions(min_value=-3, max_value=3, max_denominator=12))


@settings(max_examples=150, deadline=None)
@given(s=st.integers(-2, 2), m=st.integers(1, 4), data=st.data(),
       ns=st.lists(st.integers(1, 400), min_size=1, max_size=5))
def test_log_factor_is_a_fold_on_the_context_operators(qctx, dctx, s, m, data, ns):
    # exponents k/m with k in 0..m: n^1 and (for even m) n^(1/2) take their shortcuts
    pairs = data.draw(st.lists(st.tuples(_COEFFICIENTS, st.integers(0, m)), max_size=4))
    pairs = [(c, Fraction(k, m)) for c, k in pairs]
    factor = _LogFactor(s, m, pairs)
    for ctx in (qctx, dctx):
        for n in ns:
            got, want = _log(factor, n, ctx), log_factor(s, m, pairs, n, ctx)
            assert type(got) is type(want), (n, ctx)
            assert (got.hex() if type(got) is float else got._mpf_) == \
                (want.hex() if type(want) is float else want._mpf_), (n, ctx)


def test_double_to_quad_round_trip_exact(qctx, dctx):
    cases = [1.9, 0.1, -3.7e-300, 12345.6789, 2.0**-1040, 6.02e23]
    for x in cases:
        low = dctx.convert(x)
        high = qctx.convert(low)
        assert high == low
        assert float(high) == x


def test_check_range_raises(dctx):
    with pytest.raises(RangeOverflowError, match="double"):
        check_range(dctx.mpf("1e320"), dctx, "partial sum A_3")


def test_check_range_rejects_nan_and_formats_label_on_raise(dctx):
    check_range(dctx.mpc(1, 2), dctx, "M(%d,%d)", 3, 4)
    with pytest.raises(NotANumberError, match=r"^N\(3,4\) is NaN$"):
        check_range(dctx.nan, dctx, "N(%d,%d)", 3, 4)
    # mpmath's mag of mpc(1, nan) is finite, so the range test alone misses it
    with pytest.raises(NotANumberError, match="A_5"):
        check_range(dctx.mpc(1, dctx.nan), dctx, "partial sum A_%d", 5)
    with pytest.raises(RangeOverflowError, match=r"^M\(3,4\) exceeds the double"):
        check_range(dctx.mpf("-1e320"), dctx, "M(%d,%d)", 3, 4)


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
                 lambda: sums_and_terms(problem, range(1, 9), ctx),
                 lambda: build_table(sums, terms, [1], 1, 1, ctx)):
        with pytest.raises(TypeError, match="make_context"):
            call()
    assert (mpmath.mp.prec, mpmath.mp.pretty) == state
    # the same term under a context of make_context names the NaN
    with pytest.raises(NotANumberError, match="partial sum A_5 is NaN"):
        accelerate(problem, make_aps(1, 1), 8, qctx)


# The range checks of the two hot loops at an mpmath preset, where real
# values run as raw libmp tuples: max_exp2 = int(40 log2 10) + 4 = 136.
NARROW_QUAD = Precision("narrow-quad", 113, 40)
_UNITS = {"real": lambda ctx: ctx.one, "complex": lambda ctx: ctx.mpc(0, 1)}


def test_narrow_quad_is_an_mpmath_preset_with_a_136_bit_range():
    assert isinstance(make_context(NARROW_QUAD), MPContext)
    assert NARROW_QUAD.max_exp2 == 136


def test_raw_range_test_matches_check_range():
    ctx = make_context(NARROW_QUAD)
    arith = loop_arithmetic(ctx, [ctx.one])
    assert arith.lift(ctx.one) == ctx.one._mpf_ and arith.lift(ctx.mpc(1, 1)) is None
    edge = ctx.ldexp(ctx.one, 135) * 3 / 2  # exp + bc = 136
    for x, passes in [(edge, True), (-edge, True), (2 * edge, False), (ctx.zero, True),
                      (ctx.inf, False), (-ctx.inf, False), (ctx.nan, False)]:
        assert bool(arith.in_range(arith.lift(x))) is passes, x
        assert arith.lower(arith.lift(x)) == x or ctx.isnan(x)
    with pytest.raises(NotANumberError, match=r"^N\(0,1\) is NaN$"):
        check_range(arith.lower(arith.lift(ctx.nan)), ctx, "N(%d,%d)", 0, 1)
    # complex values and values of other types run on the context's own operators
    assert loop_arithmetic(ctx, [ctx.mpc(1, 1)]).lift(ctx.mpc(1, 1)) == ctx.mpc(1, 1)
    assert loop_arithmetic(ctx, [1]).in_range(ctx.one) is False


@pytest.mark.parametrize("preset", [QUAD, DOUBLE, Precision("wide", 200, 4932)],
                         ids=["quad", "double", "200-bit"])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_loop_kernels_give_the_bits_of_the_context(preset, kind):
    ctx = make_context(preset)
    unit = ctx.one if kind == "real" else ctx.mpc(1, 0.5)
    ar = loop_arithmetic(ctx, [unit])
    assert ar.real is (kind == "real")

    def bits(v):
        return v.hex() if type(v) is float else getattr(v, "_mpf_", None) or v._mpc_

    def same(got, want):
        got = ar.lower(got)
        return type(got) is type(want) and bits(got) == bits(want)

    assert same(ar.zero, ctx.zero) and same(ar.one, ctx.one)
    for k in (1, 2, 3, 10, 97, 5258):
        x, y = ctx.convert(k) / 7 * unit, ctx.sqrt(k) * unit
        lx, ly, lk = ar.lift(x), ar.lift(y), ar.from_int(k)
        assert same(ar.add(lx, ly), x + y)
        assert same(ar.sub(lx, ly), x - y)
        assert same(ar.mul(lx, ly), x * y)
        assert same(ar.div(lx, ly), x / y)
        assert same(_scan_step(ar.scan, lx, ly, lk), (x - y) / k)
        assert same(_scan_step(ar.scan, ly, lx, ly), (y - x) / y)
        assert same(ar.mul(lx, lk), x * k)
        assert same(ar.abs(ar.sub(ly, lx)), ctx.convert(abs(y - x)))
        if ar.real:  # build_table's sign runs negate by this product: exactly -x
            for v in (x, y, ctx.zero, ctx.inf):
                assert same(ar.mul(ar.from_int(-1), ar.lift(v)), -v)
        assert same(ar.exp(lx), ctx.exp(x))
        assert same(ar.pow(lk, lx), ctx.power(k, x))
        assert same(ar.sqrt(lk), ctx.sqrt(k))
        assert same(ar.loggamma(ar.from_int(k + 1)), ctx.loggamma(k + 1))
    # one antidiagonal of five entries, scanned from 2: entries below start are not touched
    old = [ctx.convert(k) / 7 * unit for k in (3, 5, 11, 13, 17)]
    dens = [ctx.sqrt(k) - 1 for k in (2, 3, 5, 6, 7)]
    X, x = [ar.lift(v) for v in old], ar.lift(ctx.sqrt(19) * unit)
    want, y = old[:2], ctx.sqrt(19) * unit
    for k in range(2, 5):
        want.append(y)
        y = (y - old[k]) / dens[k]
    got, bad = ar.scan(X, x, [ar.lift(d) for d in dens], 2)
    assert same(got, y) and all(same(a, b) for a, b in zip(X, want))
    assert bad == (None if ar.real else 2)  # the native arithmetic has every entry checked


_MPMATH = {"add": mpf_add, "sub": mpf_sub, "mul": mpf_mul, "div": mpf_div}
_SPECIALS = st.sampled_from([fzero, finf, fninf, fnan])
_SIGNS = st.sampled_from([1, -1])


@st.composite
def _finite(draw, prec, bits=None):
    """A raw tuple whose mantissa width reaches each rounding case at prec bits."""
    if bits is None:
        bits = draw(st.one_of(st.sampled_from([1, 2, prec - 1, prec, prec + 1, prec + 2]),
                              st.integers(1, 3 * prec)))
    # all ones carry into the next power of two when they round up
    man = draw(st.one_of(st.just((1 << bits) - 1), st.integers(1 << (bits - 1), (1 << bits) - 1)))
    return from_man_exp(draw(_SIGNS) * man, draw(st.integers(-400, 400)))


@st.composite
def _operand_pairs(draw, prec):
    """(s, t) for the binary kernels, each branch of mpmath's functions drawn on purpose."""
    case = draw(st.sampled_from(["any", "offset", "magnitude", "cancel", "tie", "exact", "unit"]))
    if case == "any":
        return draw(st.one_of(_SPECIALS, _finite(prec))), draw(st.one_of(_SPECIALS, _finite(prec)))
    s = draw(_finite(prec, prec if case == "tie" else None))
    sign, man, exp, bc = t = draw(_finite(prec))
    if case == "offset":  # exponents apart by the limits of the exact sum
        offset = draw(st.sampled_from([0, 99, 100, 101, prec + 3, prec + 4, prec + 5, 450, 511,
                                       512, 513]))
        t = sign, man, s[2] - draw(_SIGNS) * offset, bc
    elif case == "magnitude":  # magnitudes apart by about mpmath's prec + 4 perturbation test
        delta = draw(st.sampled_from([prec + 3, prec + 4, prec + 5]))
        t = sign, man, s[2] + s[3] - bc - draw(_SIGNS) * delta, bc
    elif case == "cancel":  # s - s and s + (-s)
        t = draw(st.sampled_from([0, 1])), s[1], s[2], s[3]
    elif case == "tie":  # half an ulp of a prec-bit s
        t = from_man_exp(draw(_SIGNS), s[2] - 1)
    elif case == "exact":  # s / t is a prec + 1 bit odd quotient: a tie
        q = draw(st.integers(1 << prec, (1 << (prec + 1)) - 1)) | 1
        s = from_man_exp(draw(_SIGNS) * q * man, exp + draw(st.integers(-5, 5)))
    else:  # a divisor mantissa of 1
        t = sign, 1, exp, 1
    return s, t


@st.composite
def _radicands(draw, prec):
    """Square-root operands: negative, special, powers of 4 and squares of prec + 1 bits."""
    case = draw(st.sampled_from(["any", "power of 4", "square"]))
    if case == "any":
        return draw(st.one_of(_SPECIALS, _finite(prec)))
    if case == "power of 4":
        return 0, 1, 2 * draw(st.integers(-200, 200)), 1
    root = draw(st.integers(1 << prec, (1 << (prec + 1)) - 1)) | 1
    return from_man_exp(root * root, draw(st.integers(-200, 200)))


@st.composite
def _scan_step_triples(draw, prec):
    """(s, t, d) for the divided difference (s - t) / d.

    s and t are a pair of the binary kernels or a difference that rounds up
    to a power of two; d is a zero, inf or nan, a mantissa of 1 or 3, or any.
    """
    if draw(st.booleans()):
        s, t = draw(_operand_pairs(prec))
    else:  # (2^prec - 1) * 2^(e+1) + 2^e has prec + 1 bits, all ones
        sign, exp = draw(_SIGNS), draw(st.integers(-400, 400))
        s, t = from_man_exp(sign * ((1 << prec) - 1), exp + 1), from_man_exp(-sign, exp)
    d = draw(st.one_of(_SPECIALS, _finite(prec),
                       st.builds(from_man_exp, st.sampled_from([1, -1, 3, -3]),
                                 st.integers(-400, 400))))
    return s, t, d


def _mpmath_scan_step(s, t, d, prec, rnd):
    return mpf_div(mpf_sub(s, t, prec, rnd), d, prec, rnd)


def _scan_step(scan, s, t, d, **top):
    """(s - t) / d as a one-entry scan, which stores s in place of t."""
    X = [t]
    x, _ = scan(X, s, [d], 0, **top)
    assert X[0] is s
    return x


def _outcome(f, *args):
    """f's raw result, or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:  # the exception type is the result compared
        return type(exc)


@settings(max_examples=600, deadline=None)
@given(data=st.data(), prec=st.sampled_from([53, 113, 200]))
def test_nearest_kernels_are_mpmaths_bit_for_bit(data, prec):
    nearest = _nearest_kernels(prec)
    s, t = data.draw(_operand_pairs(prec))
    for name, theirs in _MPMATH.items():
        want = _outcome(theirs, s, t, prec, round_nearest)
        assert _outcome(nearest[name], s, t) == want, (name, s, t, prec)
    x = data.draw(_radicands(prec))
    want = _outcome(mpf_sqrt, x, prec, round_nearest)
    assert _outcome(nearest["sqrt"], x) == want, (x, prec)


@settings(max_examples=600, deadline=None)
@given(data=st.data(), prec=st.sampled_from([53, 113, 200]))
def test_scan_step_is_mpmaths_sub_then_div(data, prec):
    scan_step = partial(_scan_step, _nearest_kernels(prec)["scan"], top=1 << 20)
    s, t, d = data.draw(_scan_step_triples(prec))
    want = _outcome(_mpmath_scan_step, s, t, d, prec, round_nearest)
    assert _outcome(scan_step, s, t, d) == want, (s, t, d, prec)


@pytest.mark.parametrize("prec", [53, 113, 200])
def test_scan_step_edge_cases(prec):
    scan_step = partial(_scan_step, _nearest_kernels(prec)["scan"], top=1 << 20)
    one, three = from_man_exp(1, 0), from_man_exp(3, -7)
    x = from_man_exp((1 << prec) - 1, 1)  # x + 1 has prec + 1 bits and rounds up to 2^(prec+1)
    cases = [(x, x, three), (x, from_man_exp(-1, 0), three), (x, from_man_exp(-1, 0), one),
             (fzero, x, three), (x, fzero, three), (finf, x, three), (x, fnan, three),
             (x, one, fzero), (x, one, finf), (x, one, fnan), (fzero, fzero, fzero)]
    for offset in (99, 100, 101):
        for sign in (1, -1):
            cases.append((x, from_man_exp(sign * 5, 1 - offset), three))
            cases.append((from_man_exp(sign * 5, 1 - offset), x, from_man_exp(-3, 4)))
    for s, t, d in cases:
        want = _outcome(_mpmath_scan_step, s, t, d, prec, round_nearest)
        assert _outcome(scan_step, s, t, d) == want, (s, t, d)
    assert _outcome(scan_step, x, one, fzero) is ZeroDivisionError
    assert scan_step(x, x, three) == fzero


@st.composite
def _antidiagonals(draw, prec):
    """(X, x, dens, start, top) for a scan of 1 to 12 entries of ``_scan_step_triples``' operands."""
    triples = draw(st.lists(_scan_step_triples(prec), min_size=1, max_size=12))
    start = draw(st.integers(0, len(triples) - 1))
    X, dens = [t for _, t, _ in triples], [d for _, _, d in triples]
    return X, triples[start][0], dens, start, draw(st.integers(-900, 900))


_MAG = MPContext()


def _mpmath_scan(X, x, dens, start, top, prec):
    """The left fold of mpf_sub then mpf_div, and the first k whose entry check_range refuses."""
    bad = None
    for k in range(start, len(dens)):
        X[k], x = x, _mpmath_scan_step(x, X[k], dens[k], prec, round_nearest)
        value = _MAG.make_mpf(x)
        if bad is None and not (_MAG.mag(value) <= top and not _MAG.isnan(value)):
            bad = k
    return x, bad


@settings(max_examples=300, deadline=None)
@given(data=st.data(), prec=st.sampled_from([53, 113, 200]))
def test_scan_is_the_fold_of_mpmaths_sub_then_div(data, prec):
    X, x, dens, start, top = data.draw(_antidiagonals(prec))
    want_X = list(X)
    want = _outcome(_mpmath_scan, want_X, x, dens, start, top, prec)
    for backend, kernels in (("python", _nearest_kernels(prec)), ("gmpy", _mpf_kernels(prec))):
        got_X = list(X)
        got = _outcome(kernels["scan"], got_X, x, dens, start, top)
        assert got == want, (backend, X, x, dens, start, top, prec)
        if type(want) is tuple:  # stored entries may keep trailing zeros: compare their values
            assert _canonical(got_X) == _canonical(want_X), backend


def _canonical(xs):
    """Each raw tuple through mpmath's normalize at its own width: its trailing zeros stripped."""
    return [normalize(*x, x[3], round_nearest) if x[1] else x for x in xs]


@pytest.mark.parametrize("backend, nearest", [("python", True), ("gmpy", False)],
                         ids=["python-nearest", "gmpy-not-nearest"])
def test_raw_arithmetic_binds_the_nearest_kernels_on_the_python_backend_only(
        monkeypatch, backend, nearest):
    monkeypatch.setattr(numerics, "BACKEND", backend)
    monkeypatch.setattr(numerics, "_kernel_cache", {})  # the table is built under this backend
    ar = _raw_arithmetic(_mpmath_context(QUAD), QUAD)
    # the int kernels are closures over prec: each shares its code with the factory's kernel
    for name, kernel in _nearest_kernels(113).items():
        bound = getattr(ar, name)  # scan with the range bound to it
        assert (getattr(bound, "func", bound).__code__ is kernel.__code__) is nearest, name
    # either way the bits of mpmath's kernels (a scan step its subtraction, then its division)
    s, t = from_rational(13, 3, 113, round_nearest), from_rational(7, 11, 113, round_nearest)
    d = from_man_exp(13, 0)
    mpmath_kernels = {"add": (mpf_add, s, t), "sub": (mpf_sub, s, t), "mul": (mpf_mul, s, t),
                      "div": (mpf_div, s, t), "scan": (_mpmath_scan_step, s, t, d),
                      "pow": (mpf_pow, s, t), "sqrt": (mpf_sqrt, s), "exp": (mpf_exp, s),
                      "loggamma": (mpf_loggamma, s)}
    for name, (theirs, *args) in mpmath_kernels.items():
        ours = partial(_scan_step, ar.scan) if name == "scan" else getattr(ar, name)
        assert ours(*args) == theirs(*args, 113, round_nearest), name
    assert (ar.from_int is numerics._from_int) is nearest


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.just(0), st.integers(-(1 << 300), 1 << 300), st.sampled_from(sorted(int_cache)),
                 st.builds(lambda sign, k: sign << k, _SIGNS, st.integers(0, 300))))
def test_own_from_int_is_mpmaths(n):
    assert numerics._from_int(n) == from_int(n)


@pytest.mark.parametrize("rounding", ["f", "c", "d", "u"])
def test_a_context_that_does_not_round_to_nearest_is_refused_before_any_term(rounding):
    ctx = _mpmath_context(QUAD)
    ctx._prec_rounding[1] = rounding
    calls = []

    def term(n, c):
        calls.append(n)
        return c.one / n ** 2

    problem = SeriesProblem("rounded", term, m=1)
    with pytest.raises(ValueError, match=rf"^the loops round to nearest only, not with rounding '{rounding}'$"):
        accelerate(problem, make_aps(1, 1), 8, ctx)
    assert calls == []


@pytest.mark.parametrize("unit", sorted(_UNITS))
def test_partial_sum_range_edge_at_an_mpmath_preset(unit):
    ctx = make_context(NARROW_QUAD)
    u = _UNITS[unit](ctx)
    # A_1 = 2^134 is real; A_2 = A_1 + 2^134 u has mag 136, and A_3 one bit more
    terms = [ctx.ldexp(1, 134), ctx.ldexp(1, 134) * u, ctx.ldexp(1, 135) * u]
    problem = SeriesProblem("edge", lambda n, c: terms[n - 1], m=1)
    sums = sums_and_terms(problem, range(1, 3), ctx)[0]
    assert ctx.mag(sums[1]) == NARROW_QUAD.max_exp2
    with pytest.raises(RangeOverflowError, match=r"^partial sum A_3 exceeds the narrow-quad"):
        sums_and_terms(problem, range(1, 4), ctx)
    nan = SeriesProblem("nan", lambda n, c: ctx.one if n == 1 else ctx.nan * u, m=1)
    with pytest.raises(NotANumberError, match=r"^partial sum A_2 is NaN$"):
        sums_and_terms(nan, range(1, 4), ctx)


def _table_at(ctx, u, s1, a1, a2):
    # R = [1, 2], m = 1, sigma_hat = 0: t = [1, 1/2], so
    # M(0,1) = 2 (s1/a1 - s2/a2) and N(0,1) = 2 (1/a1 - 1/a2), with s2 = 0
    sums = [ctx.zero, s1 * u, ctx.zero * u]
    terms = [None, a1 * u, a2 * u]
    return build_table(sums, terms, [1, 2], 1, 0, ctx)


@pytest.mark.parametrize("unit", sorted(_UNITS))
def test_h_and_k_are_range_checked_at_an_mpmath_preset(unit):
    ctx = make_context(NARROW_QUAD)
    u = _UNITS[unit](ctx)
    big = ctx.ldexp(1, 135)
    # N_0 = 2^135 and N_1 = 2^134 keep one sign: N(0,1) = 2^135 is in range,
    # H(0,1) = 2 (|N_0| + |N_1|) = 3 * 2^135 is not
    with pytest.raises(RangeOverflowError, match=r"^H\(0,1\) exceeds the narrow-quad"):
        build_table([ctx.zero] * 3, [None, u / big, 2 * u / big], [1, 2], 1, 0, ctx)
    # the same for M_0 = 2^135, M_1 = 2^134 and K(0,1)
    with pytest.raises(RangeOverflowError, match=r"^K\(0,1\) exceeds the narrow-quad"):
        build_table([ctx.zero, big * u, big * u], [None, u, 2 * u], [1, 2], 1, 0, ctx)


@pytest.mark.parametrize("unit", sorted(_UNITS))
def test_recursion_range_edges_at_an_mpmath_preset(unit):
    ctx = make_context(NARROW_QUAD)
    u = _UNITS[unit](ctx)
    one, two = ctx.one, ctx.mpf(2)
    # M(0,1) = 2^135, mag 136; one bit more overflows
    _table_at(ctx, u, ctx.ldexp(1, 134), one, two)
    with pytest.raises(RangeOverflowError, match=r"^M\(0,1\) exceeds the narrow-quad"):
        _table_at(ctx, u, ctx.ldexp(1, 135), one, two)
    # M(0,1) = 0 and N(0,1) = +-(2^135 + 2), mag 136; one bit more overflows
    _table_at(ctx, u, ctx.zero, ctx.ldexp(1, -134), -one)
    with pytest.raises(RangeOverflowError, match=r"^N\(0,1\) exceeds the narrow-quad"):
        _table_at(ctx, u, ctx.zero, ctx.ldexp(1, -135), -one)
    # a NaN ordinate is named as the partial sum it is
    with pytest.raises(NotANumberError, match=r"^partial sum A_1 is NaN$"):
        _table_at(ctx, u, ctx.nan, one, two)


@pytest.mark.parametrize("unit", sorted(_UNITS))
def test_the_first_entry_out_of_range_in_entry_order_is_named(unit):
    ctx = make_context(NARROW_QUAD)
    u = _UNITS[unit](ctx)
    big = ctx.ldexp(1, 134)
    # R = [1, 2, 3], m = 1, sigma_hat = 0: t = [1, 1/2, 1/3], N = [1, 1/2, 2^134] and
    # M = 3 * 2^133 * [0, 1, 1]; sample 1 stays in range (M(0,1) = -3 * 2^134)
    sums = [ctx.zero, ctx.zero, 3 * big * u, ctx.mpf(1.5) * u]
    terms = [None, u, 2 * u, u / big]
    build_table(sums, terms, [1, 2], 1, 0, ctx)
    # at sample 2, M(1,1) = 0 but M(0,2) = -9 * 2^133 leaves the range, and at n = 1
    # before it N(1,1) = -6 (2^134 - 1/2), H(1,1) and K(1,1) do: N is first
    with pytest.raises(RangeOverflowError, match=r"^N\(1,1\) exceeds the narrow-quad"):
        build_table(sums, terms, [1, 2, 3], 1, 0, ctx)


@pytest.mark.parametrize("prec", [53, 113])
def test_far_apart_sums_keep_mpmaths_perturbation_of_a_wide_mantissa(prec):
    # add and sub form the exact sum up to an offset of 512 bits, where mpmath perturbs
    # past 100; for s of 3 prec bits whose low part is one unit short of half an ulp,
    # the exact s + t rounds up and mpmath's perturbed s rounds down
    low = 2 * prec - 3
    s = from_man_exp((((1 << (prec - 1)) + 1) << (low + 1)) + (1 << low) - 1, 0)
    add, sub = _nearest_kernels(prec)["add"], _nearest_kernels(prec)["sub"]
    for offset in (101, 300, 512, 513):
        t = from_man_exp((1 << (offset + 5)) + 1, -offset)
        assert add(s, t) == mpf_add(s, t, prec, round_nearest), offset
        assert sub(s, mpf_neg(t)) == mpf_sub(s, mpf_neg(t), prec, round_nearest), offset
        assert add(t, s) == mpf_add(t, s, prec, round_nearest), offset
    # operands of at most prec + 4 bits: the exact sum, rounded once, is mpmath's perturbation
    x, y = from_man_exp((1 << (prec + 3)) + 3, 0), from_man_exp(-5, -450)
    assert add(x, y) == mpf_add(x, y, prec, round_nearest)
