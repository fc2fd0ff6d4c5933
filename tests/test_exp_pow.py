"""The exp, log and pow kernels against mpmath's ``mpf_exp``, ``mpf_log`` and ``mpf_pow``.

``numerics._raw_kernels(prec)`` holds a table-driven ``exp`` and ``log``
(the ``mpf_log(s, prec + 10)`` inside ``pow``), each with a rounding
test, and a ``pow`` that takes ``mpf_pow``'s steps on the round-to-nearest
kernels; the float arithmetic's ``exp`` and ``pow`` run them at 53 bits,
for the double loops and for the binary64 context's ``exp`` and ``power``.
Every result, or the exception raised, must be mpmath's.
"""

import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath.libmp import (
    MPZ,
    finf,
    fnan,
    fninf,
    fone,
    from_int,
    from_man_exp,
    from_rational,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_pow,
    mpf_sqrt,
    round_nearest,
    to_float,
)

from fracsum import numerics, series_model
from fracsum.numerics import DOUBLE, QUAD, _raw_kernels, make_context
from fracsum.series_model import builtin_ids, builtin_problem, sums_and_terms

PRECS = [53, 113, 200]
_SPECIALS = [fzero, finf, fninf, fnan]
FP = make_context(DOUBLE)
FLOAT = numerics.loop_arithmetic(FP)  # the one float arithmetic, whose kernels FP's functions run


def _outcome(f, *args):
    """f's result, or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:  # the exception type is the result compared
        return type(exc)


@st.composite
def _arguments(draw, prec):
    """A raw tuple of any sign, magnitude 2^-(prec+12) to 2^24 and mantissa of 1 to 3 prec bits."""
    bits = draw(st.one_of(st.sampled_from([1, prec, 2 * prec + 10]), st.integers(1, 3 * prec)))
    man = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    mag = draw(st.integers(-prec - 12, 24))
    return from_man_exp(draw(st.sampled_from([1, -1])) * man, mag - bits)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), prec=st.sampled_from(PRECS))
def test_exp_is_mpmaths_bit_for_bit(data, prec):
    x = data.draw(st.one_of(st.sampled_from(_SPECIALS), _arguments(prec)))
    assert _raw_kernels(prec)["exp"](x) == mpf_exp(x, prec, round_nearest), (x, prec)


@pytest.mark.parametrize("prec", PRECS)
def test_exp_at_the_edges_of_its_fast_range(prec):
    exp = _raw_kernels(prec)["exp"]
    for mag in (-prec - 9, -prec - 8, -prec - 7, 19, 20, 21):
        for man in (1, 3, (1 << prec) - 1):
            for sign in (1, -1):
                x = from_man_exp(sign * man, mag - man.bit_length())
                assert exp(x) == mpf_exp(x, prec, round_nearest), x


def _reduction_edges(prec):
    """Arguments x = (k + 1/2) ln2 / 4096, a few ulps apart: exp's reduced |r| at 2^-13.5."""
    ln2_step = mpf_log(from_int(2), 2 * prec + 40, round_nearest)
    for k in (-4096 * 13, -4097, -3, -1, 0, 1, 2, 63, 64, 4095, 4096 * 11 + 7):
        edge = mpf_mul(from_rational(2 * k + 1, 8192, 2 * prec + 40, round_nearest), ln2_step,
                       prec, round_nearest)
        for ulps in (-2, -1, 0, 1, 2):
            sign, man, exp, bc = edge
            yield from_man_exp((-1) ** sign * (MPZ(man) + ulps), exp)


@pytest.mark.parametrize("prec", PRECS)
def test_exp_at_the_edge_of_its_reduction(prec):
    exp = _raw_kernels(prec)["exp"]
    for x in _reduction_edges(prec):
        assert exp(x) == mpf_exp(x, prec, round_nearest), x
    for x in _reduction_edges(53):
        y = to_float(x)
        assert FLOAT.exp(y) == FP.exp(y) == _float_exp_of_mpmath(y), y


@settings(max_examples=400, deadline=None)
@given(data=st.data(), prec=st.sampled_from(PRECS))
def test_log_is_mpmaths_bit_for_bit(data, prec):
    s = data.draw(st.one_of(st.builds(from_int, st.integers(1, 6000)), st.sampled_from(_SPECIALS),
                            _arguments(prec)))
    want = _outcome(mpf_log, s, prec + 10, round_nearest)
    assert _outcome(_raw_kernels(prec)["log"], s) == want, (s, prec)


def _log_grid(prec):
    """Values near 1, powers of two and their neighbours, and huge and tiny magnitudes."""
    for k in (0, 1, -1, 2, -2, 3, 20, -20, (1 << 20) - 1, 1 << 20, (1 << 20) + 1, (1 << 20) + 2,
              -(1 << 20), -(1 << 20) - 1, 10 ** 6, -10 ** 9):
        yield from_man_exp(1, k)
        for e in (-prec, -prec - 1):
            for sign in (1, -1):  # 2^k (1 +- 2^e), exact
                yield mpf_mul(from_man_exp(1, k), mpf_add(fone, from_man_exp(sign, e), 2 * prec),
                              2 * prec)
    for m in range(1, 40):
        for sign in (1, -1):
            yield from_man_exp((1 << prec) + sign * m, -prec)  # near 1
            yield from_man_exp((1 << prec) + sign * m * 7919, -prec + 1)  # near 2
    for mag in (2, 3, 600, 5000, 10 ** 5, 10 ** 8, -2, -600, -10 ** 5, -10 ** 8):
        for man in (3, 12345, (1 << prec) - 1, (1 << (2 * prec + 10)) - 3):
            yield from_man_exp(man, mag - man.bit_length())


@pytest.mark.parametrize("prec", PRECS)
def test_log_on_a_grid_of_edges(prec):
    log = _raw_kernels(prec)["log"]
    for s in _log_grid(prec):
        assert _outcome(log, s) == _outcome(mpf_log, s, prec + 10, round_nearest), s


def _log_midpoints(prec, count):
    """Arguments s outside (1/2, 2) whose log is within 2^-(2 prec) of a (prec + 10)-bit midpoint."""
    w = prec + 10
    for i in range(count):
        mag = 1 + i % 12  # the midpoint's magnitude: |log s| in [2^(mag-1), 2^mag)
        man = ((1 << w) + 7919 * i * i + 3) | 1  # w + 1 bits: a midpoint at w bits
        mid = from_man_exp(man if i % 3 else -man, mag - w - 1)
        yield mpf_exp(mid, 3 * prec + mag, round_nearest)


@pytest.mark.parametrize("prec", PRECS)
def test_log_near_a_midpoint_falls_back_and_still_matches(monkeypatch, prec):
    calls = []

    def counting(x, p, rnd):
        calls.append(x)
        return mpf_log(x, p, rnd)

    monkeypatch.setattr(numerics, "mpf_log", counting)
    log = _raw_kernels(prec)["log"]
    ss = list(_log_midpoints(prec, 60))
    for s in ss:
        assert log(s) == mpf_log(s, prec + 10, round_nearest), s
    assert calls == ss  # each took the fallback


def _exponents(prec):
    """The exponents t of the builtins and their schedules, as raw tuples at prec bits."""
    halves = [from_rational(k, 2, prec, round_nearest) for k in (1, -1, 3, -3, 5)]
    thirds = [from_rational(1, m, prec, round_nearest) for m in (3, 5)]
    return [fone, *halves, *thirds, mpf_sqrt(from_int(3), prec, round_nearest), from_int(2)]


@settings(max_examples=400, deadline=None)
@given(data=st.data(), prec=st.sampled_from(PRECS))
def test_pow_is_mpmaths_bit_for_bit(data, prec):
    s = data.draw(st.one_of(st.builds(from_int, st.integers(1, 6000)),  # a sample index r
                            st.builds(from_int, st.integers(-50, 10**9)),
                            st.sampled_from(_SPECIALS), _arguments(prec)))
    t = data.draw(st.one_of(st.sampled_from(_exponents(prec) + _SPECIALS), _arguments(prec)))
    want = _outcome(mpf_pow, s, t, prec, round_nearest)
    assert _outcome(_raw_kernels(prec)["pow"], s, t) == want, (s, t, prec)


@pytest.mark.parametrize("prec", PRECS)
def test_pow_of_a_wide_power_and_a_negative_base(prec):
    pow = _raw_kernels(prec)["pow"]
    t = from_rational(999, 2, prec, round_nearest)  # a power of more than 1000 bits
    for s in (from_int(7), from_int(-7)):
        for exponent in (t, from_rational(-3, 2, prec, round_nearest), from_int(3)):
            assert _outcome(pow, s, exponent) == _outcome(mpf_pow, s, exponent, prec,
                                                          round_nearest), (s, exponent)


def _midpoints(prec, count):
    """Arguments x whose exp(x) lies within 2^-(2 prec) of a midpoint between prec-bit floats."""
    for i in range(count):
        man = (((1 << prec) + 7919 * i * i + 3) | 1) if i % 2 else (1 << (prec + 1)) - 2 * i - 1
        mid = from_man_exp(man, -prec - (i % 40) + 20)  # prec + 1 bits: a midpoint at prec bits
        yield mpf_log(mid, 3 * prec, round_nearest)


@pytest.mark.parametrize("prec", PRECS)
def test_exp_near_a_midpoint_falls_back_and_still_matches(monkeypatch, prec):
    calls = []

    def counting(x, p, rnd):
        calls.append(x)
        return mpf_exp(x, p, rnd)

    monkeypatch.setattr(numerics, "mpf_exp", counting)
    exp = _raw_kernels(prec)["exp"]
    xs = list(_midpoints(prec, 60))
    for x in xs:
        assert exp(x) == mpf_exp(x, prec, round_nearest), x
    assert calls == xs  # each took the fallback


def _takes_log(x, y):
    """Whether pow takes the log of x: x is no power of two and y no integer or half-integer."""
    s, t = (v if type(v) is tuple else numerics._raw(v) for v in (x, y))
    return s[1] > 1 and t[1] and t[2] < -1


def test_the_builtin_terms_rarely_fall_back(monkeypatch):
    # a kernel that always deferred to mpf_exp or mpf_log would count every call
    calls, fallbacks = {"exp": 0, "log": 0}, {"exp": 0, "log": 0}
    mpmath_kernels = {"exp": numerics.mpf_exp, "log": numerics.mpf_log}
    loop_arithmetic = series_model.loop_arithmetic

    def counting_fallback(name):
        def fallback(*args):
            fallbacks[name] += 1
            return mpmath_kernels[name](*args)

        return fallback

    def counting_arithmetic(*args):
        ar = loop_arithmetic(*args)
        exp, pow = ar.exp, ar.pow

        def counted_exp(x):
            calls["exp"] += 1
            return exp(x)

        def counted_pow(x, y):
            calls["log"] += _takes_log(x, y)
            return pow(x, y)

        return ar._replace(exp=counted_exp, pow=counted_pow)

    monkeypatch.setattr(numerics, "mpf_exp", counting_fallback("exp"))
    monkeypatch.setattr(numerics, "mpf_log", counting_fallback("log"))
    monkeypatch.setattr(series_model, "loop_arithmetic", counting_arithmetic)
    for precision in (QUAD, DOUBLE):
        ctx = make_context(precision)
        for ident in builtin_ids():
            sums_and_terms(builtin_problem(ident), range(1, 151), ctx)
    assert calls["exp"] > 2000 and calls["log"] > 200, calls
    for name in calls:
        assert fallbacks[name] <= 0.05 * calls[name], (name, fallbacks, calls)


def _float_exp_of_mpmath(x):
    return to_float(mpf_exp(numerics._raw(x), 53, round_nearest))


def _mpmath_pow(a, b):
    return to_float(mpf_pow(numerics._raw(a), numerics._raw(b), 53, round_nearest))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(-800, 800), st.floats(allow_nan=True, allow_infinity=True),
                 st.integers(-800, 800)))
@example(0.0)
@example(-0.0)
@example(709.78)
@example(709.79)  # exp overflows binary64: inf, not an exception
@example(-708.5)  # a subnormal result
@example(-745.2)  # underflows to zero
@example(2.0 ** -62)
@example(5e-324)
def test_float_exp_is_mpmaths_at_53_bits(x):
    want = _float_exp_of_mpmath(x)
    for exp in (FLOAT.exp, FP.exp):
        got = exp(x)
        assert got == want or (math.isnan(got) and math.isnan(want)), (exp, x)
        assert type(got) is float


def test_float_exp_edges():
    for exp in (FLOAT.exp, FP.exp):
        assert exp(0.0) == exp(-0.0) == 1.0
        assert exp(709.79) == exp(1e6) == math.inf
        assert 0.0 < exp(-708.5) < 2.0 ** -1022  # subnormal
        assert exp(-745.2) == 0.0
        assert math.isnan(exp(math.nan))
        assert exp(3) == _float_exp_of_mpmath(3)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(1, 6000).map(float), st.floats(1e-300, 1e300), st.integers(-9, 10**6)),
       st.one_of(st.sampled_from([0.5, -0.5, 1.5, -1.5, 2.5, 1 / 3, 3 ** 0.5, 2.0]),
                 st.floats(-12, 12)))
def test_float_pow_is_mpmaths_at_53_bits(x, y):
    want = _outcome(_mpmath_pow, x, y)
    assert _outcome(FLOAT.pow, x, y) == want, (x, y)
    if type(want) is float:  # else the context's power is mpmath's, a complex result or error
        assert FP.power(x, y) == want, (x, y)


# the exponents of the float pow's integral-base kernels: half-integers up to past the 1000-bit
# fallback (a 63-bit root to the 17th power), +1/2 (sqrt), the general ones of the builtins and
# 20.3, whose powers of bases near 2^53 overflow binary64 (and underflow to subnormals when negative)
_HALVES = [sign * k / 2 for k in range(1, 44, 2) for sign in (1, -1)]
_INTEGRAL_BASE_EXPONENTS = _HALVES + [1 / 3, 3 ** 0.5, -0.2, 20.3, -20.3]
_POWERS_OF_TWO_AND_NEIGHBOURS = [2 ** k + d for k in (1, 2, 10, 26, 51, 52) for d in (-1, 0, 1)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(2, 2 ** 53 - 1), st.sampled_from(_POWERS_OF_TWO_AND_NEIGHBOURS),
                          st.integers(2, 6000)), min_size=1, max_size=4),
       st.sampled_from(_INTEGRAL_BASE_EXPONENTS))
@example([2 ** 52 + 1, 2 ** 53 - 1, 2 ** 52, 9, 2 ** 51 - 1], 20.3)  # inf, inf, inf, finite
@example([2 ** 52 + 1, 2 ** 53 - 1, 3 ** 33], -20.3)  # subnormal results
@example([2 ** 52 + 1, 2 ** 53 - 1, 12345], 41.5)  # past the 1000-bit fallback, inf
@example([2 ** 52 + 1, 2 ** 53 - 1, 12345], -41.5)  # subnormal and zero
# 63-bit roots to the 17th power, past the core's 1000 bits: mpf_pow raises the roots of 130, 165
# and 2^40 + 1 exactly (58, 57 and 42 bits stripped) and 131's (62 bits) by repeated squaring
@example([130, 131, 165, 2 ** 40 + 1, 9], 8.5)
@example([130, 131, 165, 2 ** 40 + 1, 9], -8.5)
def test_float_pow_of_integral_bases_is_mpmaths_at_53_bits(bases, y):
    # the bases raised in turn to one exponent object, as a loop does: its kernel is picked once
    for n in bases:
        x = float(n)
        want = _mpmath_pow(x, y)
        assert FLOAT.pow(x, y) == want and FP.power(x, y) == want, (n, y)


def test_float_pow_of_even_bases_in_the_log_band_is_mpmaths(monkeypatch):
    # the general kernel hands log an integral base with its trailing zeros; where log falls back
    # to mpf_log (within its band of a midpoint), mpf_log must read that tuple as its value
    fallbacks = []

    def counting(s, prec, rnd):
        fallbacks.append(s)
        return mpf_log(s, prec, rnd)

    monkeypatch.setattr(numerics, "mpf_log", counting)
    for y in (3 ** 0.5, 1 / 3, -0.2):
        for n in range(3, 3001):
            x = float(n)
            assert FLOAT.pow(x, y) == to_float(mpf_pow(numerics._raw(x), numerics._raw(y), 53,
                                                       round_nearest)), (n, y)
    assert any(s[1] % 2 == 0 for s in fallbacks), len(fallbacks)


@pytest.mark.parametrize("prec", [113, 200])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_half_integer_pow_is_mpmaths_bit_for_bit(prec, data):
    # the core of the raw pow's half-integer branch: the root at prec + 10 bits, its odd power
    # rounded once and, for a negative t, 1 over it; the odd powers reach past its 1000-bit fallback
    pow = _raw_kernels(prec)["pow"]
    s = data.draw(st.one_of(st.builds(from_int, st.integers(2, 2 ** 53 - 1)),
                            st.builds(from_int, st.sampled_from(_POWERS_OF_TWO_AND_NEIGHBOURS)),
                            _arguments(prec).map(mpf_abs)))
    k = data.draw(st.integers(0, 20).map(lambda i: 2 * i + 1))
    t = from_rational(data.draw(st.sampled_from([k, -k])), 2, prec, round_nearest)
    assert _outcome(pow, s, t) == _outcome(mpf_pow, s, t, prec, round_nearest), (s, t, prec)


def test_double_power_loops_take_the_integral_base_kernels(monkeypatch):
    # ex5_14 raises n to sqrt(3) and ex7_2 to -3/2 on the float arithmetic; a kernel that stopped
    # taking the integral bases would still have mpmath's bits, through the raw pow it falls back to
    entries, build = [0], numerics._build_raw_kernels

    def counting_build(prec):
        kernels = build(prec)
        raw_pow = kernels["pow"]

        def counted(s, t):
            entries[0] += 1
            return raw_pow(s, t)

        return dict(kernels, pow=counted)

    monkeypatch.setattr(numerics, "_kernel_cache", {})
    monkeypatch.setattr(numerics, "_float_cache", {})
    monkeypatch.setattr(numerics, "_build_raw_kernels", counting_build)
    calls, loop_arithmetic = [0], series_model.loop_arithmetic

    def counting_arithmetic(*args):
        ar = loop_arithmetic(*args)
        pow = ar.pow

        def counted_pow(x, y):
            calls[0] += 1
            return pow(x, y)

        return ar._replace(pow=counted_pow)

    monkeypatch.setattr(series_model, "loop_arithmetic", counting_arithmetic)
    for ident in ("ex5_14", "ex7_2"):
        calls[0] = entries[0] = 0
        sums_and_terms(builtin_problem(ident), range(1, 2001), FP)
        assert calls[0] == 2000 and entries[0] <= 0.05 * calls[0], (ident, entries, calls)


def test_float_pow_of_one_arithmetic_keeps_each_exponent_apart():
    pow = FLOAT.pow
    assert numerics.loop_arithmetic(FP) is FLOAT
    a, b = 3 ** 0.5, -1.5
    # a, then b, then a, with the same objects, equal copies and a value a loop never passes
    for x, y in [(7.0, a), (7.0, b), (7.0, a), (7.0, float(a * 1.0)), (11.0, b), (11.0, b),
                 (13.0, a), (13.0, 0.5), (13.0, a), (2.0, -b), (5.0, 3)]:
        assert pow(x, y) == _mpmath_pow(x, y), (x, y)
    # the context's power and the loop's pow share one memo: a, b, a through both in turn
    for x, y, power in [(7.0, a, FP.power), (7.0, b, pow), (11.0, a, FP.power), (11.0, a, pow),
                        (13.0, b, FP.power), (13.0, b, pow), (17.0, a, pow), (17.0, b, FP.power),
                        (19.0, a, FP.power), (19, b, FP.power), (23.0, a, pow)]:
        assert power(x, y) == _mpmath_pow(x, y), (x, y, power)


def test_threads_on_one_double_context_keep_their_exponents_apart():
    # ex5_14 raises n to sqrt(3) and ex7_2 to -3/2, both through the one memo of FP's arithmetic;
    # a memo that stored its exponent and raw form apart failed here in about 7 of 10 runs
    problems = [builtin_problem("ex5_14"), builtin_problem("ex7_2")]
    indices = range(1, 5001)
    serial = [sums_and_terms(problem, indices, FP) for problem in problems]
    barrier, got = threading.Barrier(len(problems)), {}

    def run(i):
        barrier.wait(timeout=60)
        got[i] = sums_and_terms(problems[i], indices, FP)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(problems))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [got[i] for i in range(len(problems))] == serial


def test_kernels_are_built_once_for_threads_that_share_a_fresh_precision(monkeypatch):
    monkeypatch.setattr(numerics, "_kernel_cache", {})
    builds, build = [], numerics._build_raw_kernels

    def counting_build(prec):
        builds.append(prec)
        return build(prec)

    monkeypatch.setattr(numerics, "_build_raw_kernels", counting_build)
    before = (mpmath.mp.prec, mpmath.mp.pretty, mpmath.mp._prec_rounding[1])
    barrier, got = threading.Barrier(8), []

    def first_use():
        barrier.wait(timeout=60)
        kernels = _raw_kernels(171)
        got.append((kernels, kernels["exp"](from_int(3)),
                    kernels["pow"](from_int(5), from_rational(-3, 2, 171, round_nearest))))

    threads = [threading.Thread(target=first_use) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert builds == [171] and len(got) == 8 and all(kernels is got[0][0] for kernels, _, _ in got)
    assert {(e, p) for _, e, p in got} == {(mpf_exp(from_int(3), 171, round_nearest),
                                            mpf_pow(from_int(5), from_rational(-3, 2, 171, round_nearest),
                                                    171, round_nearest))}
    assert (mpmath.mp.prec, mpmath.mp.pretty, mpmath.mp._prec_rounding[1]) == before


def test_kernels_are_built_at_their_first_use_not_at_import():
    env = dict(os.environ)
    src = str(Path(numerics.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = """
import fracsum
from fracsum import numerics
ctx = fracsum.make_context(fracsum.DOUBLE)
fracsum.make_context(fracsum.QUAD)
print(numerics._kernel_cache, numerics._float_cache)
builds, build = [], numerics._build_raw_kernels
numerics._build_raw_kernels = lambda prec: builds.append(prec) or build(prec)
made, make = [], numerics._float_arithmetic
numerics._float_arithmetic = lambda precision: made.append(precision.name) or make(precision)
ctx.exp(1.0)
print(builds, made)
ctx.exp(2.0), ctx.power(2.0, 0.5), ctx.loggamma(3.0), ctx.sqrt(2.0)
print(builds, made, numerics.loop_arithmetic(ctx) is numerics.loop_arithmetic(ctx))
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["{} {}", "[53] ['double']", "[53] ['double'] True"]


def test_raw_arithmetic_runs_the_kernels_of_its_precision():
    ar = numerics.loop_arithmetic(make_context(QUAD))
    kernels = _raw_kernels(113)
    assert all(getattr(ar, name) is kernels[name] for name in numerics._KERNELS)
    assert ar.pow(ar.from_int(9), ar.div(ar.from_int(-3), ar.from_int(2))) == mpf_pow(
        from_int(9), from_rational(-3, 2, 113), 113, round_nearest)
