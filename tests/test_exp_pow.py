"""The exp and pow kernels against mpmath's ``mpf_exp`` and ``mpf_pow``, bit for bit.

``numerics._raw_kernels(prec)`` holds a table-driven ``exp`` with a
rounding test and a ``pow`` that takes ``mpf_pow``'s steps on the
round-to-nearest kernels; the float arithmetic's ``_float_exp`` and
``_float_pow`` run them at 53 bits.  Every result, or the exception
raised, must be mpmath's.
"""

import math
import sys
import threading

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath.libmp import (
    finf,
    fnan,
    fninf,
    fone,
    from_int,
    from_man_exp,
    from_rational,
    fzero,
    mpf_exp,
    mpf_log,
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


def test_the_builtin_terms_rarely_fall_back(monkeypatch):
    # a kernel that always deferred to mpf_exp would count every call
    calls, fallbacks = [0], [0]
    mpmath_exp, loop_arithmetic = numerics.mpf_exp, series_model.loop_arithmetic

    def counting_fallback(*args):
        fallbacks[0] += 1
        return mpmath_exp(*args)

    def counting_arithmetic(*args):
        ar = loop_arithmetic(*args)
        exp = ar.exp

        def counted(x):
            calls[0] += 1
            return exp(x)

        return ar._replace(exp=counted)

    monkeypatch.setattr(numerics, "mpf_exp", counting_fallback)
    monkeypatch.setattr(series_model, "loop_arithmetic", counting_arithmetic)
    for precision in (QUAD, DOUBLE):
        ctx = make_context(precision)
        for ident in builtin_ids():
            sums_and_terms(builtin_problem(ident), range(1, 151), ctx)
    assert calls[0] > 2000
    assert fallbacks[0] <= 0.05 * calls[0], (fallbacks[0], calls[0])


def _float_exp_of_mpmath(x):
    return to_float(mpf_exp(numerics._raw(x), 53, round_nearest))


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
    got, want = numerics._float_exp(x), _float_exp_of_mpmath(x)
    assert got == want or (math.isnan(got) and math.isnan(want)), x
    assert type(got) is float


def test_float_exp_edges():
    assert numerics._float_exp(0.0) == numerics._float_exp(-0.0) == 1.0
    assert numerics._float_exp(709.79) == numerics._float_exp(1e6) == math.inf
    assert 0.0 < numerics._float_exp(-708.5) < 2.0 ** -1022  # subnormal
    assert numerics._float_exp(-745.2) == 0.0
    assert math.isnan(numerics._float_exp(math.nan))
    assert numerics._float_exp(3) == _float_exp_of_mpmath(3)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(1, 6000).map(float), st.floats(1e-300, 1e300), st.integers(-9, 10**6)),
       st.one_of(st.sampled_from([0.5, -0.5, 1.5, -1.5, 2.5, 1 / 3, 3 ** 0.5, 2.0]),
                 st.floats(-12, 12)))
def test_float_pow_is_mpmaths_at_53_bits(x, y):
    def mpmath_pow(a, b):
        return to_float(mpf_pow(numerics._raw(a), numerics._raw(b), 53, round_nearest))

    assert _outcome(numerics._float_pow, x, y) == _outcome(mpmath_pow, x, y), (x, y)


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


def test_raw_arithmetic_runs_the_kernels_of_its_precision():
    ar = numerics.loop_arithmetic(make_context(QUAD))
    kernels = _raw_kernels(113)
    assert all(getattr(ar, name) is kernels[name] for name in numerics._KERNELS)
    assert ar.pow(ar.from_int(9), ar.div(ar.from_int(-3), ar.from_int(2))) == mpf_pow(
        from_int(9), from_rational(-3, 2, 113), 113, round_nearest)
