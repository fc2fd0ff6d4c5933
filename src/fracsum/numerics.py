"""Precision presets, their arithmetic contexts and range checks.

Scalars are created through a context tied to a :class:`Precision`.  A
preset that fits IEEE binary64 (53 mantissa bits, decimal range at most
1e308, i.e. ``DOUBLE``) gets a :class:`Binary64Context`, whose real
scalars are Python floats and whose every function is mpmath's at 53
bits: ``convert`` and ``mpf`` as float fast paths, ``sqrt``, ``power``,
``exp`` and ``loggamma`` through float kernels where they can, and all
others (``log``, ``gamma``, ...) through a private 53-bit ``MPContext``.
Every other preset gets an mpmath
``MPContext`` with ``mpf`` reals.  Complex scalars are mpmath ``mpc``
values under both, and the roundoff unit u = 2^(1 - mantissa_bits) is
``ctx.eps``.  Any other number (int, float, str, Fraction, complex)
enters a context through the context's own ``convert``.  The precision
is always an explicit parameter: nothing in this package reads or
mutates the global ``mpmath.mp`` state, so computations at different
precisions can run side by side (and concurrently).

The two hot loops, the W-recursion of ``build_table`` and the partial-sum
accumulation of ``sums_and_terms``, and the builtin term evaluators take
their scalar operations from :func:`loop_arithmetic`, which binds them to
the context's precision and rounding: each kernel takes its operands
alone.  Under an ``MPContext``, real values run there as raw ``libmp``
tuples (``_mpf_``): the same bits as the ``mpf`` operators and context
functions, without the object wrapper and the dispatch.  ``+``, ``-``,
``*``, ``/`` and ``sqrt`` are this module's round-to-nearest kernels on
mpmath's pure-Python backend: each takes the integer steps of mpmath's
``mpf_add``, ``mpf_sub``, ``mpf_mul``, ``mpf_div`` or ``mpf_sqrt`` and
rounds once, half to even, which is mpmath's rounding, so its bits are
mpmath's; ``int.bit_length`` and ``math.isqrt`` replace mpmath's
pure-Python bit count and root, and every case but the common one is
mpmath's own function.  The W-recursion's divided difference
``(x - y) / d`` is one kernel with the bits of the ``-`` kernel followed
by the ``/`` kernel.  Under gmpy2, or at another rounding, these are
mpmath's functions.  ``pow``, ``exp`` and ``loggamma`` are always
mpmath's ``mpf_pow``, ``mpf_exp`` and ``mpf_loggamma``: their bits are
those of mpmath's algorithms, not a correctly rounded value, so they are
not restated.  Binary64 floats keep their native operators and
``math.sqrt``, and take ``pow``, ``exp`` and ``loggamma`` from the same
mpmath kernels at 53 bits; the binary64 context's own ``sqrt``, ``power``,
``exp`` and ``loggamma`` run these four kernels too, wherever they take
the arguments, so every caller at binary64 gets them.  Complex values
keep their native operators and the context's own functions.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

from mpmath.ctx_mp import MPContext
from mpmath.libmp import (
    BACKEND,
    MPZ,
    from_float,
    from_int,
    fone,
    fzero,
    mpf_add,
    mpf_div,
    mpf_e,
    mpf_exp,
    mpf_loggamma,
    mpf_mul,
    mpf_neg,
    mpf_pi,
    mpf_pow,
    mpf_sqrt,
    mpf_sub,
    round_nearest,
    to_float,
)

__all__ = [
    "Precision",
    "DOUBLE",
    "QUAD",
    "PRESETS",
    "Binary64Context",
    "RangeOverflowError",
    "NotANumberError",
    "make_context",
    "precision_of",
    "resolve_scalar",
    "check_range",
    "LoopArithmetic",
    "loop_arithmetic",
]


class RangeOverflowError(OverflowError):
    """A value left the representable exponent range of the active precision."""


class NotANumberError(ArithmeticError):
    """A value became NaN, so every result computed from it is meaningless."""


@dataclass(frozen=True)
class Precision:
    """A software floating-point format: mantissa width plus exponent range.

    ``max_exp10`` is the largest decimal exponent magnitude treated as
    representable; values beyond it trigger :class:`RangeOverflowError`
    where the contracts call for an overflow check.
    """

    name: str
    mantissa_bits: int
    max_exp10: int

    def __post_init__(self):
        if self.mantissa_bits < 53:
            raise ValueError("mantissa_bits must be at least 53")
        if self.max_exp10 < 1:
            raise ValueError("max_exp10 must be positive")

    @cached_property
    def max_exp2(self) -> int:
        """Binary exponent bound matching ``max_exp10`` (small safety slack)."""
        return int(self.max_exp10 * math.log2(10)) + 4


DOUBLE = Precision("double", 53, 308)
QUAD = Precision("quad", 113, 4932)
PRESETS = {"double": DOUBLE, "quad": QUAD}

_context_cache: dict[Precision, object] = {}
_context_lock = threading.Lock()


def _mpmath_context(precision: Precision) -> MPContext:
    """A fresh mpmath context rounding to ``precision.mantissa_bits`` bits."""
    ctx = MPContext()
    ctx.prec = precision.mantissa_bits
    ctx.pretty = False
    ctx._fracsum_precision = precision
    return ctx


def _raw(x):
    """The raw mpf of a float, as ``libmp.from_float`` gives it, or of an int.

    ``as_integer_ratio`` is already in lowest terms, so only an integral
    float needs its trailing zero bits stripped; from_float normalises
    every mantissa, which makes it the slower path.  An int is exact
    through ``from_int``, which has its small values at hand.
    """
    if type(x) is int:
        return from_int(x)
    if x - x != 0.0:  # inf or nan
        return from_float(x)
    man, den = x.as_integer_ratio()
    if not man:
        return fzero
    sign = 0
    if man < 0:
        sign, man = 1, -man
    if den == 1:
        exp = (man & -man).bit_length() - 1
        man >>= exp
    else:
        exp = 1 - den.bit_length()
    return sign, MPZ(man), exp, man.bit_length()


class Binary64Context:
    """IEEE binary64 arithmetic that gives the same bits as mpmath at 53 bits.

    Real scalars are Python floats.  ``+ - * /``, ``abs`` and comparisons
    run natively: IEEE round-to-nearest-even is mpmath's 53-bit rounding
    ``"n"``.  ``convert`` and ``mpf``, which ``sums_and_terms`` calls once
    per term, return a float or int as a float without mpmath.  ``power``,
    ``exp`` and ``loggamma`` of floats and ints, and ``sqrt`` of a float,
    are the float arithmetic's kernels (``_FLOAT_KERNELS``), for every
    caller: a term expression, a user's term function, ``h`` of a
    trigonometric pair and the native loop arithmetic.  Where a kernel
    raises (a complex result, a pole) or does not take the arguments, and
    for every other function and constant (``log``, ``mag``, ``isnan``,
    ``dps``, ...), the context is a private 53-bit ``MPContext``, with a
    real result turned into its float.  Per term, the hot loops and the
    builtin terms call none of them: their kernels are
    :func:`loop_arithmetic`'s.  Complex scalars are that
    context's ``mpc`` values, and it renders ``nstr``.  Unlike that context,
    values end at 2^1024 (overflow gives ``inf``) and lose bits below
    2^-1022.
    """

    zero = 0.0
    one = 1.0
    inf = math.inf
    ninf = -math.inf
    nan = math.nan
    eps = 2.0 ** -52
    pi = to_float(mpf_pi(53, round_nearest))
    e = to_float(mpf_e(53, round_nearest))

    def __init__(self, precision: Precision):
        self._mp = _mpmath_context(precision)
        self._fracsum_precision = precision

    def __getattr__(self, name):
        # only names not found on the instance or the class get here
        if name.startswith("_"):
            raise AttributeError(name)
        value = getattr(self._mp, name)
        if hasattr(value, "_mpf_") or not callable(value):
            return self._demote(value)

        def method(*args, **kwargs):
            return self._demote(value(*args, **kwargs))

        if name in _FLOAT_KERNELS:  # the float kernel where it takes the call, else mpmath's
            kernel, types = _FLOAT_KERNELS[name]
            fallback = method
            if name == "power":  # mpmath's power takes no keywords

                def method(x, y):
                    if type(x) in types and type(y) in types:
                        try:
                            return kernel(x, y)
                        except (ArithmeticError, ValueError):  # a complex result, a pole
                            pass
                    return fallback(x, y)

            else:

                def method(x, **kwargs):
                    if type(x) in types and not kwargs:
                        try:
                            return kernel(x)
                        except (ArithmeticError, ValueError):
                            pass
                    return fallback(x, **kwargs)

        method.__name__ = name
        # kept on the instance: the next lookup of the name does not come here
        setattr(self, name, method)
        return method

    def _demote(self, x):
        """A real mpmath value as the float nearest to it; anything else as is."""
        if hasattr(x, "_mpf_"):
            return to_float(x._mpf_, rnd=round_nearest)
        return x

    def convert(self, x, strings=True):
        t = type(x)
        if t is float:
            return x
        if t is int:
            return float(x)
        return self._demote(self._mp.convert(x, strings))

    def mpf(self, x=0.0):
        t = type(x)
        if t is float:
            return x
        if t is int:
            return float(x)
        return self._demote(self._mp.mpf(x))

    def mpc(self, real=0, imag=0):
        return self._mp.mpc(real, imag)

    def nstr(self, x, n=6, **kwargs):
        return self._mp.nstr(self._mp.convert(x), n, **kwargs)


class LoopArithmetic(NamedTuple):
    """The scalar operations of a hot loop or a term over the values of a context.

    ``lift(x)`` is the loop's form of the context scalar x, or None when x
    is not a value this arithmetic holds; ``lower`` turns a loop value back
    into a context scalar.  ``in_range(x)`` is true only for a value that
    :func:`check_range` passes; for any other value the loop calls
    ``check_range`` on the lowered value, which raises the named error.
    ``zero`` and ``one`` are the loop's 0 and 1, and ``from_int(k)`` is its
    form of the int k (on floats, exact for |k| <= 2^53).  ``neg(x)`` is
    -x, exact: ``mpf_neg`` without rounding on raw tuples, unary minus on
    floats.  Both roundings are sign-symmetric, so ``sub(-x, -y)`` is
    ``neg(sub(x, y))`` and ``div(-x, d)`` is ``neg(div(x, d))`` bit for
    bit, up to the sign of a binary64 zero.  ``neg`` is None for the
    native arithmetic: its values may be complex, and an ``mpc`` with a
    zero imaginary part compares equal to an ``mpf``, so no loop value
    there is taken as the negation of another.

    The kernels take their operands only: the arithmetic is bound to the
    precision and rounding of its context.  ``add(x, y)``, ``sub``,
    ``mul``, ``div``, ``pow``, ``sqrt(x)``, ``exp`` and ``loggamma`` return
    the bits of the context's own ``+``, ``-``, ``*``, ``/``, ``power``,
    ``sqrt``, ``exp`` and ``loggamma``.  ``divdiff(x, y, d)`` is
    ``div(sub(x, y), d)`` in one call, the W-recursion's update.  On raw
    tuples at round-to-nearest with mpmath's python backend, ``add``,
    ``sub``, ``mul``, ``div``, ``sqrt`` and ``divdiff`` are the kernels of
    :func:`_nearest_kernels`; otherwise they are mpmath's, and ``divdiff``
    is ``mpf_div`` of ``mpf_sub``.  On floats and on the native arithmetic
    ``divdiff`` is ``(x - y) / d``.  The real arithmetics take ``pow``,
    ``sqrt`` and ``loggamma`` only where the result is real (terms call
    them on positive integers): where the context would return a complex
    value, they raise.
    """

    lift: Callable
    lower: Callable
    in_range: Callable
    zero: object
    one: object
    from_int: Callable
    neg: Callable | None
    add: Callable
    sub: Callable
    mul: Callable
    div: Callable
    divdiff: Callable
    pow: Callable
    sqrt: Callable
    exp: Callable
    loggamma: Callable


def _same(x):
    return x


def _never(x):
    return False


def _divdiff(x, y, d):
    return (x - y) / d


# the basic operations of the float and the native arithmetic: the values' own operators
_OPERATORS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
              "div": operator.truediv, "divdiff": _divdiff}


def _mpf_kernels(prec, rnd):
    """mpmath's kernels at prec bits and rounding rnd, by field name."""
    return {
        "add": lambda x, y: mpf_add(x, y, prec, rnd),
        "sub": lambda x, y: mpf_sub(x, y, prec, rnd),
        "mul": lambda x, y: mpf_mul(x, y, prec, rnd),
        "div": lambda x, y: mpf_div(x, y, prec, rnd),
        "divdiff": lambda x, y, d: mpf_div(mpf_sub(x, y, prec, rnd), d, prec, rnd),
        "pow": lambda x, y: mpf_pow(x, y, prec, rnd),
        "sqrt": lambda x: mpf_sqrt(x, prec, rnd),
        "exp": lambda x: mpf_exp(x, prec, rnd),
        "loggamma": lambda x: mpf_loggamma(x, prec, rnd),
    }


# The functions of the float arithmetic: mpmath's kernels at 53 bits on
# floats, with the bits of Binary64Context's functions.  Expressions call
# pow, exp and loggamma on ints too.
def _float_pow(x, y):
    return to_float(mpf_pow(_raw(x), _raw(y), 53, round_nearest))


def _float_sqrt(x):
    return math.sqrt(x) + 0.0  # sqrt(-0.0) is -0.0, and mpmath's is its one zero


def _float_exp(x):
    return to_float(mpf_exp(_raw(x), 53, round_nearest))


def _float_loggamma(x):
    return to_float(mpf_loggamma(_raw(x), 53, round_nearest))


# Binary64Context's functions that run these kernels first, with the argument
# types each takes exactly: math.sqrt rounds an int past 2^53 before its root
_FLOAT_KERNELS = {"power": (_float_pow, (float, int)), "sqrt": (_float_sqrt, (float,)),
                  "exp": (_float_exp, (float, int)), "loggamma": (_float_loggamma, (float, int))}


def _nearest_kernels(prec):
    """Round-to-nearest kernels on raw tuples at prec >= 1 bits, by field name.

    Each forms the mantissa the mpmath function of its name forms (the
    exact sum or product, mpmath's shifted quotient or root), rounds it
    once half to even, as mpmath's normalize does, and strips its trailing
    zeros; the bit count is then the mantissa's bit length.  A nonzero
    remainder of div and sqrt is mpmath's sticky bit, tested only where it
    decides a tie.  Every case outside the common one is mpmath's own
    function at round-to-nearest, result or exception.
    """

    def summation(negate):
        mpf_f = mpf_sub if negate else mpf_add

        def add(s, t):
            ssign, sman, sexp, _ = s
            tsign, tman, texp, _ = t
            offset = sexp - texp
            # a zero, inf or nan, or exponents so far apart that mpmath may perturb instead
            if not (sman and tman and -100 <= offset <= 100):
                return mpf_f(s, t, prec, round_nearest)
            if offset > 0:
                sman <<= offset
                sexp = texp
            elif offset:
                tman <<= -offset
            if ssign == tsign ^ negate:
                man = sman + tman
            else:
                man = sman - tman
                if man < 0:
                    ssign, man = ssign ^ 1, -man
                elif not man:
                    return fzero
            n = man.bit_length() - prec
            if n > 0:
                t = man >> (n - 1)
                man = (t >> 1) + 1 if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)) else t >> 1
                sexp += n
            if not man & 1:
                n = (man & -man).bit_length() - 1
                man >>= n
                sexp += n
            return ssign, man, sexp, man.bit_length()

        return add

    add, sub = summation(0), summation(1)

    def mul(s, t):
        man = s[1] * t[1]
        if not man:  # a zero, inf or nan
            return mpf_mul(s, t, prec, round_nearest)
        sign, exp, bc = s[0] ^ t[0], s[2] + t[2], man.bit_length()
        n = bc - prec
        if n <= 0:  # the product of odd mantissas is odd
            return sign, man, exp, bc
        t = man >> (n - 1)
        man = (t >> 1) + 1 if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)) else t >> 1
        exp += n
        if not man & 1:
            n = (man & -man).bit_length() - 1
            man >>= n
            exp += n
        return sign, man, exp, man.bit_length()

    def div(s, t):
        ssign, sman, sexp, sbc = s
        tsign, tman, texp, tbc = t
        if not sman or tman < 2:  # a zero, inf or nan, or a divisor that is a power of two
            return mpf_div(s, t, prec, round_nearest)
        extra = prec - sbc + tbc + 5
        if extra < 5:
            extra = 5
        x = sman << extra
        man = x // tman
        n = man.bit_length() - prec  # at least 5: extra leaves prec + 5 bits
        t = man >> (n - 1)
        man = ((t >> 1) + 1 if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1) or man * tman != x)
               else t >> 1)
        exp = sexp - texp - extra + n
        if not man & 1:
            n = (man & -man).bit_length() - 1
            man >>= n
            exp += n
        return ssign ^ tsign, man, exp, man.bit_length()

    def divdiff(s, t, d):
        """(s - t) / d with the bits of ``div(sub(s, t), d)``.

        The aligned difference is rounded once, as ``sub`` rounds it, and
        divided without its trailing zeros stripped: with a divisor
        mantissa of at least 2 bits and a difference of at most prec + 1,
        the shift ``extra`` is at least 6, above div's clamp at 5, so the
        dividend ``man << extra`` and the quotient's exponent are those of
        the stripped mantissa.  Any other case is the composition of the
        two kernels.
        """
        ssign, sman, sexp, _ = s
        tsign, tman, texp, _ = t
        dsign, dman, dexp, dbc = d
        offset = sexp - texp
        # a zero, inf or nan, exponents far apart, or a divisor that is a power of two
        if not (sman and tman and dman > 1 and -100 <= offset <= 100):
            return div(sub(s, t), d)
        if offset > 0:
            sman <<= offset
            sexp = texp
        elif offset:
            tman <<= -offset
        if ssign != tsign:
            man = sman + tman
        else:
            man = sman - tman
            if man < 0:
                ssign, man = ssign ^ 1, -man
            elif not man:  # 0 / d for a finite nonzero d
                return fzero
        n = man.bit_length() - prec
        if n > 0:
            t = man >> (n - 1)
            man = (t >> 1) + 1 if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)) else t >> 1
            sexp += n
        extra = prec - man.bit_length() + dbc + 5
        x = man << extra
        man = x // dman
        n = man.bit_length() - prec
        t = man >> (n - 1)
        man = ((t >> 1) + 1 if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1) or man * dman != x)
               else t >> 1)
        exp = sexp - dexp - extra + n
        if not man & 1:
            n = (man & -man).bit_length() - 1
            man >>= n
            exp += n
        return ssign ^ dsign, man, exp, man.bit_length()

    def sqrt(s):
        sign, man, exp, bc = s
        if exp & 1:
            exp, man, bc = exp - 1, man << 1, bc + 1
        shift = max(4, 2 * prec - bc + 4)
        shift += shift & 1
        # a negative, zero, inf or nan operand, an exact power of 4, or a radicand
        # past 2^600, where mpmath's pure-Python sqrtrem switches algorithm
        if sign or man < 2 or bc + shift > 600:
            return mpf_sqrt(s, prec, round_nearest)
        x = man << shift
        man = math.isqrt(x)
        n = man.bit_length() - prec  # at least 2: shift leaves 2 * prec + 4 bits
        t = man >> (n - 1)
        man = ((t >> 1) + 1 if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1) or man * man != x)
               else t >> 1)
        exp = ((exp - shift) >> 1) + n
        if not man & 1:
            n = (man & -man).bit_length() - 1
            man >>= n
            exp += n
        return 0, man, exp, man.bit_length()

    return {"add": add, "sub": sub, "mul": mul, "div": div, "divdiff": divdiff, "sqrt": sqrt}


def _raw_arithmetic(ctx: MPContext, precision: Precision) -> LoopArithmetic:
    """Raw ``libmp`` tuples at the precision and rounding of the mpf operators."""
    mpf, max_exp2 = ctx.mpf, precision.max_exp2

    def lift(x):
        return x._mpf_ if type(x) is mpf else None

    def in_range(x):
        # a nonzero mantissa is finite with ctx.mag(x) = exp + bc; fzero has mag -inf
        return x[1] and x[2] + x[3] <= max_exp2 or x == fzero

    prec, rnd = ctx._prec_rounding
    kernels = _mpf_kernels(prec, rnd)
    if rnd == round_nearest and BACKEND == "python":  # under gmpy2 mpmath's own kernels run in C
        kernels.update(_nearest_kernels(prec))
    return LoopArithmetic(lift=lift, lower=ctx.make_mpf, in_range=in_range, zero=fzero, one=fone,
                          from_int=from_int, neg=mpf_neg, **kernels)


def _float_arithmetic(precision: Precision) -> LoopArithmetic:
    """Binary64 floats on their native operators and mpmath's kernels at 53 bits."""

    def lift(x):
        return x if type(x) is float else None

    # every finite float is in a range that reaches binary64's 2^1024
    in_range = math.isfinite if precision.max_exp2 >= 1024 else _never
    return LoopArithmetic(lift=lift, lower=_same, in_range=in_range, zero=0.0, one=1.0,
                          from_int=float, neg=operator.neg, **_OPERATORS, pow=_float_pow,
                          sqrt=_float_sqrt, exp=_float_exp, loggamma=_float_loggamma)


def _native_arithmetic(ctx) -> LoopArithmetic:
    """Any value on the context's own operators, every value range-checked by check_range."""
    return LoopArithmetic(lift=_same, lower=_same, in_range=_never, zero=ctx.zero, one=ctx.one,
                          from_int=_same, neg=None, **_OPERATORS, pow=ctx.power, sqrt=ctx.sqrt,
                          exp=ctx.exp, loggamma=ctx.loggamma)


def loop_arithmetic(ctx, values=()) -> LoopArithmetic:
    """The operations of a hot loop over *values* of *ctx*.

    When every one of *values* is a real scalar of the context (an ``mpf``
    of an ``MPContext``, a float of a :class:`Binary64Context`), this is
    the context's real arithmetic: raw ``libmp`` tuples under an
    ``MPContext``, floats under binary64.  Otherwise (a complex value, an
    int, another context's ``mpf``) it is the native arithmetic, which
    lifts every value as is, keeps ints as ints, and range-checks each
    value through :func:`check_range`.  A loop whose ``lift`` returns None
    switches to ``loop_arithmetic(ctx, [that value])``.
    """
    precision = precision_of(ctx)
    if isinstance(ctx, MPContext):
        if all(type(v) is ctx.mpf for v in values):
            return _raw_arithmetic(ctx, precision)
    elif isinstance(ctx, Binary64Context):
        if all(type(v) is float for v in values):
            return _float_arithmetic(precision)
    return _native_arithmetic(ctx)


def make_context(precision: Precision):
    """Return the arithmetic context for *precision*.

    A preset that fits IEEE binary64 gets a :class:`Binary64Context`,
    every other one an mpmath ``MPContext``.  Contexts are cached per
    precision and must be treated as read-only; all rounding happens at
    ``precision.mantissa_bits`` significant bits.
    """
    with _context_lock:
        ctx = _context_cache.get(precision)
        if ctx is None:
            if precision.mantissa_bits == 53 and precision.max_exp10 <= 308:
                ctx = Binary64Context(precision)
            else:
                ctx = _mpmath_context(precision)
            _context_cache[precision] = ctx
        return ctx


def precision_of(ctx) -> Precision:
    """The :class:`Precision` a context was created for by :func:`make_context`.

    Any other context (``mpmath.mp``, a bare ``MPContext``) raises
    ``TypeError``: without its precision no range or NaN check could run.
    """
    try:
        return ctx._fracsum_precision
    except AttributeError:
        raise TypeError(
            f"{type(ctx).__name__} context has no fracsum precision; "
            f"make one with fracsum.make_context"
        ) from None


def resolve_scalar(spec, ctx):
    """Materialize a scalar spec: a callable of ctx, a number, or None."""
    if spec is None:
        return None
    if callable(spec):
        return spec(ctx)
    return ctx.convert(spec)


def check_range(x, ctx, where: str, *args) -> None:
    """Raise if x is NaN or |x| exceeds the exponent range of ctx's precision.

    ``where`` names x in the message.  With *args* it is a %-format that is
    filled in only when raising, so per-entry callers pay no formatting.
    Overflow raises :class:`RangeOverflowError`, NaN :class:`NotANumberError`.
    """
    precision = precision_of(ctx)
    # mag alone is not enough: it is NaN for a real NaN but finite for mpc(1, nan)
    if ctx.mag(x) <= precision.max_exp2 and not ctx.isnan(x):
        return
    label = where % args if args else where
    if ctx.isnan(x):
        raise NotANumberError(f"{label} is NaN")
    raise RangeOverflowError(
        f"{label} exceeds the {precision.name} exponent range "
        f"(|value| > 1e{precision.max_exp10})"
    )
