"""Precision presets, their arithmetic contexts and range checks.

Scalars are created through a context tied to a :class:`Precision`.  A
preset that fits IEEE binary64 (53 mantissa bits, decimal range at most
1e308, i.e. ``DOUBLE``) gets a :class:`Binary64Context`, whose real
scalars are Python floats and whose every function is mpmath's at 53
bits: ``convert`` and ``mpf`` as float fast paths, ``sqrt``, ``power``,
``exp`` and ``loggamma`` through the kernels of its float arithmetic
where they can, and all others (``log``, ``gamma``, ...) through a
private 53-bit ``MPContext``.
Every other preset gets an mpmath ``MPContext`` with ``mpf`` reals.
Complex scalars are mpmath ``mpc`` values under both, and the roundoff
unit u = 2^(1 - mantissa_bits) is ``ctx.eps``.  Any other number enters
a context through the context's own ``convert``.  Nothing in this
package reads or mutates the global ``mpmath.mp`` state, so computations
at different precisions can run side by side (and concurrently).

The hot loops (the W-recursion of ``build_table``, the running partial
sum of ``sums_and_terms``, which lowers to a context scalar only the sums
it keeps) and the builtin terms take their scalar operations from
:func:`loop_arithmetic`, bound to the context's precision, which
must round to nearest.  Under an ``MPContext`` real values run as raw
``libmp`` tuples on the precision's kernel table, :func:`_raw_kernels`,
with the bits of the ``mpf`` operators and functions.  On mpmath's
pure-Python backend ``+``, ``-``, ``*``, ``/``, ``sqrt`` and the
W-recursion's scan of ``(x - y) / d`` along an antidiagonal take
mpmath's integer steps and round once, half to even, as mpmath does;
``exp`` and the ``log`` inside ``pow`` round a closer, table-driven value
outside a narrow band around each rounding midpoint, and ``pow`` takes
``mpf_pow``'s steps on these kernels.  Every other case is mpmath's own
function, as are all kernels under gmpy2 and ``loggamma`` always.
Binary64 floats keep their native operators and ``math.sqrt`` and take
``pow``, ``exp`` and ``loggamma`` from the table at 53 bits, in the one
float arithmetic per precision that the binary64 context's functions
run too; its ``pow`` converts an exponent and picks its kernel once
while the calls pass the same one, and takes an integral base from its
int to the float.  Complex values keep their native operators and
functions.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, NamedTuple

from mpmath.ctx_mp import MPContext
from mpmath.libmp import (
    BACKEND,
    MPZ,
    from_float,
    from_int,
    fone,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_e,
    mpf_exp,
    mpf_log,
    mpf_loggamma,
    mpf_mul,
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
_kernel_cache: dict[int, dict] = {}
_float_cache: dict[Precision, LoopArithmetic] = {}
_build_lock = threading.RLock()
_MPZ_IS_INT = MPZ is int  # on mpmath's python backend; under gmpy2 MPZ is mpz


def _once(cache: dict, key, build):
    """``cache[key]``, made by ``build(key)`` once for all threads; a build may call ``_once``."""
    value = cache.get(key)
    if value is None:
        with _build_lock:
            value = cache.get(key)
            if value is None:
                value = cache[key] = build(key)
    return value


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
    through ``from_int``, which has its small values at hand.  On mpmath's
    python backend a mantissa is an int as it is; under gmpy2 it is an mpz.
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
    return sign, man if _MPZ_IS_INT else MPZ(man), exp, man.bit_length()


def _float_sqrt(x):
    return math.sqrt(x) + 0.0  # sqrt(-0.0) is -0.0, and mpmath's is its one zero


def _kernel_function(name, field, types):
    """Binary64Context's *name*: its float arithmetic's *field* on arguments of the *types*.

    A keyword, another type, or a kernel that raises (a complex result, a
    pole) calls mpmath's function at 53 bits, its real result demoted.
    """

    def function(self, *args, **kwargs):
        if not kwargs and all(type(x) in types for x in args):
            try:
                return getattr(self._float, field)(*args)
            except (ArithmeticError, ValueError):
                pass
        return self._demote(getattr(self._mp, name)(*args, **kwargs))

    function.__name__ = name
    return function


class Binary64Context:
    """IEEE binary64 arithmetic that gives the same bits as mpmath at 53 bits.

    Real scalars are Python floats.  ``+ - * /``, ``abs`` and comparisons
    run natively: IEEE round-to-nearest-even is mpmath's 53-bit rounding
    ``"n"``.  ``convert`` and ``mpf`` return a float or int as a float
    without mpmath.  ``power``, ``exp``, ``loggamma`` and ``sqrt`` run the
    kernels of :func:`loop_arithmetic`'s float arithmetic, built once at
    the first loop or kernel call, on floats and ints (floats only for
    ``sqrt``).  They serve a term expression, a user's term function,
    ``h`` of a trigonometric pair and the native loop arithmetic; the hot
    loops and the builtin terms call that arithmetic's kernels directly.
    Where a kernel raises (a complex result, a pole) or does not take the
    arguments, and for every other function and constant (``log``,
    ``mag``, ``isnan``, ``dps``, ..., through ``__getattr__``), the context
    is a private 53-bit ``MPContext``, with a real result turned into its
    float.  Complex scalars are that context's ``mpc`` values, and it
    renders ``nstr``.  Unlike that context, values end at 2^1024 (overflow
    gives ``inf``) and lose bits below 2^-1022.
    """

    zero = 0.0
    one = 1.0
    inf = math.inf
    ninf = -math.inf
    nan = math.nan
    eps = 2.0 ** -52
    pi = to_float(mpf_pi(53, round_nearest))
    e = to_float(mpf_e(53, round_nearest))

    # math.sqrt rounds an int past 2^53 before its root, so sqrt's kernel takes floats only
    power = _kernel_function("power", "pow", (float, int))
    sqrt = _kernel_function("sqrt", "sqrt", (float,))
    exp = _kernel_function("exp", "exp", (float, int))
    loggamma = _kernel_function("loggamma", "loggamma", (float, int))

    def __init__(self, precision: Precision):
        self._mp = _mpmath_context(precision)
        self._fracsum_precision = precision

    @property
    def _float(self) -> LoopArithmetic:
        """The float arithmetic of the context's precision, built at its first use."""
        return _once(_float_cache, self._fracsum_precision, _float_arithmetic)

    def __getattr__(self, name):
        # only names not found on the instance or the class get here
        if name.startswith("_"):
            raise AttributeError(name)
        value = getattr(self._mp, name)
        if hasattr(value, "_mpf_") or not callable(value):
            return self._demote(value)

        def method(*args, **kwargs):
            return self._demote(value(*args, **kwargs))

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
    form of the int k (on floats, exact for |k| <= 2^53).  ``abs(x)`` is
    the context's ``convert(abs(x))``.  ``build_table`` mirrors sign runs
    on a ``real`` arithmetic: ``mul(from_int(-1), x)`` is -x, exact, and
    both roundings are sign-symmetric, so ``sub(-x, -y)`` is -``sub(x, y)``
    and ``div(-x, d)`` is -``div(x, d)`` bit for bit, up to the sign of a
    binary64 zero.  The native arithmetic is not ``real``: its values may
    be complex, and an ``mpc`` with a zero imaginary part compares equal to
    an ``mpf``, so no loop value there is taken as another's negation.

    The kernels take their operands only: the arithmetic is bound to the
    precision of its context, which rounds to nearest.  ``add(x, y)``,
    ``sub``, ``mul``, ``div``, ``pow``, ``sqrt(x)``, ``exp`` and
    ``loggamma`` return the bits of the context's own ``+``, ``-``, ``*``,
    ``/``, ``power``, ``sqrt``, ``exp`` and ``loggamma``, on raw tuples
    through :func:`_raw_kernels`.  ``scan(X, x, dens, start)`` extends a
    W-recursion antidiagonal: ``X[k], x = x, div(sub(x, X[k]), dens[k])``
    for k = start, ..., len(dens) - 1; it returns x and the first k whose x
    ``in_range`` refuses, or None (raw entries it stores may keep trailing
    zeros).  The real arithmetics take ``pow``, ``sqrt`` and ``loggamma``
    only where the result is real (terms call them on positive integers):
    where the context would return a complex value, they raise.
    """

    lift: Callable
    lower: Callable
    in_range: Callable
    zero: object
    one: object
    from_int: Callable
    real: bool
    abs: Callable
    scan: Callable
    add: Callable
    sub: Callable
    mul: Callable
    div: Callable
    pow: Callable
    sqrt: Callable
    exp: Callable
    loggamma: Callable


def _same(x):
    return x


def _from_int(n):
    """``from_int(n)``'s raw tuple, with ``int.bit_length`` in place of mpmath's steps."""
    if not n:
        return fzero
    sign = 0
    if n < 0:
        sign, n = 1, -n
    exp = (n & -n).bit_length() - 1
    n >>= exp
    return sign, n, exp, n.bit_length()


def _never(x):
    return False


def _in_raw_range(x, top):
    # a nonzero mantissa is finite with ctx.mag(x) = exp + bc; fzero has mag -inf
    return x[1] and x[2] + x[3] <= top or x == fzero


def _operator_scan(in_range):
    """The float and the native arithmetic's scan: the values' own operators."""

    def scan(X, x, dens, start):
        bad = None
        for k, d in enumerate(dens[start:], start):
            X[k], x = x, (x - X[k]) / d
            if bad is None and not in_range(x):
                bad = k
        return x, bad

    return scan


# the basic operations of the float and the native arithmetic: the values' own operators
_OPERATORS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
              "div": operator.truediv}


def _mpf_kernels(prec):
    """mpmath's kernels at prec bits, rounding to nearest, by field name (pow's log at prec + 10)."""
    rnd = round_nearest

    def scan(X, x, dens, start, top):
        bad = None
        for k, d in enumerate(dens[start:], start):
            X[k], x = x, mpf_div(mpf_sub(x, X[k], prec, rnd), d, prec, rnd)
            if bad is None and not _in_raw_range(x, top):
                bad = k
        return x, bad

    return {
        "scan": scan,
        "add": lambda x, y: mpf_add(x, y, prec, rnd),
        "sub": lambda x, y: mpf_sub(x, y, prec, rnd),
        "mul": lambda x, y: mpf_mul(x, y, prec, rnd),
        "div": lambda x, y: mpf_div(x, y, prec, rnd),
        "pow": lambda x, y: mpf_pow(x, y, prec, rnd),
        "sqrt": lambda x: mpf_sqrt(x, prec, rnd),
        "exp": lambda x: mpf_exp(x, prec, rnd),
        "log": lambda x: mpf_log(x, prec + 10, rnd),
        "loggamma": lambda x: mpf_loggamma(x, prec, rnd),
    }


# The widest exponent offset at which add and sub form the exact aligned sum.
# Past an offset of 100 mpmath's mpf_add perturbs the larger operand by one
# unit below its prec + 4 bits instead; for operands of at most prec + 4
# bits that rounds as the exact sum does, so the bits are the same.
_SUM_CAP = 512


def _nearest_kernels(prec):
    """Round-to-nearest kernels on raw tuples at prec >= 1 bits, by field name.

    Each forms the mantissa the mpmath function of its name forms (the
    exact sum or product, mpmath's shifted quotient or root), rounds it
    once half to even, as mpmath's normalize does, and strips its trailing
    zeros; the bit count is then the mantissa's bit length.  A nonzero
    remainder of div and sqrt is mpmath's sticky bit, tested only where it
    decides a tie.  Every case outside the common one is mpmath's own
    function at round-to-nearest, result or exception.  :func:`_raw_kernels`
    holds ``exp`` and ``pow``.
    """

    wide = prec + 4

    def summation(negate):
        mpf_f = mpf_sub if negate else mpf_add

        def add(s, t):
            ssign, sman, sexp, sbc = s
            tsign, tman, texp, tbc = t
            offset = sexp - texp
            # a zero, inf or nan; exponents more than _SUM_CAP bits apart; or, past mpmath's
            # offset of 100, a mantissa wider than prec + 4 bits, which mpmath may perturb
            if not (sman and tman and (-100 <= offset <= 100 or (
                    -_SUM_CAP <= offset <= _SUM_CAP and sbc <= wide and tbc <= wide))):
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

    def scan(X, x, dens, start, top):
        """``X[k], x = x, div(sub(x, X[k]), dens[k])`` for k >= start; see LoopArithmetic.

        Each aligned difference is rounded once, as ``sub`` rounds it, and
        divided without its trailing zeros stripped: with a divisor
        mantissa of at least 2 bits and a difference of at most prec + 1,
        the shift ``extra`` is at least 6, above div's clamp at 5, so the
        dividend ``man << extra`` and the quotient's exponent are those of
        the stripped mantissa.  Only the x returned is stripped: every step
        here rounds operands of at most prec + 1 bits as their stripped
        forms.  Any other step is the composition of the two kernels.  The
        range is |x| below 2^top, as ``_in_raw_range``.
        """
        bad = None
        for k, d in enumerate(dens[start:], start):
            y = X[k]
            X[k] = x
            xsign, xman, xexp, _ = x
            ysign, yman, yexp, _ = y
            dsign, dman, dexp, dbc = d
            offset = xexp - yexp
            # a zero, inf or nan, exponents far apart, or a divisor that is a power of two
            if not (xman and yman and dman > 1 and -100 <= offset <= 100):
                x = div(sub(x, y), d)
                if bad is None and not _in_raw_range(x, top):
                    bad = k
                continue
            if offset > 0:
                xman <<= offset
                xexp = yexp
            elif offset:
                yman <<= -offset
            if xsign != ysign:
                man = xman + yman
            else:
                man = xman - yman
                if man < 0:
                    xsign, man = xsign ^ 1, -man
                elif not man:  # 0 / d for a finite nonzero d
                    x = fzero
                    continue
            n = man.bit_length() - prec
            if n > 0:
                t = man >> (n - 1)
                man = (t >> 1) + 1 if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)) else t >> 1
                xexp += n
            extra = prec - man.bit_length() + dbc + 5
            w = man << extra
            man = w // dman
            n = man.bit_length() - prec
            t = man >> (n - 1)
            man = ((t >> 1) + 1 if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1) or man * dman != w)
                   else t >> 1)
            exp = xexp - dexp - extra + n
            bc = man.bit_length()
            x = xsign ^ dsign, man, exp, bc
            if exp + bc > top and bad is None:
                bad = k
        sign, man, exp, bc = x
        if man and not man & 1:
            n = (man & -man).bit_length() - 1
            x = sign, man >> n, exp + n, bc - n
        return x, bad

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

    return {"scan": scan, "add": add, "sub": sub, "mul": mul, "div": div, "sqrt": sqrt}


def _rounded(man, exp, prec):
    """The positive raw mpf of man * 2^exp rounded to prec bits half to even, as mpmath's normalize."""
    n = man.bit_length() - prec
    if n > 0:
        t = man >> (n - 1)
        man = (t >> 1) + 1 if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)) else t >> 1
        exp += n
    if not man & 1:
        n = (man & -man).bit_length() - 1
        man >>= n
        exp += n
    return 0, man, exp, man.bit_length()


_BAND = 2  # a value within _BAND * 2^-8 ulp of a rounding midpoint falls back to mpmath's function
_EXP_MAX_MAG = 20  # the fast range of exp: |x| < 2^20
_LOG_MAX_MAG = 1 << 20  # the fast range of log: s = y * 2^mag, y in [1, 2), |mag| <= 2^20
_BINARY64_MAX_F = 1000  # a binary64 tail at more fraction bits could underflow
_KERNELS = LoopArithmetic._fields[LoopArithmetic._fields.index("add"):]  # add to loggamma


def _series_split(F, bits, power, most):
    """(terms, j) for a series at F fraction bits whose term i is at most 2^-bits(i).

    terms is the first count whose next term is below 2^-(F-1).  The terms
    from j on, at most *most* of them, are summed in binary64: their sum is
    about term j, a power x^power(j) of the series' variable x times a
    polynomial, whose relative error there is at most (power(j) + 3) *
    2^-53 (x's rounding, raised to the power, and the steps after it), and
    j is the first index from terms - most on at which the product of the
    two is below 2^-(F+1).  Past ``_BINARY64_MAX_F`` fraction bits j is
    terms: no term is binary64.
    """
    terms = 1
    while bits(terms) <= F - 1:
        terms += 1
    j = max(1, terms - most)
    while j < terms and (F > _BINARY64_MAX_F or bits(j) + 53 - math.log2(power(j) + 3) < F + 1):
        j += 1
    return terms, j


def _raw_kernels(prec) -> dict:
    """The round-to-nearest raw kernels at prec >= 53 bits, by name, with the bits of mpmath's.

    The nine of :class:`LoopArithmetic`, ``scan`` with a fifth operand top,
    the largest mag in range, ``log``, the ``mpf_log(s, prec + 10)`` inside
    ``pow``, ``half_pow``, the half-integer core of ``pow``, and
    ``exp_fixed`` for the float ``exp`` and ``pow``.  On mpmath's python
    backend the basic ones are :func:`_nearest_kernels`' and exp, log and
    pow those below; under gmpy2, whose kernels run in C, the nine and
    ``log`` are mpmath's.  ``loggamma`` is ``mpf_loggamma`` under both.

    ``exp_fixed(X)`` takes x = X * 2^-F at F = prec + 22 fraction bits
    and |x| < 2^20.  It reduces x = k ln2 / 4096 + r with |r| < 2^-13.5,
    takes 2^(k/4096) from two 64-entry tables, 2^(j/64) and 2^(j/4096),
    and exp(r) from its Taylor series to a first omitted term below
    2^-(F-1) (r^5/5! at 53 bits, r^9/9! at 113).  1 + r and the terms up
    to r^(j-1)/(j-1)! run in ints at F bits; the terms from r^j/j! on (j
    from :func:`_series_split`: 2 at 53 bits, 6 at 113) are summed in
    binary64 within 2^-(F+1) and truncated to F bits.  The product E has a
    relative error below 2^-(prec+17), at most about 8 units of 2^-F: the
    table entries and the Taylor coefficients are rounded at F bits (1),
    ln2 at F + 24 (the reduction's error below 1.2 with its truncation),
    the int steps truncate (2), the binary64 tail and its truncation (1.5)
    and the omitted terms (2); measured at most 2^-(prec+20.6) at 53, 113,
    200, 400 and 700 bits.  ``exp_fixed`` returns (man, exp) of E
    rounded to prec bits, man not stripped, or None when E lies within
    2^-7 ulp of a rounding midpoint (the band).  mpmath's ``mpf_exp``
    rounds its own fixed-point value once, and that value's relative error
    measured at most 2^-(prec+10.5) at 53, 113, 200, 400 and 700 bits
    against a reference 400 bits wider, below 2^-9.5 ulp.  Outside the
    band E, mpmath's value and exp(x) are on the same side of every
    midpoint, so the bits are mpmath's.  ``exp(s)`` is the raw adapter: a
    zero, inf or nan, |s| below 2^-(prec+8) (where mpmath rounds 1 plus a
    perturbation), |s| past the fast range, an integer s at a precision
    above 600 bits (where mpmath raises e to an integer power) and every
    None are ``mpf_exp`` itself.

    ``log(s)`` rounds to w = prec + 10 bits a value L at G = w + 14
    fraction bits.  It writes s = y * 2^mag with y in [1, 2) and takes
    log s = mag ln2 + log(y c) - log c, where c = g / 2^16 is the 16-bit
    inverse of the midpoint of y's 1/256 interval (a 256-entry table of g
    and -log c at G bits), so y c = 1 + z is exact and |z| <= 2^-9.
    log(1 + z) = 2 atanh(v/2) with v = 2z / (2 + z), the series of
    v^(2i+1) / ((2i+1) 4^i), to a first omitted term below 2^-(G-1), split
    as exp's: at 63 bits v in ints and v^3 to v^7 in binary64, at 123 bits
    v to v^7 and v^9 to v^13.  Apart from mag ln2, L's error is at most
    about 8 units of 2^-G: the truncations of y and v (2), the int steps
    (2), the table entry (1/2), the binary64 tail and its truncation (1.5)
    and the omitted terms (2); as |L| >= ln2, that is below 2^-11 ulp of L
    at w bits.  ln2 is rounded at G bits, so mag ln2 is off by at most
    |mag| / 2 units, below 2^-13.4 ulp of L, whose ulp grows with |mag|.
    Measured, L's error is at most 2^-12.4 ulp at 63, 123 and 210 bits
    against a reference at 600.  mpmath's ``mpf_log`` rounds once a
    fixed-point value at w + 20 bits whose error, some units of its last
    place plus |mag| units from its ln2, is below 2^-16 ulp of L (measured
    at most 2^-16.5).  Outside the band of ``exp``, 2^-7 ulp around a
    midpoint, L, mpmath's value and log s are on the same side of every
    midpoint, so the bits are mpmath's.  A zero, inf, nan, negative or
    power-of-two s, s in (1/2, 2) (where mpmath adds bits for the
    cancellation), |mag| past 2^20 and every L in the band are ``mpf_log``
    itself.

    ``pow(s, t)`` takes the steps of ``mpf_pow``: for t = +1/2 the
    ``sqrt`` kernel at prec bits; for any other half-integer t = +-k/2
    ``half_pow(man, exp, k, negative)``, the one int-level core of those
    steps, which takes s as man * 2^exp at any precision (the float
    ``pow`` hands it an integral base as it is): the square root at
    prec + 10 bits and the exact k-th power of it rounded once, at
    prec + 5 bits for a negative t (then 1 divided by it) and at prec
    bits otherwise, or for t = -1/2 1 divided by the root; for any other
    fractional t, ``exp`` of t times ``log(s)``.  An integer t, a zero,
    inf or nan, a power of two, a negative base (mpmath raises
    ``ComplexResult``) and a root whose power could reach 1000 bits are
    ``mpf_pow`` itself.

    Built once per precision by :func:`_once`, with its tables; they come
    from a private ``MPContext``.
    """
    return _once(_kernel_cache, prec, _build_raw_kernels)


def _build_raw_kernels(prec) -> dict:
    floor, trunc = math.floor, math.trunc
    F = prec + 22
    one = 1 << F
    w = prec + 10  # the precision of log
    G = w + 14
    mp = MPContext()
    mp.prec = G + 40

    def fixed(x, bits):
        return int(mp.nint(mp.ldexp(x, bits)))

    ln2 = fixed(mp.ln2, F + 24)
    coarse = [fixed(mp.power(2, mp.mpf(j) / 64), F) for j in range(64)]
    fine = [fixed(mp.power(2, mp.mpf(j) / 4096), F) for j in range(64)]
    # exp(r) = 1 + r + the terms r^i/i! for i = 2, ..., j - 1 in ints at F bits (Horner, from
    # 1/(j-1)!) + the rest in binary64, scaled by 2^F, for i = j, ..., j + 3: the terms past
    # the first omitted one only add accuracy (j >= 2: binary64 is too coarse for r itself)
    terms, j = _series_split(F, lambda i: 13.5 * i + math.log2(math.factorial(i)), _same, 4)
    taylor = [((one << 1) // math.factorial(i) + 1) >> 1 for i in range(j - 1, 1, -1)]
    top, taylor = taylor[:1], taylor[1:]  # no top at j = 2
    binary64 = j < terms
    if binary64:  # else past _BINARY64_MAX_F, where these stay unused
        unit = 2.0 ** -F
        b0, b1, b2, b3 = (math.ldexp(1 / math.factorial(i), F) for i in range(j, j + 4))
    cut = F - 40
    to_k = 4096 / math.log(2) / 2.0 ** 40  # k from x's top 40 fraction bits
    width, edge = 2 * _BAND, 128 - _BAND  # the band is [edge, edge + width) mod 256
    top_bits = prec + 8
    scale = 3 * F - 8  # E is the product of three values at F bits

    def exp_fixed(X):
        k = floor((X >> cut) * to_k + 0.5)
        r = X - (k * ln2 >> 36)
        p = one + r
        if top:
            q = top[0]
            for c in taylor:
                q = c + (q * r >> F)
            p += (q * r >> F) * r >> F
        if binary64:
            y = r * unit
            p += trunc((b0 + y * (b1 + y * (b2 + y * b3))) * y ** j)
        E = coarse[k >> 6 & 63] * fine[k & 63] * p
        n = E.bit_length() - top_bits
        h = E >> n  # prec + 8 bits: the low 8 are E's position within an ulp
        if (h - edge) & 255 < width:
            return None
        return (h + 128) >> 8, (k >> 12) - scale + n

    low = -(prec + 8)
    integral_wide = prec > 600

    def exp(s):
        sign, man, e, bc = s
        mag = e + bc
        if not man or mag > _EXP_MAX_MAG or mag <= low or (integral_wide and e >= 0):
            return mpf_exp(s, prec, round_nearest)
        shift = e + F
        X = man << shift if shift >= 0 else man >> -shift
        result = exp_fixed(-X if sign else X)
        if result is None:
            return mpf_exp(s, prec, round_nearest)
        man, e = result
        if man & 1:  # then of prec bits: only 2^prec, which is even, has more
            return 0, man, e, prec
        n = (man & -man).bit_length() - 1
        man >>= n
        return 0, man, e + n, man.bit_length()

    # log: y in [1 + i/256, 1 + (i+1)/256) times c_i = g_i / 2^16, g_i the int nearest to
    # 2^16 / (1 + (i + 1/2)/256), is 1 + z; the table holds (g_i, -log c_i at G bits)
    inverses = [((1 << 26) // (513 + 2 * i) + 1) >> 1 for i in range(256)]
    reduce = [None] * 256 + [(g, fixed(16 * mp.ln2 - mp.log(g), G)) for g in inverses]
    z_max = max(abs((256 + i + d) * g - (1 << 24)) for i, g in enumerate(inverses) for d in (0, 1))
    v_bits = -math.log2(z_max / ((1 << 24) - z_max / 2))  # |v| = |2z / (2 + z)| <= 2^-v_bits
    ln2_log = fixed(mp.ln2, G)
    # log(1 + z) = 2 atanh(v/2), the sum of v^(2i+1) / ((2i+1) 4^i): v (1 + v^2 (1/12 + ...
    # + v^(2i-2) / ((2i+1) 4^i))) for i < log_j in ints at G bits (Horner, from i = log_j - 1)
    # + the terms for i = log_j, log_j + 1, log_j + 2 in binary64, scaled by 2^G, as in exp_fixed
    log_terms, log_j = _series_split(
        G, lambda i: v_bits * (2 * i + 1) + math.log2((2 * i + 1) * 4 ** i), lambda i: 2 * i + 1, 3)
    series = [((1 << (G + 1)) // ((2 * i + 1) * 4 ** i) + 1) >> 1 for i in range(log_j - 1, 0, -1)]
    log_top, series = series[:1], series[1:]  # no top at log_j = 1
    log_binary64, power = log_j < log_terms, 2 * log_j + 1
    if log_binary64:
        log_unit = 2.0 ** -G
        d0, d1, d2 = (math.ldexp(1 / ((2 * i + 1) * 4 ** i), G) for i in range(log_j, log_j + 3))
    y_bits, index_cut, log_top_bits, log_scale = G + 1, G - 8, w + 8, G - 8
    z_one, two, mag_max = 1 << (G + 16), 1 << (G + 17), _LOG_MAX_MAG

    def log(s):
        sign, man, e, bc = s
        mag = e + bc - 1  # s = y * 2^mag with y in [1, 2)
        # a negative, zero, inf, nan or power-of-two s, s in (1/2, 2), or |mag| past 2^20
        if sign or man < 2 or not (1 <= mag <= mag_max or -mag_max <= mag <= -2):
            return mpf_log(s, w, round_nearest)
        shift = y_bits - bc
        Y = man << shift if shift >= 0 else man >> -shift  # y at G bits
        inverse, L = reduce[Y >> index_cut]  # by y's top 9 bits
        Z = Y * inverse - z_one  # z at G + 16 bits, exact
        V = (Z << y_bits) // (two + Z)  # v at G bits
        if log_top:
            W = V * V >> G
            p = log_top[0]
            for c in series:
                p = c + (p * W >> G)
            L += (p * W >> G) * V >> G
        L += mag * ln2_log + V
        if log_binary64:
            v = V * log_unit
            u = v * v
            L += trunc((d0 + u * (d1 + u * d2)) * v ** power)
        sign = 0
        if mag < 0:  # then L < -ln2
            sign = 1
            L = -L
        n = L.bit_length() - log_top_bits
        h = L >> n  # w + 8 bits, as in exp_fixed
        if (h - edge) & 255 < width:
            return mpf_log(s, w, round_nearest)
        man = (h + 128) >> 8
        if man & 1:  # then of w bits: only 2^w, which is even, has more
            return sign, man, n - log_scale, w
        n -= log_scale
        e = (man & -man).bit_length() - 1
        man >>= e
        return sign, man, n + e, man.bit_length()

    nearest = _nearest_kernels(prec)
    sqrt, isqrt, root_prec = nearest["sqrt"], math.isqrt, prec + 10
    root_bits = 2 * root_prec + 4  # sqrt's radicand: a root of at least root_prec + 2 bits

    def half_pow(man, e, k, negative):
        """(man, e) of (man * 2^e)^(k/2), or ^(-k/2) when *negative*, by mpf_pow's steps.

        man >= 2 is any int, k an odd power (k = 1 only when negative).
        The root is rounded at prec + 10 bits, as the ``sqrt`` kernel
        rounds it (the floor root and a remainder test, exact at every
        size, as mpmath's ``sqrtrem``); its exact k-th power is rounded at
        prec + 5 bits when negative, else at prec; a negative power is then
        1 divided by it at prec bits, as the ``div`` kernel divides fone.
        Each value is rounded once, half to even, from an exact one, so the
        bits are mpmath's whatever trailing zeros man keeps.  The result's
        man has prec or prec + 1 bits (2^prec) and may be even.  None, for
        the caller's ``mpf_pow``, is a root whose power could reach 1000
        bits, where mpf_pow stops taking it exactly: the root is not
        stripped, so from k = 17 at 53 bits.
        """
        if e & 1:
            e -= 1
            man <<= 1
        shift = root_bits - man.bit_length()
        if shift < 4:
            shift = 4
        shift += shift & 1
        x = man << shift
        man = isqrt(x)
        n = man.bit_length() - root_prec  # at least 2, as in sqrt
        t = man >> (n - 1)
        man = ((t >> 1) + 1 if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1) or man * man != x)
               else t >> 1)
        e = ((e - shift) >> 1) + n
        if k > 1:
            if man.bit_length() * k >= 1000:
                return None
            man **= k
            e *= k
            n = man.bit_length() - (prec + 5 if negative else prec)
            if n > 0:
                t = man >> (n - 1)
                man = (t >> 1) + 1 if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)) else t >> 1
                e += n
            if not negative:
                return man, e
        extra = prec + 4 + man.bit_length()  # div's shift for a one-bit dividend
        x = 1 << extra
        q = x // man
        n = q.bit_length() - prec  # at least 5
        t = q >> (n - 1)
        q = (t >> 1) + 1 if t & 1 and (t & 2 or q & ((1 << (n - 1)) - 1) or q * man != x) else t >> 1
        return q, n - extra - e

    def pow(s, t):
        ssign, sman, sexp, sbc = s
        tsign, tman, texp, tbc = t
        # an integer t, a zero, inf or nan, a power of two, or a negative base
        if texp >= 0 or sman < 2 or not tman or ssign:
            return mpf_pow(s, t, prec, round_nearest)
        if texp == -1:
            if tman == 1 and not tsign:
                return sqrt(s)
            result = half_pow(sman, sexp, tman, tsign)
            if result is None:
                return mpf_pow(s, t, prec, round_nearest)
            return _rounded(*result, prec)
        csign, cman, cexp, _ = log(s)
        man = tman * cman  # the exact product, which mpf_pow hands to mpf_exp
        return exp((tsign ^ csign, man, texp + cexp, man.bit_length()))

    kernels = _mpf_kernels(prec)
    if BACKEND == "python":  # under gmpy2 mpmath's own kernels run in C
        kernels.update(nearest, exp=exp, log=log, pow=pow)
    kernels.update(exp_fixed=exp_fixed, half_pow=half_pow)
    return kernels


def _raw_arithmetic(ctx: MPContext, precision: Precision) -> LoopArithmetic:
    """Raw ``libmp`` tuples on the kernels of the mpf operators' precision."""
    mpf, max_exp2 = ctx.mpf, precision.max_exp2

    def lift(x):
        return x._mpf_ if type(x) is mpf else None

    def in_range(x):  # _in_raw_range(x, max_exp2) without the second call
        return x[1] and x[2] + x[3] <= max_exp2 or x == fzero

    kernels = _raw_kernels(ctx.prec)
    return LoopArithmetic(lift=lift, lower=ctx.make_mpf, in_range=in_range, zero=fzero, one=fone,
                          from_int=_from_int if BACKEND == "python" else from_int, real=True,
                          abs=mpf_abs, scan=partial(kernels["scan"], top=max_exp2),
                          **{name: kernels[name] for name in _KERNELS})


def _float_arithmetic(precision: Precision) -> LoopArithmetic:
    """Binary64 floats on their native operators and ``_raw_kernels(53)``, bound once.

    ``pow``, ``exp`` and ``loggamma`` take floats and ints.  ``pow`` keeps
    the last exponent and its kernel, read and replaced as one tuple by
    every thread: a loop raises its values to one exponent, so each
    exponent object is converted, and its kernel picked, once while it
    stays the last one passed.  On mpmath's python backend the kernel of a
    fractional exponent other than +1/2 takes an integral float base n in
    [3, 2^53) that is no power of two from its int to the float: a
    half-integer exponent through ``half_pow`` at 53 bits, any other
    through the table's ``log`` of n, its exact product with the exponent
    and ``exp_fixed``.  These are the raw ``pow``'s steps and the ``exp``
    adapter's without ``_raw`` of the base, their tuples and ``to_float``:
    ``math.ldexp`` rounds the result as ``to_float`` does, overflow giving
    inf.  Every other base, exponent or backend, a power that ``half_pow``
    leaves to ``mpf_pow`` and a product outside ``exp_fixed``'s range or
    in its band run the raw ``pow`` on ``_raw`` of the base.
    """
    kernels = _raw_kernels(53)
    raw_pow, raw_exp, exp_fixed, raw_loggamma, log, half_pow = (
        kernels["pow"], kernels["exp"], kernels["exp_fixed"], kernels["loggamma"],
        kernels["log"], kernels["half_pow"])
    ldexp = math.ldexp

    def kernel_of(y):
        """x -> x ** y with mpmath's bits at 53 bits, for the one exponent y."""
        t = _raw(y)
        tsign, tman, texp, _ = t

        def fallback(x):
            return to_float(raw_pow(_raw(x), t))

        # an integer, zero, inf or nan exponent, +1/2 (sqrt at 53 bits), or gmpy2's mpf_pow
        if texp >= 0 or not tman or (texp == -1 and tman == 1 and not tsign) or BACKEND != "python":
            return fallback
        half, shift = texp == -1, texp + 75  # exp_fixed takes 75 = 53 + 22 fraction bits

        def kernel(x):
            if type(x) is float and 2.0 < x < 9007199254740992.0 and x.is_integer():  # 2^53
                n = int(x)
                if n & (n - 1):
                    if half:
                        result = half_pow(n, 0, tman, tsign)
                        if result is not None:
                            return ldexp(*result)
                    else:
                        # log n > 1; the table's log and mpf_log read only n's value, so
                        # its tuple may keep trailing zeros
                        _, man, e, _ = log((0, n, 0, n.bit_length()))
                        man *= tman
                        e += shift
                        # exp's fast range: -(53 + 8) < mag <= 20, mag = e - 75 + bit length
                        if 14 < e + man.bit_length() <= 95:
                            X = man << e if e >= 0 else man >> -e
                            result = exp_fixed(-X if tsign else X)
                            if result is not None:
                                try:
                                    return ldexp(*result)
                                except OverflowError:
                                    return math.inf
            return fallback(x)

        return kernel

    last = None, None

    def pow(x, y):
        nonlocal last
        exponent, kernel = last
        if y is not exponent:
            kernel = kernel_of(y)
            last = y, kernel
        return kernel(x)

    def exp(x):
        # a float in exp's fast range enters its core at 75 = 53 + 22 fraction bits
        if type(x) is float and 2.0 ** -61 <= abs(x) < 1048576.0:  # 2^_EXP_MAX_MAG
            n, d = x.as_integer_ratio()
            result = exp_fixed((n << 75) >> (d.bit_length() - 1))
            if result is not None:
                try:
                    return math.ldexp(*result)  # to_float's step, subnormals included
                except OverflowError:
                    return math.inf
        return to_float(raw_exp(_raw(x)))

    def loggamma(x):
        return to_float(raw_loggamma(_raw(x)))

    def lift(x):
        return x if type(x) is float else None

    # every finite float is in a range that reaches binary64's 2^1024
    in_range = math.isfinite if precision.max_exp2 >= 1024 else _never
    return LoopArithmetic(lift=lift, lower=_same, in_range=in_range, zero=0.0, one=1.0,
                          from_int=float, real=True, abs=abs,
                          scan=_operator_scan(in_range), **_OPERATORS, pow=pow,
                          sqrt=_float_sqrt, exp=exp, loggamma=loggamma)


def _native_arithmetic(ctx) -> LoopArithmetic:
    """Any value on the context's own operators, every value range-checked by check_range."""
    return LoopArithmetic(lift=_same, lower=_same, in_range=_never, zero=ctx.zero, one=ctx.one,
                          from_int=_same, real=False, abs=lambda x: ctx.convert(abs(x)),
                          scan=_operator_scan(_never), **_OPERATORS,
                          pow=ctx.power, sqrt=ctx.sqrt, exp=ctx.exp, loggamma=ctx.loggamma)


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

    The loops round to nearest only: an ``MPContext`` set to any other
    rounding raises ``ValueError``, which names that rounding.
    """
    precision = precision_of(ctx)
    if isinstance(ctx, MPContext):
        rounding = ctx._prec_rounding[1]
        if rounding != round_nearest:
            raise ValueError(f"the loops round to nearest only, not with rounding {rounding!r}")
        if all(type(v) is ctx.mpf for v in values):
            return _raw_arithmetic(ctx, precision)
    elif isinstance(ctx, Binary64Context):
        if all(type(v) is float for v in values):
            return ctx._float
    return _native_arithmetic(ctx)


def make_context(precision: Precision):
    """Return the arithmetic context for *precision*.

    A preset that fits IEEE binary64 gets a :class:`Binary64Context`,
    every other one an mpmath ``MPContext``.  Contexts are cached per
    precision and must be treated as read-only; all rounding is to nearest
    at ``precision.mantissa_bits`` significant bits.
    """
    fits_binary64 = precision.mantissa_bits == 53 and precision.max_exp10 <= 308
    return _once(_context_cache, precision, Binary64Context if fits_binary64 else _mpmath_context)


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
