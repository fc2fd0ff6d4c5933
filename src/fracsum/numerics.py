"""Precision presets and scalar arithmetic helpers.

Real scalars are mpmath floats (``mpf``) and complex scalars are ``mpc``
values, created through a context tied to a :class:`Precision`.  The
precision is always an explicit parameter: nothing in this package reads
or mutates the global ``mpmath.mp`` state, so computations at different
precisions can run side by side (and concurrently).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property

from mpmath.ctx_mp import MPContext

__all__ = [
    "Precision",
    "DOUBLE",
    "QUAD",
    "PRESETS",
    "RangeOverflowError",
    "NotANumberError",
    "make_context",
    "precision_of",
    "roundoff_unit",
    "ln_factorial_frac",
    "as_value",
    "resolve_scalar",
    "check_range",
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

_context_cache: dict[Precision, MPContext] = {}
_context_lock = threading.Lock()


def make_context(precision: Precision) -> MPContext:
    """Return the mpmath context for *precision*.

    Contexts are cached per precision and must be treated as read-only;
    all rounding happens at ``precision.mantissa_bits`` significant bits.
    """
    with _context_lock:
        ctx = _context_cache.get(precision)
        if ctx is None:
            ctx = MPContext()
            ctx.prec = precision.mantissa_bits
            ctx.pretty = False
            ctx._fracsum_precision = precision
            _context_cache[precision] = ctx
        return ctx


def precision_of(ctx) -> Precision | None:
    """The :class:`Precision` a context was created for, if any."""
    return getattr(ctx, "_fracsum_precision", None)


def roundoff_unit(precision):
    """Roundoff unit u = 2^(1 - mantissa_bits).

    Accepts a :class:`Precision` or a bare mantissa bit count (handy for
    probing the formula below the 53-bit floor that Precision enforces).
    """
    if isinstance(precision, Precision):
        return make_context(precision).eps
    bits = int(precision)
    if bits < 1:
        raise ValueError("mantissa bit count must be positive")
    ctx = make_context(QUAD)
    return ctx.power(2, 1 - bits)


def ln_factorial_frac(n: int, s: int, m: int, ctx):
    """(s/m) * ln(n!) via the log-gamma function; 0 when n <= 1 or s == 0.

    Term generators use this to keep factorial-type factors in the log
    domain until a single final exponentiation.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if m < 1:
        raise ValueError("m must be a positive integer")
    if s == 0 or n <= 1:
        return ctx.zero
    return ctx.loggamma(n + 1) * s / m


def as_value(x, ctx):
    """Convert *x* (int, float, str, Fraction, complex, mpf, mpc) to ctx."""
    if isinstance(x, complex):
        return ctx.mpc(x.real, x.imag)
    return ctx.convert(x)


def resolve_scalar(spec, ctx):
    """Materialize a scalar spec: a callable of ctx, a number, or None."""
    if spec is None:
        return None
    if callable(spec):
        return spec(ctx)
    return as_value(spec, ctx)


def check_range(x, ctx, precision: Precision, where: str, *args) -> None:
    """Raise if x is NaN or |x| exceeds the precision's exponent range.

    ``where`` names x in the message.  With *args* it is a %-format that is
    filled in only when raising, so per-entry callers pay no formatting.
    Overflow raises :class:`RangeOverflowError`, NaN :class:`NotANumberError`.
    """
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
