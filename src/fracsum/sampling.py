"""Abscissa schedules: strictly increasing positive integers R_0 < R_1 < ...

Three kinds are supported: arithmetic progression sampling (APS) with
R_l = floor(kappa*l + eta), geometric progression sampling (GPS) with
R_0 = 1 and R_l = max(floor(tau*R_{l-1}), l+1), and explicit user lists.
A schedule holds only its parameters; ``prefix`` computes the values on
each call, and ``accelerate`` takes the prefix once and passes it on.

Floor operations run on exact rationals.  ``_exact`` is the package's
rule for exact numbers, for ``SeriesProblem.sigma_hat`` too: a
``numbers.Rational`` as is, a float or a string at its decimal value
(1.7 means 17/10, not the nearest binary double), and never a bool.  So
floors at integer boundaries never depend on binary rounding.
"""

from __future__ import annotations

import math
import numbers
import warnings
from decimal import Decimal
from fractions import Fraction

__all__ = [
    "Schedule",
    "make_aps",
    "make_gps",
    "make_explicit",
    "parse_schedule",
]


def _check_integer(x, name: str, low=None):
    """Refuse *x* unless it is an integer (a ``numbers.Integral``, not a bool) >= *low*, naming it."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or (low is not None and x < low):
        what = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}[low]
        raise ValueError(f"{name} must be {what}, got {x!r}")


def _exact(x, name: str) -> Fraction:
    """*x* as an exact rational: a ``numbers.Rational`` as is, a float or a string at its decimal value."""
    if isinstance(x, bool) or not isinstance(x, (numbers.Rational, float, str)):
        raise ValueError(f"{name} must be a number or a fraction string, got {x!r}")
    try:
        if isinstance(x, numbers.Rational) or "/" in str(x):
            return Fraction(x)
        return Fraction(Decimal(str(x)))
    except ZeroDivisionError:
        raise ValueError(f"{name} {x!r} has a zero denominator") from None
    except (ValueError, ArithmeticError) as exc:
        raise ValueError(f"bad value {x!r} for {name}") from exc


# the parameters that each kind of schedule does not take
_NOT_TAKEN = {"aps": ("tau", "values"), "gps": ("kappa", "eta", "values"),
               "explicit": ("kappa", "eta", "tau")}


class Schedule:
    """Immutable integer schedule; ``prefix`` computes its values on each call.

    ``kind`` is ``"aps"`` (``kappa`` >= 1, ``eta`` >= 1), ``"gps"``
    (``tau`` > 1, with a warning past 2) or ``"explicit"`` (``values``,
    positive integers, strictly increasing); each parameter is checked
    here, for every caller, a parameter of another kind is refused, and
    ``kappa``, ``eta`` and ``tau`` are read by :func:`_exact`.
    """

    def __init__(self, kind, *, kappa=None, eta=None, tau=None, values=None):
        given = {"kappa": kappa, "eta": eta, "tau": tau, "values": values}
        for name in _NOT_TAKEN.get(kind, ()):
            if given[name] is not None:
                raise ValueError(f"{kind} schedules take no {name}")
        if kind == "aps":
            kappa, eta = _exact(kappa, "kappa"), _exact(eta, "eta")
            if kappa < 1:
                raise ValueError("kappa must be >= 1 (smaller values break strict ordering)")
            if eta < 1:
                raise ValueError("eta must be >= 1 (R_0 = floor(eta) must be >= 1)")
        elif kind == "gps":
            tau = _exact(tau, "tau")
            if tau <= 1:
                raise ValueError("tau must be > 1 (the schedule would stall)")
            if tau > 2:
                warnings.warn(
                    "tau > 2 lies outside the recommended range (1, 2]; "
                    "term consumption grows very quickly",
                    stacklevel=2,
                )
        elif kind == "explicit":
            try:
                values = list(values if values is not None else ())
            except TypeError:
                raise ValueError(f"values must be an iterable of integers, got {values!r}") from None
            if not values:
                raise ValueError("explicit schedule must be nonempty")
            for v in values:
                _check_integer(v, "a schedule value", 1)
            for a, b in zip(values, values[1:]):
                if b <= a:
                    raise ValueError(f"schedule must be strictly increasing, got {a} then {b}")
        else:
            raise ValueError(f"unknown schedule kind {kind!r} (expected aps, gps or explicit)")
        self.kind = kind
        self.kappa = kappa
        self.eta = eta
        self.tau = tau
        self._values = values

    def prefix(self, count: int) -> list:
        """First *count* values; deterministic and idempotent."""
        _check_integer(count, "count", 1)
        if self.kind == "aps":  # floor(p/q * l + r/s) = (p*s*l + r*q) // (q*s), in ints
            (p, q), (r, s) = self.kappa.as_integer_ratio(), self.eta.as_integer_ratio()
            return [(p * s * l + r * q) // (q * s) for l in range(count)]
        if self.kind == "gps":
            R = [1]
            for l in range(1, count):
                R.append(max(math.floor(self.tau * R[-1]), l + 1))
            return R
        if count > len(self._values):
            raise ValueError(
                f"explicit schedule has only {len(self._values)} values, {count} requested"
            )
        return self._values[:count]

    def spec_string(self) -> str:
        if self.kind == "aps":
            return f"aps:{_fmt(self.kappa)},{_fmt(self.eta)}"
        if self.kind == "gps":
            return f"gps:{_fmt(self.tau)}"
        return "list:" + ",".join(str(v) for v in self._values)

    def __repr__(self):
        return f"Schedule({self.spec_string()!r})"


def _fmt(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    scaled = q * 10 ** 12
    if scaled.denominator == 1:
        return str(Decimal(q.numerator) / Decimal(q.denominator))
    return f"{q.numerator}/{q.denominator}"


def make_aps(kappa, eta) -> Schedule:
    """APS schedule R_l = floor(kappa*l + eta), kappa >= 1, eta >= 1."""
    return Schedule("aps", kappa=kappa, eta=eta)


def make_gps(tau) -> Schedule:
    """GPS schedule R_0 = 1, R_l = max(floor(tau*R_{l-1}), l+1), 1 < tau <= 2."""
    return Schedule("gps", tau=tau)


def make_explicit(values) -> Schedule:
    """Explicit schedule; values are validated, not trusted."""
    return Schedule("explicit", values=values)


def parse_schedule(text: str) -> Schedule:
    """Parse CLI syntax: ``aps:KAPPA,ETA``, ``gps:TAU``, ``list:1,2,4,8``."""
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"bad schedule spec {text!r}: expected kind:params")
    kind = kind.strip().lower()
    if kind == "aps":
        parts = rest.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad APS spec {text!r}: expected aps:KAPPA,ETA")
        return make_aps(parts[0].strip(), parts[1].strip())
    if kind == "gps":
        return make_gps(rest.strip())
    if kind == "list":
        try:
            values = [int(p) for p in rest.split(",") if p.strip()]
        except ValueError:
            raise ValueError(f"bad list spec {text!r}: entries must be integers") from None
        return make_explicit(values)
    raise ValueError(f"unknown schedule kind {kind!r} (expected aps, gps or list)")
