"""Structural classification from term-ratio expansions.

Given the expansion a_{n+1}/a_n ~ sum(c_i n^(mu - i/m)) of a term ratio,
this module recovers the structural parameters of
a_n = Gamma(n)^mu * exp(Q(n)) * n^gamma * w(n): the coefficients
theta_0..theta_{m-1} of Q, the power gamma, and the exponent
sigma = q/m of the first-order difference representation, together with
a convergence verdict.  The classifier is advisory; the transformation
itself never needs it (sigma_hat = 1 always works).

All coefficient arithmetic is generic: Fraction/int inputs stay exact,
mpf/mpc inputs stay at their working precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath.libmp import to_rational

from .sampling import _check_integer

__all__ = [
    "RatioExpansion",
    "StructuralParameters",
    "Verdict",
    "epsilons_from_ratio",
    "structure_from_ratio",
    "convergence_verdict",
]


@dataclass(frozen=True)
class RatioExpansion:
    """Coefficients c_0..c_m of a_{n+1}/a_n ~ sum(c_i n^(mu - i/m)).

    ``mu`` must be s/m for an integer s (the same m).  A NaN or infinite
    c_i (float, complex, mpf or mpc) raises ``ValueError`` naming it.
    """

    mu: Fraction
    m: int
    c: tuple

    def __post_init__(self):
        object.__setattr__(self, "mu", Fraction(self.mu))
        object.__setattr__(self, "c", tuple(self.c))
        _check_integer(self.m, "m", 1)
        if len(self.c) != self.m + 1:
            raise ValueError("c must list c_0..c_m")
        for i, c in enumerate(self.c):
            if not _finite(c):
                raise ValueError(f"c_{i} must be finite, got {c}")
        s = self.mu * self.m
        if s.denominator != 1:
            raise ValueError("mu must be s/m for an integer s")

    @property
    def s(self) -> int:
        return int(self.mu * self.m)


@dataclass(frozen=True)
class StructuralParameters:
    """Recovered structure of a_n = Gamma(n)^mu exp(Q(n)) n^gamma w(n); a non-finite theta_i or gamma raises."""

    mu: Fraction
    m: int
    theta: tuple  # theta_0..theta_{m-1} of Q(n) = sum theta_i n^(1-i/m)
    gamma: object
    zeta: object  # e^(theta_0) = c_0
    sigma: Fraction  # q/m from the difference representation a_n = p(n) Delta a_n
    q: int

    def __post_init__(self):
        for name, x in [(f"theta_{i}", th) for i, th in enumerate(self.theta)] + [("gamma", self.gamma)]:
            if not _finite(x):
                raise ValueError(f"{name} = {x} is not finite: the coefficients c overflow it")


def _finite(x) -> bool:
    return all(v == v and abs(v) != math.inf for v in (_re(x), _im(x)))


def _exactly(*values):
    """Values that compare: beside a Fraction, an mpf is its exact Fraction (a float if not finite)."""
    if any(isinstance(v, Fraction) for v in values):
        values = [(Fraction(*to_rational(v._mpf_)) if _finite(v) else float(v)) if hasattr(v, "_mpf_") else v
                  for v in values]
    return values


def _is_zero(x, tol) -> bool:
    if tol == 0:
        return x == 0
    x, tol = _exactly(abs(x), tol)
    return x <= tol


def _check_zero_tol(zero_tol) -> None:
    if not zero_tol >= 0:  # NaN too
        raise ValueError(f"zero_tol must be nonnegative, got {zero_tol!r}")


def epsilons_from_ratio(ratio: RatioExpansion) -> list:
    """Coefficients eps_1..eps_m of log(1 + sum(c_i/c_0 z^i)) + O(z^(m+1)).

    With u(z) = sum(u_i z^i), u_i = c_i/c_0, and L = log(1 + u), the
    coefficients of (1 + u) L' = u' give the recurrence eps_k = u_k -
    (1/k) sum_{j<k} j eps_j u_{k-j}.
    """
    m = ratio.m
    c0 = ratio.c[0]
    if c0 == 0:
        raise ValueError("c_0 must be nonzero")
    u = [c / c0 or 0 for c in ratio.c]  # u[i] is the coefficient of z^i

    # zeros are the int 0 and enter no product: a typed zero would change eps_k's type
    eps = [0] * (m + 1)
    for k in range(1, m + 1):
        acc = sum(j * eps[j] * u[k - j] for j in range(1, k) if eps[j] and u[k - j])
        eps[k] = u[k] - acc / k if acc else u[k]
    return eps[1:]


def structure_from_ratio(ratio: RatioExpansion, ctx=None, zero_tol=0) -> StructuralParameters:
    """Map ratio coefficients to (theta, gamma, sigma, q).

    theta_0 is the principal logarithm of c_0 (exactly 0 when c_0 == 1);
    theta_i = eps_i / (1 - i/m) for 1 <= i < m; gamma = eps_m.  ``ctx``
    is required only when c_0 != 1 (to take the logarithm).  ``zero_tol``
    relaxes the zero/one tests for numerically fitted coefficients; a
    negative or NaN ``zero_tol`` raises ``ValueError``, and so does a
    theta_i or gamma that finite coefficients overflow.
    """
    _check_zero_tol(zero_tol)
    m = ratio.m
    c0 = ratio.c[0]
    if _is_zero(c0, zero_tol):
        raise ValueError("c_0 must be nonzero")
    eps = epsilons_from_ratio(ratio)

    c0_is_one = _is_zero(c0 - 1, zero_tol)
    if c0_is_one:
        theta0 = 0
    else:
        if ctx is None:
            raise ValueError("a context is required to take log(c_0) when c_0 != 1")
        theta0 = ctx.log(ctx.convert(c0) if not isinstance(c0, complex) else ctx.mpc(c0))

    theta = [theta0]
    for i in range(1, m):
        e = eps[i - 1]
        theta.append(0 if e == 0 else e * m / (m - i))
    gamma = eps[m - 1]

    s = ratio.s
    if s > 0:
        sigma, q = Fraction(-s, m), -s
    elif s < 0:
        sigma, q = Fraction(0), 0
    elif not c0_is_one:
        sigma, q = Fraction(0), 0
    else:
        r = None
        for i in range(1, m):
            if not _is_zero(ratio.c[i], zero_tol):
                r = i
                break
        if r is None:
            sigma, q = Fraction(1), m
        else:
            sigma, q = Fraction(r, m), r

    return StructuralParameters(
        mu=ratio.mu, m=m, theta=tuple(theta), gamma=gamma, zeta=c0, sigma=sigma, q=q
    )


@dataclass(frozen=True)
class Verdict:
    """Convergence verdict with the governing condition spelled out."""

    kind: str  # converges | diverges-finite-part | diverges-strongly | indeterminate
    condition: str


def _re(x):
    return getattr(x, "real", x)


def _im(x):
    return getattr(x, "imag", 0)


def _ceil(x) -> int:
    k = int(x)  # toward zero, exact for a Fraction, float or mpf of any size
    return k + (k < x)


def convergence_verdict(sp: StructuralParameters, zero_tol=0) -> Verdict:
    """Classify sum(a_n) from the recovered structure, with s = mu * m.

    Returns one of: converges, diverges-finite-part (an Abel sum or
    Hadamard finite part serves as antilimit), diverges-strongly (no
    finite part), or indeterminate for boundary cases that the case
    analysis excludes (e.g. gamma + 1 = i/m, where a log term appears).
    A negative or NaN ``zero_tol`` raises ``ValueError``.
    """
    _check_zero_tol(zero_tol)
    m = sp.m
    s = sp.mu * m
    if s > 0:
        return Verdict("diverges-strongly", "s > 0: factorial growth, no finite part")
    if s < 0:
        return Verdict("converges", "s < 0: factorial decay dominates for every gamma")

    theta = sp.theta
    gamma = sp.gamma

    if not _is_zero(theta[0], zero_tol):  # q = 0 case: zeta = e^(theta_0) != 1
        re0 = _re(theta[0])
        if re0 < 0 and not _is_zero(re0, zero_tol):
            return Verdict("converges", "Re theta_0 < 0 (|zeta| < 1): converges for all gamma")
        if re0 > 0 and not _is_zero(re0, zero_tol):
            return Verdict("diverges-strongly", "Re theta_0 > 0 (|zeta| > 1): diverges for all gamma")
        # |zeta| = 1, zeta != 1: purely oscillatory exponential
        if _re(gamma) < 0:
            return Verdict("converges", "|zeta| = 1, zeta != 1 and Re gamma < 0")
        return Verdict("diverges-finite-part", "|zeta| = 1, zeta != 1 and Re gamma >= 0: Abel sum")

    r = None
    for i in range(1, m):
        if not _is_zero(theta[i], zero_tol):
            r = i
            break

    if r is not None:
        rer = _re(theta[r])
        if rer < 0 and not _is_zero(rer, zero_tol):
            return Verdict("converges", f"Re theta_{r} < 0: Re Q(n) -> -inf, converges for all gamma")
        if rer > 0 and not _is_zero(rer, zero_tol):
            return Verdict("diverges-strongly", f"Re theta_{r} > 0: Re Q(n) -> +inf")
        if all(_is_zero(_re(theta[i]), zero_tol) for i in range(r, m)):
            if _re(gamma) * m < -r:
                return Verdict("converges", f"Re Q = 0 and Re gamma < -{r}/{m}")
            return Verdict("diverges-finite-part", f"Re Q = 0 and Re gamma >= -{r}/{m}: Abel sum")
        return Verdict("indeterminate", "mixed oscillatory/zero leading theta: case not covered")

    # Q identically zero: a_n ~ n^gamma w(n).  Exclude gamma + 1 = i/m
    # boundaries, where the partial sums pick up a log term.
    if _is_zero(_im(gamma), zero_tol):
        # compare m*gamma against integers k = i - m >= -m
        scaled, tol = _exactly(_re(gamma) * m, m * zero_tol if zero_tol else 0)
        # the first k within tol of m*gamma is the ceiling of scaled - tol, or
        # a neighbour of it where that difference rounds; the exact tests decide
        first = max(-m, _ceil(scaled - tol) - 1)
        for k in range(first, first + 3):
            if k <= scaled + tol and _is_zero(scaled - k, tol):
                return Verdict("indeterminate", f"gamma = {k + m}/{m} - 1: log-term boundary case")
    if _re(gamma) < -1:
        return Verdict("converges", "Q = 0 and Re gamma < -1")
    return Verdict("diverges-finite-part", "Q = 0 and Re gamma >= -1: Hadamard finite part")
