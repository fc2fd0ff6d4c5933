"""The recursive W-algorithm.

``build_table`` runs the W-algorithm over the fit samples one at a time:
sample l extends the antidiagonal j + n = l of the four auxiliary
divided-difference arrays (M, N, H, K) and ends at the diagonal entry
A(0,l) with its stability indicators Gamma(0,l) and Lambda(0,l).  Only
the previous antidiagonal is kept, so the working state is O(depth) and
the returned table holds the j = 0 diagonal alone.  The recursion's
operations come from ``numerics.loop_arithmetic``: on real quad values
they run on raw ``libmp`` tuples, and only the diagonal entries are made
``mpf`` again, with the bits the ``mpf`` operators give.  Each entry of
M, N, H and K is one call of the arithmetic's ``divdiff``,
``(X(j+1,n-1) - X(j,n-1)) / (t_{j+n} - t_j)`` with the bits of the
subtraction followed by the division; the denominator is one ``sub`` per
n, shared by the four.

On real values the loop also mirrors.  Sample l starts H(l,0) = c*N(l,0)
and K(l,0) = c*M(l,0) for c = +1, -1 or, at a zero, both; the samples
fall into runs with one c each, kept separately for H and K.  An entry
H(l-n, n) whose window of samples l-n..l lies in one run is c*N(l-n, n),
taken from N without a subtraction or division, and likewise K from M.
By induction on n this is the recursion's own value: mpmath's
round-to-nearest and binary64's round-to-nearest-even are symmetric in
sign, so ``sub(-a, -b) = -sub(a, b)`` and ``div(-a, d) = -div(a, d)``,
hence ``divdiff(-a, -b, d) = -divdiff(a, b, d)``; only the sign of a
binary64 zero can differ, and |.| removes it.  So on sign-alternating
terms, where H_l = (-1)^l |N_l| keeps one c, every H entry is mirrored.
The stored value is always the entry itself, so an entry outside a run
reads the operands the full recursion would.  Complex values run all four
recursions: an ``mpc`` with a zero imaginary part compares equal to an
``mpf``, so equality does not make one a copy.
Every computed entry of M, N, H and K is range-checked; a mirrored entry
has the magnitude of the checked N or M entry it copies.

The recursion is cross-checked in the tests against a direct solve of
the defining linear system and against the full triangle
(``tests/oracles.py``), which share no code with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .numerics import Binary64Context, check_range, loop_arithmetic

__all__ = [
    "ZeroTermError",
    "WeightUnderflowError",
    "DegenerateDenominatorError",
    "ExtrapolationTable",
    "build_table",
]


class ZeroTermError(ValueError):
    """A term at a scheduled index vanished; its remainder weight is undefined."""

    def __init__(self, index, ctx=None):
        self.index = index
        message = f"term a_{index} at a scheduled index is zero"
        if isinstance(ctx, Binary64Context):
            message += (" (in binary64 it may have underflowed below 2^-1074; "
                        "--precision quad has the wider range)")
        super().__init__(message)


class WeightUnderflowError(ZeroDivisionError):
    """The remainder weight r^sigma_hat * a_r of a nonzero term underflowed to zero."""


class DegenerateDenominatorError(ZeroDivisionError):
    """The denominator N(j,n) vanished: the weights r^sigma_hat * a_r are degenerate."""

    def __init__(self, j, n):
        self.j, self.n = j, n
        super().__init__(
            f"W-algorithm denominator N({j},{n}) is zero: the remainder weights "
            f"r^sigma_hat * a_r are degenerate for this series; choose another sigma_hat"
        )


@dataclass
class ExtrapolationTable:
    """The j = 0 diagonal of the extrapolation table with stability indicators.

    ``A[n]`` is the entry A(0,n) for 0 <= n <= depth; ``gamma[n]`` and
    ``lam[n]`` hold Gamma(0,n) >= 1 and Lambda(0,n) >= 0.  ``samples[l]``
    is the fit ordinate at R_l: the partial sum A_{R_l} for
    sigma_hat >= 0, or A_{R_l - 1} for sigma_hat < 0.  Entries A(j,n)
    with j > 0 are intermediate values of the recursion and are not kept;
    A(j,n) equals A(0,n) of the table built on the schedule R_j, R_{j+1}, ...
    """

    depth: int
    ctx: object
    R: list
    samples: list
    A: list
    gamma: list
    lam: list


# the signs c = +1, -1 with which a sample's H or K value is c times its N or M value
_PLUS, _MINUS, _BOTH = 1, 2, 3


def _extend_run(run, l, x, base, neg):
    """The sign run of x = c*base after sample l: (first index, mask of the c it allows).

    A zero matches both signs; a value that matches neither (a binary64
    NaN) starts the run after it.
    """
    start, signs = run
    own = (x == base and _PLUS) | (x == neg(base) and _MINUS)
    if signs & own:
        return start, signs & own
    if own:
        return l, own
    return l + 1, _BOTH


def build_table(sums, terms, R, m, sigma_hat, ctx) -> ExtrapolationTable:
    """Run the W-algorithm recursion over the samples at R = [R_0, ..., R_depth].

    ``R`` is a schedule prefix: nonempty, positive, strictly increasing.
    ``sums[k]`` must hold A_k for 0 <= k <= R_depth (A_0 = 0) and
    ``terms[k]`` must hold a_k for 1 <= k <= R_depth.  The recursion
    implements the alpha = 0 fit only; sigma_hat < 0 switches the fit
    ordinates from A_{R_l} to A_{R_l - 1}.
    """
    if not R or R[0] < 1 or any(b <= a for a, b in zip(R, R[1:])):
        raise ValueError("R must be nonempty, positive and strictly increasing")
    sigma_hat = Fraction(sigma_hat)
    if R[-1] >= len(sums) or R[-1] >= len(terms):
        raise ValueError(f"need sums and terms up to index R_depth = {R[-1]}")
    use_prev = sigma_hat < 0
    samples = [sums[r - 1] if use_prev else sums[r] for r in R]
    # real inputs keep every t, M, N, H and K real: the loop runs on the context's real arithmetic
    ar = loop_arithmetic(ctx, samples + [terms[r] for r in R])
    lift, lower, sub, divdiff, in_range, neg = (
        ar.lift, ar.lower, ar.sub, ar.divdiff, ar.in_range, ar.neg)
    sigma, inv_m = lift(ctx.convert(sigma_hat)), lift(ctx.convert(Fraction(-1, m)))

    t, A, G, L = [], [], [], []
    # X[k] holds X(l-1-k, k) from the antidiagonal of sample l - 1 and is
    # overwritten with X(l-k, k) while sample l extends it, for X in M, N, H, K
    M, N, H, K = [], [], [], []
    # the sign runs of H against N and of K against M: (first index, signs mask)
    h_run = k_run = (0, _BOTH)
    for l, (r, sample) in enumerate(zip(R, samples)):
        a = terms[r]
        if a == 0:
            raise ZeroTermError(r, ctx)
        # the weight r^sigma_hat and the node t_l = r^(-1/m), with the bits of ctx.power
        x = ar.from_int(r)
        omega = lower(ar.pow(x, sigma)) * a
        if omega == 0:
            raise WeightUnderflowError(
                f"remainder weight omega_{r} = {r}^({sigma_hat}) * a_{r} underflowed to zero, "
                f"with a_{r} = {ctx.nstr(a)}; --precision quad has the wider range")
        tl = ar.pow(x, inv_m)
        mx = sample / omega
        nx = 1 / omega
        sign = -1 if l % 2 else 1
        # abs of a complex value is real: convert makes it the context's real
        hx = lift(sign * ctx.convert(abs(nx)))
        kx = lift(sign * ctx.convert(abs(mx)))
        mx = lift(mx)
        nx = lift(nx)
        # X(l-n, n) with n <= span (k < span below) lies in its run: it is c*N or c*M there
        if neg is None:
            h_span = k_span = 0
        else:
            h_run = _extend_run(h_run, l, hx, nx, neg)
            k_run = _extend_run(k_run, l, kx, mx, neg)
            h_span, h_flip = l - h_run[0], h_run[1] == _MINUS
            k_span, k_flip = l - k_run[0], k_run[1] == _MINUS
        for k, tj in enumerate(reversed(t)):  # n = k + 1, tj = t[l - n]
            den = sub(tl, tj)
            mo, no, ho, ko = M[k], N[k], H[k], K[k]
            M[k], N[k], H[k], K[k] = mx, nx, hx, kx
            mx = divdiff(mx, mo, den)
            nx = divdiff(nx, no, den)
            if not in_range(mx):
                check_range(lower(mx), ctx, "M(%d,%d)", l - 1 - k, k + 1)
            if not in_range(nx):
                check_range(lower(nx), ctx, "N(%d,%d)", l - 1 - k, k + 1)
            if k >= h_span:
                hx = divdiff(hx, ho, den)
                if not in_range(hx):
                    check_range(lower(hx), ctx, "H(%d,%d)", l - 1 - k, k + 1)
            else:
                hx = neg(nx) if h_flip else nx
            if k >= k_span:
                kx = divdiff(kx, ko, den)
                if not in_range(kx):
                    check_range(lower(kx), ctx, "K(%d,%d)", l - 1 - k, k + 1)
            else:
                kx = neg(mx) if k_flip else mx
        t.append(tl)
        M.append(mx)
        N.append(nx)
        H.append(hx)
        K.append(kx)
        mx, nx, hx, kx = lower(mx), lower(nx), lower(hx), lower(kx)
        if l == 0:  # exact: the n = 0 entry is the fit ordinate itself
            A.append(sample)
            G.append(ctx.one)
            L.append(ctx.convert(abs(sample)))
        elif nx == 0:
            raise DegenerateDenominatorError(0, l)
        else:
            A.append(mx / nx)
            G.append(ctx.convert(abs(hx / nx)))
            L.append(ctx.convert(abs(kx / nx)))

    return ExtrapolationTable(depth=len(R) - 1, ctx=ctx, R=R, samples=samples, A=A, gamma=G, lam=L)
