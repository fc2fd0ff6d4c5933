"""The recursive W-algorithm.

``build_table`` runs the W-algorithm over the fit samples one at a time:
sample l extends the antidiagonal j + n = l of the four auxiliary
divided-difference arrays (M, N, H, K) and ends at the diagonal entry
A(0,l) with its stability indicators Gamma(0,l) and Lambda(0,l).  Only
the previous antidiagonal is kept, so the working state is O(depth) and
the returned table holds the j = 0 diagonal alone.  Every operation of a
sample runs on ``numerics.loop_arithmetic`` (raw ``libmp`` tuples for
real quad values) with the bits of the context's: the weight omega =
r^sigma_hat * a_r, the node t_l = r^(-1/m), the starting values M(l,0) =
A_R/omega, N(l,0) = 1/omega, H(l,0) = (-1)^l |N(l,0)| and K(l,0) =
(-1)^l |M(l,0)|, and A = M/N, Gamma = |H/N| and Lambda = |K/N|, the only
values made context scalars again.  Each of M, N, H and K extends its
antidiagonal in one ``scan`` call: X(j,n) = (X(j+1,n-1) - X(j,n-1)) /
(t_{j+n} - t_j) for n = 1..l, on denominators made by one ``sub`` per n;
stored raw entries may keep trailing zero bits, the diagonal one not.

On real values the loop also mirrors.  Sample l starts H(l,0) = c*N(l,0)
and K(l,0) = c*M(l,0) for c = +1, -1 or, at a zero, both; the samples
fall into runs with one c each, kept separately for H and K.  An entry
H(l-n, n) whose window of samples l-n..l lies in one run is c*N(l-n, n),
and likewise K of M.  By induction on n this is the recursion's own
value: both roundings are symmetric in sign (see ``LoopArithmetic``), so
each step negates with its operands; only the sign of a binary64 zero
can differ, and |.| removes it.  Such an entry stays implied: H's scan
starts at n = span from c*N(l-span, span) and stores nothing below it,
and a run that spans the whole antidiagonal makes no scan.  A run's
implied entries are written once, as c times its source, when a sample
ends the run; from then on the recursion reads the operands the full one
would.  So on sign-alternating terms no H entry is computed or copied,
and Gamma(0,l) = 1.  Complex values run all four recursions: an ``mpc``
with a zero imaginary part compares equal to an ``mpf``, so equality
does not make one a copy.  Every computed entry is range-checked; an
implied one has the magnitude of the entry it stands for.

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


def _extend_run(run, l, x, base, minus_base, X, source, neg):
    """The sign run of x = c*base after sample l: (first index, mask of the c it allows).

    A zero matches both signs; a value that matches neither (a binary64
    NaN) starts the run after it.  A run that sample l ends writes the
    entries it left implied, X[k] = c*source[k] below its span at sample
    l - 1, from source's antidiagonal before sample l scans it.
    """
    start, signs = run
    own = (x == base and _PLUS) | (x == minus_base and _MINUS)
    if signs & own:
        return start, signs & own
    span = l - 1 - start
    if span > 0:
        X[:span] = neg(source[:span]) if signs == _MINUS else source[:span]
    return (l, own) if own else (l + 1, _BOTH)


def _mirror(x, source, l, run, neg):
    """Where X's scan starts at sample l: (X(l-span, span), span) in a sign run, else (x, 0).

    X(l-n, n) with n <= span lies in the run: it is c*source(l-n, n), which
    source's scan has stored at source[n].  X's entries below the span stay
    implied until the run ends (see ``_extend_run``).
    """
    span = 0 if run is None else l - run[0]
    if span <= 0:  # no run, or one that starts after sample l (a NaN)
        return x, 0
    x = source[span]
    if run[1] == _MINUS:
        x, = neg([x])
    return x, span


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
    use_prev, unit_sigma = sigma_hat < 0, sigma_hat == 1
    samples = [sums[r - 1] if use_prev else sums[r] for r in R]
    # real inputs keep every t, M, N, H and K real: the loop runs on the context's real arithmetic
    ar = loop_arithmetic(ctx, samples + [terms[r] for r in R])
    lift, lower, zero, one, absolute, neg = ar.lift, ar.lower, ar.zero, ar.one, ar.abs, ar.neg
    from_int, power, sub, mul, div, scan = ar.from_int, ar.pow, ar.sub, ar.mul, ar.div, ar.scan
    sigma, inv_m = lift(ctx.convert(sigma_hat)), lift(ctx.convert(Fraction(-1, m)))
    minus_one = from_int(-1)

    t, A, G, L = [], [], [], []
    # X[k] holds X(l-1-k, k) from the antidiagonal of sample l - 1 and is
    # overwritten with X(l-k, k) while sample l extends it, for X in M, N, H, K
    # (in a sign run, H and K hold it from the run's span up only; see _mirror)
    M, N, H, K = [], [], [], []
    # the sign runs of H against N and of K against M: (first index, signs mask)
    h_run = k_run = None if neg is None else (0, _BOTH)
    for l, (r, sample) in enumerate(zip(R, samples)):
        a = lift(terms[r])
        if a == zero:
            raise ZeroTermError(r, ctx)
        # the weight omega = r^sigma_hat * a_r and the node t_l = r^(-1/m); r^1 = r is exact
        x = from_int(r)
        omega = mul(x if unit_sigma else power(x, sigma), a)
        if omega == zero:
            raise WeightUnderflowError(
                f"remainder weight omega_{r} = {r}^({sigma_hat}) * a_{r} underflowed to zero, "
                f"with a_{r} = {ctx.nstr(terms[r])}; --precision quad has the wider range")
        tl, y = power(x, inv_m), lift(sample)
        mx, nx = div(y, omega), div(one, omega)
        hx, kx = absolute(nx), absolute(mx)
        if l % 2:
            hx, kx = mul(minus_one, hx), mul(minus_one, kx)
        if neg is not None:  # complex values have no sign runs
            minus_nx, minus_mx = neg([nx, mx])
            h_run = _extend_run(h_run, l, hx, nx, minus_nx, H, N, neg)
            k_run = _extend_run(k_run, l, kx, mx, minus_mx, K, M, neg)
        # dens[k] = t_l - t_{l-n} for n = k + 1: scanning X from k fills X[k + 1] = X(l-1-k, k+1)
        dens = [sub(tl, tj) for tj in reversed(t)]
        t.append(tl)
        bad = []
        for X, x, source, run in ((M, mx, None, None), (N, nx, None, None),
                                  (H, hx, N, h_run), (K, kx, M, k_run)):
            x, start = _mirror(x, source, l, run, neg)
            x, b = scan(X, x, dens, start) if start < l else (x, None)
            X.append(x)
            bad.append(b)
        if bad != [None] * 4:
            # the first entry check_range refuses, in the order n, then M, N, H, K; div(x, 1) strips
            for k in range(min(b for b in bad if b is not None), l):
                for name, X, b in zip("MNHK", (M, N, H, K), bad):
                    if b is not None and k >= b:
                        check_range(lower(div(X[k + 1], one)), ctx, "%s(%d,%d)", name, l - 1 - k, k + 1)
        nx = N[l]
        if l == 0:  # exact: the n = 0 entry is the fit ordinate itself
            A.append(sample)
            G.append(ctx.one)
            L.append(lower(absolute(y)))
        elif nx == zero:
            raise DegenerateDenominatorError(0, l)
        else:  # in a run from sample 0, H(0,l) = c*N(0,l) and K(0,l) = c*M(0,l)
            ax = div(M[l], nx)
            A.append(lower(ax))
            G.append(ctx.one if h_run and not h_run[0] else lower(absolute(div(H[l], nx))))
            L.append(lower(absolute(ax if k_run and not k_run[0] else div(K[l], nx))))

    return ExtrapolationTable(depth=len(R) - 1, ctx=ctx, R=R, samples=samples, A=A, gamma=G, lam=L)
