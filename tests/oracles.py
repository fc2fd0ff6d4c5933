"""Independent reference computations used by the tests.

Nothing in here calls the library's own recursion or series machinery;
these are the brute-force / quadrature / interpolation oracles the
library results are checked against.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from fracsum.w_algorithm import ZeroTermError

# How far the platform's libm, whose pow, exp and lgamma DOUBLE's float
# arithmetic calls, may be from mpmath at 53 bits.  Measured with glibc
# 2.36 on x86-64 over 40,000 random arguments each: exp and pow at most 1
# ulp of the result, lgamma at most 8 ulps of max(|result|, 1) (near its
# zeros at 1 and 2 the result is tiny, and an ulp of it says nothing of
# libm's accuracy).  The bounds leave a margin for other libms.
LIBM_ULPS = {"exp": 2, "pow": 2, "loggamma": 32}


def within_libm_bound(name, ours, ref):
    """Whether the float *ours* of libm's *name* is within ``LIBM_ULPS`` of *ref*, mpmath's at 53 bits."""
    ref = float(ref)
    if not math.isfinite(ref):
        return ours == ref or math.isnan(ours) and math.isnan(ref)
    scale = max(abs(ref), 1.0) if name == "loggamma" else abs(ref)
    return abs(ours - ref) <= LIBM_ULPS[name] * math.ulp(scale)


def fit_ratio_coefficients(term, mu, m, ctx, n_lo=1000, n_hi=10000, extra=6):
    """Fit c_0..c_m of term(n+1)/term(n) ~ sum(c_i n^(mu - i/m)).

    Samples the ratio at large n, divides out n^mu, and interpolates an
    extended-degree polynomial in x = n^(-1/m) so the truncated tail
    stays below the target accuracy.  Nodes are rescaled to [x_min/x_max, 1]
    to keep the Vandermonde solve well conditioned at quad precision.
    """
    degree = m + extra
    ns = sorted({int(round(n_lo * (n_hi / n_lo) ** (k / degree))) for k in range(degree + 1)})
    k = 1
    while len(ns) < degree + 1:
        ns.append(ns[-1] + k)
        k += 1
    mu_c = ctx.convert(Fraction(mu))
    xmax = ctx.power(ns[0], ctx.mpf(-1) / m)

    mat = ctx.matrix(len(ns), degree + 1)
    rhs = ctx.matrix(len(ns), 1)
    for row, n in enumerate(ns):
        ratio = term(n + 1, ctx) / term(n, ctx)
        y = ctx.power(n, ctx.mpf(-1) / m) / xmax
        p = ctx.one
        for col in range(degree + 1):
            mat[row, col] = p
            p = p * y
        rhs[row] = ratio * ctx.power(n, -mu_c)
    sol = ctx.lu_solve(mat, rhs)
    return [sol[i] / xmax**i for i in range(m + 1)]


def taylor_coefficients(f, count, ctx, radius=Fraction(1, 16), points=64):
    """Taylor coefficients of f at 0 by the Cauchy integral on a circle.

    Evaluates f at *points* roots of unity scaled by *radius* and reads
    the coefficients off the discrete Fourier transform; truncation error
    decays like radius^(points - i).
    """
    rho = ctx.convert(Fraction(radius))
    samples = [f(rho * ctx.expjpi(ctx.mpf(2 * k) / points)) for k in range(points)]
    coeffs = []
    for i in range(count):
        acc = ctx.mpc(0)
        for k, sample in enumerate(samples):
            acc += sample * ctx.expjpi(ctx.mpf(-2 * k * i) / points)
        coeffs.append(acc / (points * rho**i))
    return coeffs


def cos_sqrt_reference(ctx, N=10000):
    """sum(cos(sqrt(n))/n^2, n>=1) by direct summation plus an
    Euler-Maclaurin tail.

    The tail integral becomes the periodic oscillatory integral
    2*cos(t)/t^3 on [sqrt(N), inf) (t = sqrt(x)), handled by quadosc;
    derivative corrections through order five leave a remainder far
    below 1e-24 at N = 1e4.
    """

    def f(x):
        return ctx.cos(ctx.sqrt(x)) / (x * x)

    head = ctx.zero
    for n in range(1, N):
        head += f(ctx.mpf(n))

    T = ctx.sqrt(N)
    integral = ctx.quadosc(lambda t: 2 * ctx.cos(t) / t**3, [T, ctx.inf], period=2 * ctx.pi)
    x0 = ctx.mpf(N)
    d1 = ctx.diff(f, x0, 1)
    d3 = ctx.diff(f, x0, 3)
    d5 = ctx.diff(f, x0, 5)
    return head + integral + f(x0) / 2 - d1 / 12 + d3 / 720 - d5 / 30240


def _omega(r, a, sigma_hat, ctx):
    """The remainder weight omega_r = r^sigma_hat * a_r."""
    if sigma_hat == 1:
        return ctx.mpf(r) * a
    if sigma_hat == 0:
        return ctx.mpf(1) * a
    return ctx.power(r, ctx.convert(sigma_hat)) * a


def w_triangle(sums, terms, R, m, sigma_hat, ctx):
    """The full W-algorithm triangle, computed column by column.

    Returns ``(samples, A, gamma, lam)`` with ``A[j][n]`` for
    j + n <= len(R) - 1: the recursion over the four complete auxiliary
    triangles M, N, H, K, dividing out every entry.  It performs the
    same operations on the same operands as the streamed recursion, so
    column 0 must match ``build_table`` bit for bit.  No range checks.
    """
    sigma_hat = Fraction(sigma_hat)
    size = len(R)
    M, N, H, K, A, G, L = ([[None] * (size - j) for j in range(size)] for _ in range(7))
    inv_m = ctx.convert(Fraction(-1, m))
    t = [ctx.power(r, inv_m) for r in R]
    samples = []
    for j, r in enumerate(R):
        omega = _omega(r, terms[r], sigma_hat, ctx)
        sample = sums[r - 1] if sigma_hat < 0 else sums[r]
        samples.append(sample)
        M[j][0] = sample / omega
        N[j][0] = 1 / omega
        sign = -1 if j % 2 else 1
        H[j][0] = sign * abs(N[j][0])
        K[j][0] = sign * abs(M[j][0])
        A[j][0] = sample
        G[j][0] = ctx.one
        L[j][0] = abs(sample)
    for n in range(1, size):
        for j in range(size - n):
            den = t[j + n] - t[j]
            M[j][n] = (M[j + 1][n - 1] - M[j][n - 1]) / den
            N[j][n] = (N[j + 1][n - 1] - N[j][n - 1]) / den
            H[j][n] = (H[j + 1][n - 1] - H[j][n - 1]) / den
            K[j][n] = (K[j + 1][n - 1] - K[j][n - 1]) / den
            A[j][n] = M[j][n] / N[j][n]
            G[j][n] = abs(H[j][n] / N[j][n])
            L[j][n] = abs(K[j][n] / N[j][n])
    return samples, A, G, L


def telescoping_delta(s, m, theta, k, ctx):
    """delta_k = exp((s/m) ln k! + sum(theta_i k^((m-i)/m))) from scratch; delta_0 = 1.

    The operations are those of the library's telescoping terms, on the
    same context scalars (k as ``ctx.convert(k)``, as a real loop lifts
    it), so for a real theta its deltas, and the terms built from them,
    match bit for bit.
    """
    val = ctx.zero
    if k > 0:
        if s != 0 and k > 1:
            val = ctx.loggamma(ctx.convert(k + 1)) * s / m
        for i, th in enumerate(theta):
            if th != 0:
                val = val + ctx.convert(th) * ctx.power(ctx.convert(k),
                                                        ctx.convert(Fraction(m - i, m)))
    return ctx.exp(val)


def telescoping_term(kind, s, m, theta, n, ctx):
    """a_n of the telescoping family (kind, s, m, theta), both deltas from scratch.

    The result must match the library's terms bit for bit in whatever
    order they are evaluated.
    """
    d0, d1 = telescoping_delta(s, m, theta, n - 1, ctx), telescoping_delta(s, m, theta, n, ctx)
    if kind == 1:
        return d1 - d0
    return (1 if n % 2 == 0 else -1) * (d1 + d0)


def log_factor(s, m, pairs, n, ctx):
    """ln((n!)^(s/m)) + sum(c * n^p) as a fold on the context's own operators.

    The fold starts from ``ctx.loggamma(n + 1) * s / m``, or from zero when
    s = 0 or n <= 1, and adds c * n^p for each pair with c != 0, in order.
    n^1 is n itself, n^(1/2) is ``ctx.sqrt(n)`` and any other n^p is
    ``ctx.power(n, p)``; a coefficient of 1 multiplies nothing.  The
    arguments of ``loggamma`` and ``power`` are context scalars, as a real
    loop lifts them.
    """
    val = ctx.loggamma(ctx.convert(n + 1)) * s / m if s != 0 and n > 1 else ctx.zero
    for c, p in pairs:
        if c == 0:
            continue
        p = Fraction(p)
        x = (n if p == 1 else ctx.sqrt(n) if p == Fraction(1, 2)
             else ctx.power(ctx.convert(n), ctx.convert(p)))
        val = val + (x if c == 1 else ctx.convert(c) * x)
    return val


def _sign(n):
    return 1 if n % 2 == 0 else -1


def _half_ln_factorial(n, ctx):
    return ctx.loggamma(ctx.convert(n + 1)) * 1 / 2 if n > 1 else ctx.zero


# The builtins whose terms are a single exponential, each written out by
# hand: a_n = (+-1)^n (n!)^(s/2) e^(Q(n)) with the operations in the order
# the registry must perform them, so its terms match bit for bit.
EXPONENTIAL_BUILTINS = {
    "ex5_5": lambda n, ctx: ctx.exp(ctx.sqrt(n)),
    "ex5_6": lambda n, ctx: _sign(n) * ctx.exp(ctx.sqrt(n)),
    "ex5_9": lambda n, ctx: ctx.exp(ctx.sqrt(n) - ctx.convert(Fraction(1, 5)) * n),
    "ex5_10": lambda n, ctx: _sign(n) * ctx.exp(ctx.convert(Fraction(1, 5)) * n - ctx.sqrt(n)),
    "ex5_13": lambda n, ctx: _sign(n) * ctx.exp(_half_ln_factorial(n, ctx) - ctx.sqrt(n)),
}


def trig_pair_term(h, u1, u2, m, sign, n, ctx):
    """a_n of ``trig_series_pair(h, u1, u2, 0, m)``, branch *sign* (+1 or -1).

    Each polynomial in n^(1/m) is summed from zero term by term, the
    constant term as its coefficient and the others as c * n^(i/m); at
    s = 0 the growth is zero plus that sum.
    """

    def poly(u):
        val = ctx.zero
        for i, c in enumerate(u):
            if c != 0:
                c = ctx.convert(c)
                val = val + (c if i == 0 else c * ctx.power(n, ctx.convert(Fraction(i, m))))
        return val

    growth = ctx.zero + poly(u1)
    return ctx.exp(ctx.mpc(growth, sign * poly(u2))) * ctx.convert(h(n, ctx))


# Closed forms of a ``TelescopingFamily``: its telescoped partial sums and
# the a_n asymptotics the classifier round-trip is checked against.  The
# partial sum reads :func:`telescoping_delta`, which matches the library's
# delta_n bit for bit: it checks the telescoping of the terms and their
# accumulation, not delta_n itself.


def closed_partial_sum(family, n, ctx):
    """A_n from the telescoped closed form -delta_0 +- delta_n."""
    d = telescoping_delta(family.s, family.m, family.theta, n, ctx)
    if family.kind == 2 and n % 2:
        d = -d
    return d - 1


def first_theta_index(family):
    """First nonzero index r among theta_1..theta_{m-1}, if any."""
    return next((i for i in range(1, family.m) if family.theta[i] != 0), None)


def predicted_sigma(family) -> Fraction:
    if family.s > 0:
        return Fraction(-family.s, family.m)
    if family.s < 0 or family.kind == 2 or family.theta[0] != 0:
        return Fraction(0)
    return Fraction(first_theta_index(family), family.m)


def predicted_gamma(family) -> Fraction:
    if family.s < 0:
        return Fraction(-family.s, family.m)
    if family.kind == 2 or family.s > 0 or family.theta[0] != 0:
        return Fraction(0)
    return Fraction(-first_theta_index(family), family.m)


# The class corpus: telescoping families drawn over the paper's class, each
# with the sum (or antilimit) -1, on the three schedule kinds and four depths.
CORPUS_THETA_0 = (Fraction(-1, 2), Fraction(-1, 5), Fraction(0), Fraction(1, 5))
CORPUS_THETA_I = (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1))
CORPUS_SCHEDULES = ("aps:1,1", "aps:2,1", "gps:1.3")
CORPUS_DEPTHS = (12, 16, 24, 32)


def telescoping_corpus(seed, count):
    """*count* draws (kind, s, m, theta, schedule, depth) of telescoping families, fixed by *seed*.

    kind 1 or 2, m = 1 to 3, s in {-1, 0, 1}, theta_0 from CORPUS_THETA_0
    and theta_1..theta_{m-1} from CORPUS_THETA_I.  A kind 1 family with
    s = 0 and every theta zero has no terms and is drawn again.
    """
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        kind, m, s = rng.choice((1, 2)), rng.randint(1, 3), rng.choice((-1, 0, 1))
        theta = (rng.choice(CORPUS_THETA_0),) + tuple(rng.choice(CORPUS_THETA_I) for _ in range(m - 1))
        if kind == 1 and s == 0 and not any(theta):
            continue
        draws.append((kind, s, m, theta, rng.choice(CORPUS_SCHEDULES), rng.choice(CORPUS_DEPTHS)))
    return draws


class SingularSystemError(ArithmeticError):
    """The dense extrapolation system is numerically singular."""

    def __init__(self, message, condition_estimate):
        self.condition_estimate = condition_estimate
        super().__init__(f"{message} (condition estimate {condition_estimate})")


@dataclass
class DenseSolve:
    """Direct solution of the (n+1)x(n+1) extrapolation system.

    ``value`` approximates the limit; ``weights[i]`` is the coefficient
    gamma_{n,i} of the fit ordinate ``samples[i]`` in ``value`` (they
    sum to 1).
    """

    value: object
    weights: list
    samples: list


def dense_oracle(sums, terms, schedule, m, sigma_hat, alpha, j, n, ctx) -> DenseSolve:
    """Solve the defining linear system for the (j, n) entry directly.

    Supports a general offset alpha > -R_0 in the fit basis
    (R_l + alpha)^(-i/m); the recursion corresponds to alpha = 0.
    """
    if n < 0 or j < 0:
        raise ValueError("j and n must be nonnegative")
    sigma_hat = Fraction(sigma_hat)
    R = schedule.prefix(j + n + 1)[j:]
    alpha = ctx.convert(alpha)
    if not alpha > -R[0]:
        raise ValueError("alpha must exceed -R_0")
    use_prev = sigma_hat < 0
    inv_m = ctx.convert(Fraction(-1, m))

    size = n + 1
    mat = ctx.matrix(size, size)
    rhs = ctx.matrix(size, 1)
    for row, r in enumerate(R):
        a = terms[r]
        if a == 0:
            raise ZeroTermError(r, ctx)
        phi = _omega(r, a, sigma_hat, ctx)
        x = ctx.power(r + alpha, inv_m)
        mat[row, 0] = ctx.one
        basis = phi
        for col in range(1, size):
            mat[row, col] = basis
            basis = basis * x
        rhs[row] = sums[r - 1] if use_prev else sums[r]

    try:
        sol = ctx.lu_solve(mat, rhs)
        unit = ctx.matrix(size, 1)
        unit[0] = ctx.one
        wvec = ctx.lu_solve(mat.T, unit)
    except (ZeroDivisionError, TypeError):
        # mpmath's pivot search leaves the pivot index unset (TypeError)
        # when a column is exactly zero below the diagonal
        raise SingularSystemError(
            f"extrapolation system for (j={j}, n={n}) has a zero pivot; "
            f"1-norm {ctx.mnorm(mat, 1)}",
            condition_estimate=ctx.inf,
        ) from None

    return DenseSolve(
        value=sol[0],
        weights=[wvec[i] for i in range(size)],
        samples=[rhs[i] for i in range(size)],
    )


def gamma_from_weights(solve: DenseSolve):
    """Gamma = sum(|gamma_{n,i}|) >= 1: amplification of ordinate errors."""
    total = 0
    for w in solve.weights:
        total = abs(w) + total
    return total


def lambda_from_weights(solve: DenseSolve):
    """Lambda = sum(|gamma_{n,i}| * |ordinate_i|): scale seen by relative errors."""
    total = 0
    for w, s in zip(solve.weights, solve.samples):
        total = abs(w) * abs(s) + total
    return total
