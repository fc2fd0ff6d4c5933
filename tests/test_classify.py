import random
import time
from fractions import Fraction

import mpmath
import pytest

from fracsum.classify import (
    RatioExpansion,
    StructuralParameters,
    Verdict,
    convergence_verdict,
    epsilons_from_ratio,
    structure_from_ratio,
)
from fracsum.numerics import QUAD, make_context

from oracles import taylor_coefficients


def test_epsilons_trivial_cases():
    assert epsilons_from_ratio(RatioExpansion(0, 3, (1, 0, 0, 0))) == [0, 0, 0]
    # m = 1: first-order log expansion
    c1 = Fraction(3, 7)
    assert epsilons_from_ratio(RatioExpansion(0, 1, (1, c1))) == [c1]
    # m = 2 with c = (1, 0, -t/2): log(1 - (t/2) z^2) to order z^2
    t = Fraction(3)
    assert epsilons_from_ratio(RatioExpansion(0, 2, (1, 0, -t / 2))) == [0, -t / 2]


def test_epsilons_hand_expansion_m2():
    c1, c2 = Fraction(1, 3), Fraction(-2, 5)
    eps = epsilons_from_ratio(RatioExpansion(0, 2, (1, c1, c2)))
    assert eps[0] == c1
    assert eps[1] == c2 - c1 * c1 / 2


def test_epsilons_reject_zero_c0():
    with pytest.raises(ValueError):
        epsilons_from_ratio(RatioExpansion(0, 2, (0, 1, 1)))


@pytest.mark.parametrize("tol", [-1, -1e-30, float("nan")], ids=repr)
def test_zero_tol_must_be_nonnegative(tol):
    ratio = RatioExpansion(0, 2, (1, 0, Fraction(-3, 2)))
    message = f"^zero_tol must be nonnegative, got {tol!r}$"
    with pytest.raises(ValueError, match=message):
        structure_from_ratio(ratio, zero_tol=tol)
    with pytest.raises(ValueError, match=message):
        convergence_verdict(structure_from_ratio(ratio), zero_tol=tol)


def test_ratio_expansion_validation():
    with pytest.raises(ValueError):
        RatioExpansion(Fraction(1, 3), 2, (1, 0, 0))  # mu not s/m
    with pytest.raises(ValueError):
        RatioExpansion(0, 2, (1, 0))  # wrong length


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_epsilons_match_cauchy_oracle(qctx, m):
    rng = random.Random(61 + m)
    for _ in range(3):
        c = [qctx.mpc(1, 0)] + [
            qctx.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(m)
        ]
        eps = epsilons_from_ratio(RatioExpansion(0, m, tuple(c)))

        def f(z, c=c):
            u = sum(c[i] * z**i for i in range(1, m + 1))
            return qctx.log(1 + u)

        ref = taylor_coefficients(f, m + 1, qctx)[1:]
        for ours, expect in zip(eps, ref):
            assert abs(ours - expect) <= 1e-25 * (1 + abs(expect))


def test_structure_product_case_exact():
    # ratio 1 - (t/m)/n + ...: all theta vanish, gamma = -t/m, sigma = 1
    for m, t in ((2, 3), (5, 7), (1, 2)):
        c = [Fraction(0)] * (m + 1)
        c[0] = Fraction(1)
        c[m] = Fraction(-t, m)
        sp = structure_from_ratio(RatioExpansion(0, m, tuple(c)))
        assert all(th == 0 for th in sp.theta)
        assert sp.gamma == Fraction(-t, m)
        assert sp.sigma == 1 and sp.q == m
        assert sp.zeta == 1


def test_structure_nonunit_zeta(qctx):
    sp = structure_from_ratio(RatioExpansion(0, 2, (2, 0, 0)), ctx=qctx)
    assert abs(sp.theta[0] - qctx.log(2)) == 0
    assert sp.gamma == 0
    assert sp.sigma == 0 and sp.q == 0


def test_structure_requires_ctx_for_log():
    with pytest.raises(ValueError):
        structure_from_ratio(RatioExpansion(0, 2, (2, 0, 0)))


def test_structure_half_power_case():
    c1, c2 = Fraction(1, 2), Fraction(1, 5)
    sp = structure_from_ratio(RatioExpansion(0, 2, (1, c1, c2)))
    assert sp.sigma == Fraction(1, 2) and sp.q == 1
    assert sp.theta[0] == 0
    assert sp.theta[1] == 2 * c1
    assert sp.gamma == c2 - c1 * c1 / 2


def test_structure_negative_s():
    sp = structure_from_ratio(RatioExpansion(Fraction(-1, 2), 2, (1, 0, 0)))
    assert sp.sigma == 0 and sp.q == 0


def test_structure_positive_s():
    sp = structure_from_ratio(RatioExpansion(Fraction(3, 2), 2, (1, 0, 0)))
    assert sp.sigma == Fraction(-3, 2) and sp.q == -3


@pytest.mark.parametrize("bad", [
    float("nan"), float("-inf"), complex(1, float("nan")), complex(float("inf"), 0),
    mpmath.mpf("nan"), mpmath.mpf("-inf"), mpmath.mpc(0, "inf"), mpmath.mpc("nan", 1),
], ids=repr)
@pytest.mark.parametrize("i", [0, 1, 2])
def test_ratio_expansion_refuses_non_finite_coefficients(bad, i):
    # a NaN c_0 gave diverges-finite-part, a NaN c_2 a Hadamard finite part
    c = [1, 0, Fraction(-3, 2)]
    c[i] = bad
    with pytest.raises(ValueError, match=rf"^c_{i} must be finite, got "):
        RatioExpansion(0, 2, c)
    assert RatioExpansion(0, 1, (1, mpmath.mpf("1e400"))).c[1] > 0  # large is finite


@pytest.mark.parametrize("m, c, name", [
    (2, (1, 1e200j, 1), "gamma"),  # gamma = 1 - (1e200j)^2 / 2
    (3, (1, 1e200, 0, 0), "theta_2"),  # theta_2 = -3 * (1e200)^2 / 2
])
def test_structure_refuses_an_overflowed_theta_or_gamma(m, c, name):
    # gamma = (inf+nanj) gave the verdict diverges-finite-part
    with pytest.raises(ValueError, match=rf"^{name} = .* is not finite: the coefficients c overflow it$"):
        structure_from_ratio(RatioExpansion(0, m, c))


@pytest.mark.parametrize("theta, gamma, name", [
    ((float("nan"),), -2, "theta_0"),  # the verdict was "converges: |zeta| = 1, zeta != 1 ..."
    ((0,), float("nan"), "gamma"),  # the verdict raised "cannot convert float NaN to integer"
    ((0, mpmath.mpf("-inf")), 1, "theta_1"),
], ids=["nan-theta", "nan-gamma", "inf-theta"])
def test_hand_built_structure_refuses_a_non_finite_theta_or_gamma(theta, gamma, name):
    with pytest.raises(ValueError, match=rf"^{name} = .* is not finite: the coefficients c overflow it$"):
        StructuralParameters(mu=Fraction(0), m=len(theta), theta=theta, gamma=gamma,
                             zeta=1, sigma=Fraction(1), q=len(theta))


def _boundary_by_scan(gamma, m, zero_tol):
    """i of the first log-term boundary gamma = i/m - 1, scanning i = 0, 1, ... (or None)."""
    scaled = gamma * m
    tol = m * zero_tol
    i = 0
    while i - m <= scaled + (tol if zero_tol else 0):
        if (scaled - (i - m) == 0) if tol == 0 else abs(scaled - (i - m)) <= tol:
            return i
        i += 1
    return None


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_log_term_boundary_matches_the_scan(m):
    gammas = {Fraction(p, q) for q in range(1, 7) for p in range(-8 * q, 3 * q + 1)}
    for gamma in sorted(gammas):
        for g in (gamma, float(gamma), mpmath.mpf(gamma.numerator) / gamma.denominator):
            for zero_tol in (0, 0.0, 1e-12, 0.1, 0.25, 1 / 3, 0.5, 1, Fraction(1, 12)):
                sp = StructuralParameters(mu=Fraction(0), m=m, theta=(0,) * m, gamma=g,
                                          zeta=1, sigma=Fraction(1), q=m)
                # beside a Fraction tolerance an mpf is compared as its exact value (53 bits: a float)
                exact = isinstance(g, mpmath.mpf) and isinstance(zero_tol, Fraction)
                i = _boundary_by_scan(Fraction(float(g)) if exact else g, m, zero_tol)
                if i is not None:
                    expected = Verdict("indeterminate", f"gamma = {i}/{m} - 1: log-term boundary case")
                elif g < -1:
                    expected = Verdict("converges", "Q = 0 and Re gamma < -1")
                else:
                    expected = Verdict("diverges-finite-part",
                                       "Q = 0 and Re gamma >= -1: Hadamard finite part")
                assert convergence_verdict(sp, zero_tol) == expected, (g, m, zero_tol)


def test_far_log_term_boundary_is_found_at_once():
    # the scan took 5.4 s for gamma = 10**7, and never ended for 10**400
    start = time.perf_counter()
    for c1, i in ((10**7, 10**7 + 1), (Fraction(10**400), 10**400 + 1)):
        sp = structure_from_ratio(RatioExpansion(0, 1, (1, c1)))
        assert convergence_verdict(sp) == Verdict(
            "indeterminate", f"gamma = {i}/1 - 1: log-term boundary case")
    sp = structure_from_ratio(RatioExpansion(0, 1, (1, mpmath.mpf("1e400"))))
    assert convergence_verdict(sp).kind == "indeterminate"
    assert time.perf_counter() - start < 1


def test_verdict_cases():
    # Q = 0, Re gamma < -1: convergent
    sp = structure_from_ratio(RatioExpansion(0, 2, (1, 0, Fraction(-3, 2))))
    assert convergence_verdict(sp).kind == "converges"
    # |zeta| < 1 converges for every gamma
    sp = structure_from_ratio(
        RatioExpansion(0, 2, (Fraction(1, 2), 0, Fraction(5))), ctx=make_context(QUAD)
    )
    assert convergence_verdict(sp).kind == "converges"
    # s > 0 diverges with no finite part
    sp = structure_from_ratio(RatioExpansion(Fraction(1, 2), 2, (1, 0, 0)))
    assert convergence_verdict(sp).kind == "diverges-strongly"
    # s is mu * m: an s > 0 passed beside mu = 0 called a convergent ratio factorial growth
    sp = structure_from_ratio(RatioExpansion(0, 2, (1, 0, -1.5)))
    assert convergence_verdict(sp) == Verdict("converges", "Q = 0 and Re gamma < -1")


def test_verdict_finite_part_and_boundary():
    # Q = 0, gamma = -2/5 (off the i/m grid): Hadamard finite part
    sp = structure_from_ratio(RatioExpansion(0, 2, (1, 0, Fraction(-2, 5))))
    assert convergence_verdict(sp).kind == "diverges-finite-part"
    # gamma exactly at a log-term boundary (gamma + 1 = i/m) is flagged,
    # including gamma = -1 (i = 0) and gamma = -1/2 (i = 1, m = 2)
    for g in (Fraction(-1), Fraction(-1, 2)):
        sp = structure_from_ratio(RatioExpansion(0, 2, (1, 0, g)))
        assert convergence_verdict(sp).kind == "indeterminate"


def test_verdict_oscillatory_exponential(qctx):
    # theta_1 purely imaginary: Re Q = 0, so the gamma threshold -r/m decides
    c = (1, qctx.mpc(0, "0.5"), qctx.mpc(-1, 0))
    sp = structure_from_ratio(RatioExpansion(0, 2, tuple(c)), ctx=qctx, zero_tol=1e-30)
    # gamma = c_2 - c_1^2/2 = -0.875 < -1/2
    verdict = convergence_verdict(sp, zero_tol=1e-30)
    assert verdict.kind == "converges"
    # same phase but gamma above the threshold: Abel-summable divergence
    c2 = (1, qctx.mpc(0, "0.5"), qctx.mpc(0, 0))
    sp2 = structure_from_ratio(RatioExpansion(0, 2, tuple(c2)), ctx=qctx, zero_tol=1e-30)
    verdict2 = convergence_verdict(sp2, zero_tol=1e-30)
    assert verdict2.kind == "diverges-finite-part"


@pytest.mark.parametrize("mu, c, kind, condition", [
    (Fraction(-1, 2), (1, 0, 0), "converges",
     "s < 0: factorial decay dominates for every gamma"),
    (0, (2, 0, 0), "diverges-strongly", "Re theta_0 > 0 (|zeta| > 1): diverges for all gamma"),
    # zeta = -1: theta_0 = i*pi, and gamma = c_2/c_0 here
    (0, (-1, 0, 1), "converges", "|zeta| = 1, zeta != 1 and Re gamma < 0"),
    (0, (-1, 0, 0), "diverges-finite-part", "|zeta| = 1, zeta != 1 and Re gamma >= 0: Abel sum"),
    (0, (1, -1, 0), "converges", "Re theta_1 < 0: Re Q(n) -> -inf, converges for all gamma"),
    (0, (1, 1, 0), "diverges-strongly", "Re theta_1 > 0: Re Q(n) -> +inf"),
    # m = 3: theta_1 = i/2 leads with Re theta_1 = 0, but theta_2 = 3/8 is real
    (0, (1, 0.5j, 0, 0), "indeterminate", "mixed oscillatory/zero leading theta: case not covered"),
], ids=["s<0", "Re theta_0>0", "|zeta|=1 gamma<0", "|zeta|=1 gamma>=0", "Re theta_r<0",
        "Re theta_r>0", "mixed"])
def test_verdict_conditions(qctx, mu, c, kind, condition):
    sp = structure_from_ratio(RatioExpansion(mu, len(c) - 1, c), ctx=qctx)
    assert convergence_verdict(sp) == Verdict(kind, condition)
