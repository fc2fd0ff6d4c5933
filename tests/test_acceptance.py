"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and nothing is recalibrated at
runtime.
"""

from fractions import Fraction

from fracsum.bench_cli import reproduce_all
from fracsum.classify import RatioExpansion, structure_from_ratio
from fracsum.numerics import DOUBLE, QUAD, make_context
from fracsum.sampling import make_gps, parse_schedule
from fracsum.series_model import builtin_ids, builtin_problem, resolve_known_S, sums_and_terms
from fracsum.transform import accelerate

from columns import columns
from oracles import (
    closed_partial_sum,
    dense_oracle,
    fit_ratio_coefficients,
    gamma_from_weights,
    lambda_from_weights,
    predicted_gamma,
    predicted_sigma,
)

CTX = make_context(QUAD)
_CACHE = {}


def _accelerated(ident, sched, depth):
    key = (ident, sched, depth)
    if key not in _CACHE:
        _CACHE[key] = accelerate(builtin_problem(ident), parse_schedule(sched), depth, CTX)
    return _CACHE[key]


def _ok(num, text):
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_1_schedule_exactness():
    R13 = make_gps("1.3").prefix(33)
    assert [R13[n] for n in range(8, 33, 4)] == [11, 29, 80, 227, 646, 1842, 5258]
    R11 = make_gps("1.1").prefix(49)
    assert [R11[n] for n in range(20, 49, 4)] == [22, 30, 42, 60, 86, 124, 179, 259]
    _ok(1, "GPS tau=1.3 and tau=1.1 reference prefixes match exactly")


def test_criterion_2_alternating_convergent():
    res = _accelerated("ex5_2", "aps:1,1", 28)
    assert abs(res.table.A[20] + 1) <= 1e-20
    for n in range(29):
        assert abs(res.table.gamma[n] - 1) <= 1e-20
    _ok(2, "ex5_2 error at n=20 <= 1e-20 and Gamma = 1 throughout")


def test_criterion_3_monotone_with_gps():
    res = _accelerated("ex5_1", "gps:1.3", 20)
    assert abs(res.table.A[16] + 1) <= 1e-10
    assert abs(res.table.A[20] + 1) <= 1e-17
    _ok(3, "ex5_1 with GPS tau=1.3 reaches 1e-10 at n=16 and 1e-17 at n=20")


def test_criterion_4_divergent_antilimit():
    res = _accelerated("ex5_4", "aps:1,1", 16)
    assert abs(res.table.A[16] + 1) <= 1e-12
    _ok(4, "ex5_4 antilimit error at n=16 <= 1e-12")


def test_criterion_5_stability_spot_rows():
    res = _accelerated("ex5_1", "aps:1,1", 40)
    gam = res.table.gamma[8]
    lam = res.table.lam[8]
    assert 1 / 5 <= gam / CTX.mpf("3.03e4") <= 5
    assert 1 / 5 <= lam / CTX.mpf("2.80e4") <= 5
    res7 = _accelerated("ex5_7", "aps:5,5", 32)
    assert 1 / 5 <= res7.table.gamma[12] / CTX.mpf("1.03e3") <= 5
    _ok(5, "Gamma/Lambda spot values within a factor of 5")


def test_criterion_6_instability_onset():
    res = _accelerated("ex5_1", "aps:1,1", 40)
    err = [abs(res.table.A[n] + 1) for n in range(41)]
    assert err[12] > err[20] > err[28]
    assert err[28] <= 1e-17
    assert err[40] > err[28]
    assert res.table.gamma[40] > 1e22
    _ok(6, "ex5_1 APS error bottoms out near n=28 and then grows as Gamma passes 1e22")


def test_criterion_7_product_with_known_limit():
    S = resolve_known_S(builtin_problem("ex7_1").known_S, CTX)
    res_gps = _accelerated("ex7_1", "gps:1.3", 32)
    assert abs(res_gps.table.A[20] - S) / abs(S) <= 1e-23
    res_aps = _accelerated("ex7_1", "aps:1,1", 32)
    assert abs(res_aps.table.A[16] - S) / abs(S) <= 1e-12
    _ok(7, "ex7_1 relative errors: GPS n=20 <= 1e-23, APS n=16 <= 1e-12")


def test_criterion_8_oracle_equivalence():
    checked = 0
    for ident in builtin_ids():
        problem = builtin_problem(ident)
        for sched in ("aps:1,1", "gps:1.3"):
            schedule = parse_schedule(sched)
            depth = 10
            R = schedule.prefix(depth + 1)
            sums, terms = sums_and_terms(problem, R[-1], CTX)
            sums = [CTX.zero] + sums
            terms = [None] + terms
            cols = columns(sums, terms, schedule, problem.m, problem.sigma_hat, depth, CTX)
            for j in range(3):
                for n in range(9):
                    d = dense_oracle(
                        sums, terms, schedule, problem.m, problem.sigma_hat, 0, j, n, CTX
                    )
                    assert abs(cols[j].A[n] - d.value) <= 1e-20 * abs(d.value), (ident, sched, j, n)
                    gam_w = gamma_from_weights(d)
                    lam_w = lambda_from_weights(d)
                    gam_r = cols[j].gamma[n]
                    lam_r = cols[j].lam[n]
                    assert abs(gam_w - gam_r) <= 1e-20 * gam_r, (ident, sched, j, n)
                    assert abs(lam_w - lam_r) <= 1e-20 * lam_r, (ident, sched, j, n)
                    # weight normalization, relative to the weight scale
                    # sum(|gamma_i|) (for Gamma ~ 1e10 even perfectly
                    # rounded weights cannot sum to 1 closer than Gamma*u)
                    assert abs(sum(d.weights) - 1) <= 1e-25 * max(1, gam_r), (ident, sched, j, n)
                    checked += 1
    assert checked == 16 * 2 * 27
    _ok(8, f"recursion matches dense solves on {checked} entries; weights normalized")


def test_criterion_9_telescoping_identity():
    from fracsum.series_model import TelescopingFamily, telescoping_terms

    families = [
        TelescopingFamily(1, 0, 2, (0, -1)),
        TelescopingFamily(2, 0, 2, (0, -1)),
        TelescopingFamily(1, 0, 2, (0, 1)),
        TelescopingFamily(2, 0, 2, (0, 1)),
        TelescopingFamily(1, 0, 2, (Fraction(-1, 5), 1)),
        TelescopingFamily(2, 0, 2, (Fraction(-1, 5), 1)),
        TelescopingFamily(1, 1, 2, (0, -1)),
        TelescopingFamily(2, 1, 2, (0, -1)),
        TelescopingFamily(1, -2, 3, (0, 1, 0)),
        TelescopingFamily(2, 1, 3, (Fraction(1, 2), 0, -1)),
        TelescopingFamily(1, 2, 4, (0, 0, -2, 0)),
    ]
    for family in families:
        problem = telescoping_terms(family)
        sums = sums_and_terms(problem, 200, CTX)[0]
        peak = CTX.zero
        for n, total in enumerate(sums, start=1):
            peak = max(peak, abs(total))
            closed = closed_partial_sum(family, n, CTX)
            assert abs(total - closed) <= 8 * n * CTX.eps * peak, (family, n)
    _ok(9, f"accumulated sums match closed forms within 8n ulps for {len(families)} families")


def test_criterion_10_classifier_round_trip():
    # numerically fitted ratio coefficients recover the closed-form structure
    cases = [
        ("ex5_1", 0), ("ex5_2", 0), ("ex5_3", 0), ("ex5_4", 0),
        ("ex5_7", 0), ("ex5_8", 0), ("ex5_11", 1), ("ex5_12", 1),
    ]
    for ident, s in cases:
        problem = builtin_problem(ident)
        family = problem.meta["family"]
        mu = Fraction(s, family.m)
        c = fit_ratio_coefficients(problem.term, mu, family.m, CTX)
        sp = structure_from_ratio(
            RatioExpansion(mu, family.m, tuple(c)), ctx=CTX, zero_tol=1e-8
        )
        # theta_i (i >= 1) match the family coefficients
        for i in range(1, family.m):
            assert abs(sp.theta[i] - CTX.convert(Fraction(family.theta[i]))) <= 1e-6, (ident, i)
        # theta_0 is the family value, shifted by i*pi for the alternating kind
        target0 = CTX.mpc(CTX.convert(Fraction(family.theta[0])), 0)
        if family.kind == 2:
            target0 += CTX.mpc(0, 1) * CTX.pi
        assert abs(sp.theta[0] - target0) <= 1e-6, ident
        # the classifier's normal form carries Gamma(n)^(s/m); the family
        # closed form carries (n!)^(s/m) = Gamma(n)^(s/m) * n^(s/m), so the
        # power-of-n exponent shifts by s/m between the two
        gamma_expected = predicted_gamma(family) + Fraction(s, family.m)
        assert abs(sp.gamma - CTX.convert(gamma_expected)) <= 1e-6, ident
        assert sp.sigma == predicted_sigma(family), ident
    # the product-ratio case is recovered exactly from exact inputs
    for m, t in ((2, 3), (5, 7)):
        c = [Fraction(0)] * (m + 1)
        c[0], c[m] = Fraction(1), Fraction(-t, m)
        sp = structure_from_ratio(RatioExpansion(0, m, tuple(c)))
        assert all(th == 0 for th in sp.theta)
        assert sp.gamma == Fraction(-t, m)
        assert sp.sigma == 1 and sp.q == m
    _ok(10, "fitted ratios recover (theta, gamma, sigma) to 1e-6; product case exact")


def test_criterion_11_estimator_reliability():
    cases = [
        ("ex5_1", "aps:1,1", 40),
        ("ex5_1", "gps:1.3", 32),
        ("ex5_2", "aps:1,1", 32),
        ("ex5_7", "aps:1,1", 64),
        ("ex5_7", "aps:5,5", 32),
        ("ex5_8", "aps:1,1", 32),
        ("ex7_1", "aps:1,1", 32),
        ("ex7_1", "gps:1.3", 32),
    ]
    for ident, sched, depth in cases:
        problem = builtin_problem(ident)
        res = _accelerated(ident, sched, depth)
        S = resolve_known_S(problem.known_S, CTX)
        true_rel = abs(res.value - S) / abs(S)
        assert true_rel <= 100 * res.est_rel_error, (ident, sched)
    _ok(11, "true relative error at the selected entry <= 100x the estimate")


def test_reference_tables_quad():
    report = reproduce_all(QUAD)
    assert report.exit_code == 0, report.text()
    print("[PASS] reference tables: all 25 tables reproduce at quad (exit 0)")


def test_reference_tables_double_policy():
    report = reproduce_all(DOUBLE)
    assert report.exit_code == 2, report.text()
    assert all(o.count("fail") == 0 for o in report.outcomes), report.text()
    assert any(o.count("precision-limited") for o in report.outcomes)
    print("[PASS] reference tables: double run passes checkable rows, skips are marked (exit 2)")
