import math
import re
import sys
import threading
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fracsum.sampling import Schedule, make_aps, make_explicit, make_gps, parse_schedule


def test_aps_identity_schedule():
    assert make_aps(1, 1).prefix(6) == [1, 2, 3, 4, 5, 6]


def test_aps_kappa_eta_5():
    assert make_aps(5, 5).prefix(5) == [5, 10, 15, 20, 25]


def test_aps_fractional_kappa():
    assert make_aps(1.5, 1).prefix(7) == [1, 2, 4, 5, 7, 8, 10]


def test_aps_decimal_semantics_at_integer_boundary():
    # binary 1.7 * 10 is 16.999...96; the exact decimal reading gives 17
    assert make_aps(1.7, 1).prefix(11)[10] == 18
    assert make_aps("1.7", "1").prefix(11) == make_aps(1.7, 1).prefix(11)


def test_aps_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_aps(0.5, 1)
    with pytest.raises(ValueError):
        make_aps(1, 0.5)


def test_exact_refuses_a_bool_or_another_type_and_names_a_zero_denominator():
    for bad in (True, [1], None, 1 + 2j):
        with pytest.raises(ValueError, match="^kappa must be a number or a fraction string, got "):
            make_aps(bad, 1)
    with pytest.raises(ValueError, match="^eta must be a number or a fraction string, got False$"):
        make_aps(1, False)
    with pytest.raises(ValueError, match="^tau '3/0' has a zero denominator$"):
        make_gps("3/0")
    with pytest.raises(ValueError, match="^bad value 'x' for tau$"):
        make_gps("x")


@pytest.mark.parametrize("kind, params, message", [
    ("foo", {}, "unknown schedule kind 'foo' (expected aps, gps or explicit)"),
    ("aps", {}, "kappa must be a number or a fraction string, got None"),
    ("aps", {"kappa": 2}, "eta must be a number or a fraction string, got None"),
    ("aps", {"kappa": Fraction(1, 2), "eta": 1},
     "kappa must be >= 1 (smaller values break strict ordering)"),
    ("aps", {"kappa": 1, "eta": 0.5}, "eta must be >= 1 (R_0 = floor(eta) must be >= 1)"),
    ("gps", {}, "tau must be a number or a fraction string, got None"),
    ("gps", {"tau": 1}, "tau must be > 1 (the schedule would stall)"),
    ("explicit", {}, "explicit schedule must be nonempty"),
    ("explicit", {"values": [1, 4, 4]}, "schedule must be strictly increasing, got 4 then 4"),
    ("explicit", {"values": [0, 3]}, "a schedule value must be a positive integer, got 0"),
    ("gps", {"tau": "1.3", "kappa": 2}, "gps schedules take no kappa"),
    ("aps", {"kappa": 1, "eta": 1, "values": [1, 2]}, "aps schedules take no values"),
    ("explicit", {"values": 5}, "values must be an iterable of integers, got 5"),
], ids=repr)
def test_schedule_checks_its_own_parameters(kind, params, message):
    # the constructor checked nothing: Schedule("gps", tau=1) ran as R_l = l + 1, and
    # Schedule("aps", kappa=1/2, eta=1) gave R = [1, 1, 2, 2, 3]; Schedule("gps", tau=1.3,
    # kappa=2) kept kappa, and Schedule("explicit", values=5) raised a bare TypeError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Schedule(kind, **params)


def test_schedule_reads_parameters_at_their_decimal_value():
    # repr raised AttributeError on a float kappa, which has no denominator
    assert repr(Schedule("aps", kappa=1.1, eta=1)) == "Schedule('aps:1.1,1')"
    assert Schedule("gps", tau="1.3").prefix(9) == make_gps(1.3).prefix(9)


def test_gps_tau_1_3_reference_values():
    R = make_gps(1.3).prefix(33)
    assert R[8] == 11
    assert [R[n] for n in (8, 12, 16, 20, 24, 28, 32)] == [11, 29, 80, 227, 646, 1842, 5258]


def test_gps_tau_2_powers():
    assert make_gps(2).prefix(6) == [1, 2, 4, 8, 16, 32]


def test_gps_tau_1_5():
    assert make_gps(1.5).prefix(8) == [1, 2, 3, 4, 6, 9, 13, 19]


def test_gps_rejects_and_warns():
    with pytest.raises(ValueError):
        make_gps(1)
    with pytest.raises(ValueError):
        make_gps(0.9)
    with pytest.warns(UserWarning):
        make_gps(2.5)


def test_schedule_prefix_forms():
    assert make_aps(1, 1).prefix(3) == [1, 2, 3]
    assert make_gps(1.3).prefix(9) == [1, 2, 3, 4, 5, 6, 7, 9, 11]
    assert make_explicit([1, 4, 9]).prefix(3) == [1, 4, 9]


def test_explicit_validation():
    with pytest.raises(ValueError):
        make_explicit([1, 4, 4])
    with pytest.raises(ValueError):
        make_explicit([0, 3])
    with pytest.raises(ValueError):
        make_explicit([])
    with pytest.raises(ValueError):
        make_explicit([1, 4, 9]).prefix(4)


def test_prefix_idempotent_and_monotone():
    for schedule in (make_aps("1.25", 2), make_gps("1.3"), make_gps("1.05")):
        first = schedule.prefix(60)
        again = schedule.prefix(60)
        assert first == again
        assert all(b > a for a, b in zip(first, first[1:]))
        assert first[0] >= 1


@pytest.mark.parametrize("kappa,eta", [(1, 1), ("1.5", 1), ("2.75", "3.5"), (7, 2)])
def test_aps_difference_bound(kappa, eta):
    schedule = make_aps(kappa, eta)
    k = Fraction(str(kappa)) if not isinstance(kappa, int) else Fraction(kappa)
    R = schedule.prefix(200)
    for a, b in zip(R, R[1:]):
        assert k - 1 < b - a < k + 1


# a rational >= 1 as a Fraction, or as a decimal string such as "2.375" (up to 4 decimals)
_AT_LEAST_ONE = st.one_of(
    st.fractions(min_value=1, max_value=50, max_denominator=10**6),
    st.integers(10**4, 50 * 10**4).map(lambda k: str(Decimal(k) / 10**4)),
)


@settings(max_examples=200, deadline=None)
@given(_AT_LEAST_ONE, _AT_LEAST_ONE, st.integers(1, 300))
def test_aps_prefix_is_the_floor_of_the_exact_line(kappa, eta, count):
    exact_kappa, exact_eta = Fraction(kappa), Fraction(eta)
    assert make_aps(kappa, eta).prefix(count) == [
        math.floor(exact_kappa * l + exact_eta) for l in range(count)]


def test_gps_ratio_approaches_tau():
    R = make_gps(1.3).prefix(61)
    for l in range(41, 61):
        assert abs(R[l] / R[l - 1] - 1.3) < 0.05


@pytest.mark.parametrize("tau", ["1.05", "1.1", "1.3", "1.5", "1.7", "1.9", "2"])
def test_gps_two_phase_closed_form(tau):
    t = Fraction(tau)
    L = math.ceil(Fraction(2) / (t - 1))
    R = make_gps(tau).prefix(50)
    for l in range(50):
        if l < L:
            assert R[l] == l + 1
        else:
            assert R[l] == math.floor(t * R[l - 1])


def _gps_closed_form(tau, count):
    """R_l = l + 1 below L = ceil(2/(tau - 1)), floor(tau * R_{l-1}) from there on."""
    t = Fraction(tau)
    L = math.ceil(Fraction(2) / (t - 1))
    R = []
    for l in range(count):
        R.append(l + 1 if l < L else math.floor(t * R[-1]))
    return R


def test_gps_prefix_from_six_threads_is_the_closed_form():
    schedule = make_gps("1.3")
    counts = [33, 1, 60, 7, 33, 45]
    results = {}

    def reader(i):
        results[i] = [schedule.prefix(c) for c in counts[i:] + counts[:i]]

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(6):
        assert results[i] == [_gps_closed_form("1.3", c) for c in counts[i:] + counts[:i]], i


def test_parse_schedule():
    assert parse_schedule("aps:5,5").prefix(2) == [5, 10]
    assert parse_schedule("gps:1.3").prefix(9)[8] == 11
    assert parse_schedule("list:1,2,4,8").prefix(4) == [1, 2, 4, 8]
    for bad in ("aps:1", "gps:", "rps:3", "list:1,x", "aps"):
        with pytest.raises(ValueError):
            parse_schedule(bad)


def test_spec_string_round_trip():
    for text in ("aps:5,5", "gps:1.3", "list:1,2,4,8", "aps:1.5,1"):
        schedule = parse_schedule(text)
        assert parse_schedule(schedule.spec_string()).prefix(4) == schedule.prefix(4)
