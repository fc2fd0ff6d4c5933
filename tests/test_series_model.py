import json
import random
import re
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fracsum import series_model
from fracsum.bench_cli import RunConfig, run
from fracsum.classify import RatioExpansion
from fracsum.numerics import DOUBLE, QUAD, RangeOverflowError, make_context
from fracsum.sampling import make_aps, make_explicit, make_gps
from fracsum.series_model import (
    ProductProblem,
    SeriesProblem,
    TelescopingFamily,
    ZeroPartialProductError,
    builtin_ids,
    builtin_problem,
    load_problem,
    product_to_series,
    resolve_known_S,
    sums_and_terms,
    telescoping_terms,
    trig_series_pair,
)
from fracsum.transform import accelerate

from oracles import EXPONENTIAL_BUILTINS, closed_partial_sum, telescoping_term, trig_pair_term

# the factors v_n of the builtin products, which arrive as their series
EX7_1 = ProductProblem("ex7_1", lambda n, ctx: ctx.mpf(-1) / (4 * n * n), m=1, t=2)
EX7_2 = ProductProblem("ex7_2", lambda n, ctx: ctx.power(n, ctx.mpf(-3) / 2), m=2, t=3)


def test_partial_sums_first_term_ex5_1(qctx):
    p = builtin_problem("ex5_1")
    sums = sums_and_terms(p, range(1, 4), qctx)[0]
    assert sums[0] == qctx.exp(-1) - 1  # a_1 = e^-1 - e^0
    assert abs(abs(sums[0] + 1) - qctx.mpf("0.368")) < 5e-4


def test_partial_sums_zero_series(qctx):
    p = SeriesProblem("zeros", lambda n, ctx: ctx.zero, m=1)
    assert all(s == 0 for s in sums_and_terms(p, range(1, 11), qctx)[0])


def test_partial_sums_ex5_5_row(qctx):
    sums = sums_and_terms(builtin_problem("ex5_5"), range(1, 6), qctx)[0]
    assert abs(sums[4] - qctx.mpf("29.2")) <= 0.007 * qctx.mpf("29.2")


def test_partial_sums_overflow_names_index(dctx):
    p = SeriesProblem("grower", lambda n, ctx: ctx.exp(n), m=1)
    with pytest.raises(RangeOverflowError, match=r"A_7\d\d"):
        sums_and_terms(p, range(1, 741), dctx)


def test_partial_sums_overflow_names_an_infinite_term(qctx, dctx):
    # a finite term beyond the range is not called infinite (mpmath's exponent is unbounded)
    big = SeriesProblem("big", lambda n, ctx: ctx.mpf("1e5000"), m=1)
    with pytest.raises(RangeOverflowError, match=r"^partial sum A_1 exceeds the quad exponent "
                                                 r"range \(\|value\| > 1e4932\)$"):
        sums_and_terms(big, range(1, 3), qctx)
    for ctx in (qctx, dctx):
        infinite = SeriesProblem("inf", lambda n, ctx: -ctx.inf if n == 3 else ctx.one, m=1)
        with pytest.raises(RangeOverflowError, match=r"^partial sum A_3 exceeds the .*: its term a_3 "
                                                     r"is infinite$"):
            sums_and_terms(infinite, range(1, 5), ctx)


def test_partial_sums_rejects_bad_indices(qctx):
    calls = []
    counted = SeriesProblem("counted", lambda n, ctx: calls.append(n) or ctx.one, m=1)
    for indices in (range(1, 1), [], [0, 1], [-2, 3], [2, 2], [1, 3, 2]):
        with pytest.raises(ValueError, match=r"^indices must be nonempty, positive and strictly "):
            sums_and_terms(counted, indices, qctx)
    assert calls == []


def test_partial_sums_at_indices_are_those_of_the_full_pass(qctx, dctx):
    # the kept sums and terms, bit for bit, with every term evaluated once and in order;
    # the terms turn complex at n = 5, between two kept indices
    for ctx in (qctx, dctx):
        calls = []

        def term(n, ctx):
            calls.append(n)
            return ctx.one / n if n < 5 else ctx.mpc(1, n) / n ** 3

        problem = SeriesProblem("counted", term, m=1)
        full = sums_and_terms(problem, range(1, 10), ctx)
        del calls[:]
        kept = [2, 3, 7, 9]
        sums, terms = sums_and_terms(problem, kept, ctx)
        assert calls == list(range(1, 10))
        assert (sums, terms) == tuple([values[k - 1] for k in kept] for values in full)
        assert [type(s) for s in sums] == [type(full[0][k - 1]) for k in kept]


def test_terms_are_converted_only_where_the_loop_refuses_them(qctx, dctx):
    # Python numbers are converted on both sides of the switch to complex at n = 4;
    # a term that is already a real of the context is kept as the very object returned
    for ctx in (qctx, dctx):
        returned = [ctx.convert(1) / 7, 2, 0.5, 1j, 4, 2.5, ctx.convert(3) / 7]
        sums, terms = sums_and_terms(SeriesProblem("mixed", lambda n, c: returned[n - 1], m=1),
                                     range(1, 8), ctx)
        want = [ctx.convert(v) for v in returned]
        assert terms == want and [type(t) for t in terms] == [type(t) for t in want]
        assert terms[0] is returned[0]
        assert sums[-1] == sum(want[1:], want[0])


def test_telescoping_example_terms(qctx):
    # kind 1, s=0, Q = -sqrt(n) reproduces the e^(-sqrt n) difference terms
    p = telescoping_terms(TelescopingFamily(1, 0, 2, (0, -1)))
    a2 = p.term(2, qctx)
    assert abs(a2 - (qctx.exp(-qctx.sqrt(2)) - qctx.exp(-1))) <= 4 * qctx.eps * abs(a2)
    assert p.known_S == -1
    # kind 2, s=0, Q = +sqrt(n)
    q = telescoping_terms(TelescopingFamily(2, 0, 2, (0, 1)))
    a3 = q.term(3, qctx)
    ref = -(qctx.exp(qctx.sqrt(3)) + qctx.exp(qctx.sqrt(2)))
    assert abs(a3 - ref) <= 4 * qctx.eps * abs(ref)
    # kind 1 with s=1 carries the sqrt(n!) factor
    r = telescoping_terms(TelescopingFamily(1, 1, 2, (0, -1)))
    a4 = r.term(4, qctx)
    ref4 = qctx.sqrt(24) * qctx.exp(-2) - qctx.sqrt(6) * qctx.exp(-qctx.sqrt(3))
    assert abs(a4 - ref4) <= 8 * qctx.eps * abs(ref4)


def test_telescoping_family_validation():
    with pytest.raises(ValueError):
        TelescopingFamily(3, 0, 2, (0, 1))
    with pytest.raises(ValueError):
        TelescopingFamily(1, 0, 2, (0,))
    with pytest.raises(ValueError):
        TelescopingFamily(1, 0, 2, (0, 0))  # a_n identically zero


FAMILIES = [
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
    TelescopingFamily(1, 0, 2, (0, 1j)),  # complex phase
]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"k{f.kind}s{f.s}m{f.m}")
def test_telescoping_identity_short(qctx, family):
    p = telescoping_terms(family)
    sums = sums_and_terms(p, range(1, 61), qctx)[0]
    peak = qctx.zero
    for n, total in enumerate(sums, start=1):
        peak = max(peak, abs(total))
        closed = closed_partial_sum(family, n, qctx)
        assert abs(total - closed) <= 8 * n * qctx.eps * peak, n


def test_product_first_partial_product(qctx):
    p = builtin_problem("ex7_1")
    assert p.term(1, qctx) == qctx.mpf(3) / 4  # A_1 = 1 - 1/4
    S = resolve_known_S(p.known_S, qctx)
    assert abs(S - 2 / qctx.pi) == 0


def test_product_empty(qctx):
    p = product_to_series(ProductProblem("one", lambda n, ctx: ctx.zero, m=1, t=2))
    assert p.term(1, qctx) == 1
    assert p.term(5, qctx) == 0


def test_product_ex7_2_row(qctx):
    sums = sums_and_terms(builtin_problem("ex7_2"), range(1, 6), qctx)[0]
    assert abs(sums[4] - qctx.mpf("3.96")) <= 0.007 * qctx.mpf("3.96")


def test_builtin_products_are_the_series_of_their_factors(qctx, dctx):
    for ident, factors in (("ex7_1", EX7_1), ("ex7_2", EX7_2)):
        builtin = builtin_problem(ident)
        assert isinstance(builtin, SeriesProblem)
        assert (builtin.m, builtin.meta["describe"]) == (factors.m, f"product, m={factors.m}, t={factors.t}")
        for ctx in (qctx, dctx):
            series = product_to_series(factors)
            assert [builtin.term(n, ctx) for n in range(1, 41)] == [
                series.term(n, ctx) for n in range(1, 41)], (ident, ctx)
    problem, _ = load_problem({"builtin": "ex7_1", "name": "wallis"})
    assert isinstance(problem, SeriesProblem) and problem.name == "wallis"


def test_product_round_trip(qctx):
    for ident, problem in (("ex7_1", EX7_1), ("ex7_2", EX7_2)):
        sums = sums_and_terms(builtin_problem(ident), range(1, 121), qctx)[0]
        prod = qctx.one
        for n in range(1, 121):
            prod *= 1 + problem.v(n, qctx)
            assert abs(sums[n - 1] - prod) <= 4 * n * qctx.eps * abs(prod)


def test_product_zero_partial_product(qctx):
    bad = ProductProblem("dies", lambda n, ctx: ctx.mpf(-1) if n == 3 else ctx.zero, m=1, t=2)
    series = product_to_series(bad)
    with pytest.raises(ZeroPartialProductError, match="A_3"):
        sums_and_terms(series, range(1, 6), qctx)
    # the stream that raised is not resumed: every later term restarts and raises or returns
    for n in (4, 5):
        with pytest.raises(ZeroPartialProductError, match="A_3"):
            series.term(n, qctx)
    assert (series.term(2, qctx), series.term(3, qctx)) == (0, -1)


def _product_terms(problem, upto, ctx):
    """a_1..a_upto from the recurrence A_n = A_{n-1} (1 + v_n), A_0 = 1."""
    prod, terms = ctx.one, []
    for n in range(1, upto + 1):
        v = problem.v(n, ctx)
        terms.append(prod * (1 + v) if n == 1 else v * prod)
        prod = prod * (1 + v)
    return terms


def test_product_in_order_terms_call_v_once_each(qctx, dctx):
    calls = []

    def v(n, ctx):
        calls.append((n, ctx))
        return ctx.mpf(-1) / (4 * n * n)

    series = product_to_series(ProductProblem("counted", v, m=1, t=2))
    for n in range(1, 51):  # two contexts interleaved, each in order
        series.term(n, qctx)
        series.term(n, dctx)
    assert calls == [(n, ctx) for n in range(1, 51) for ctx in (qctx, dctx)]


def test_product_out_of_order_terms_are_bit_exact(qctx, dctx):
    for ident, factors in (("ex7_1", EX7_1), ("ex7_2", EX7_2)):
        for ctx in (qctx, dctx):
            ref = _product_terms(factors, 40, ctx)
            series = builtin_problem(ident)
            assert [series.term(n, ctx) for n in range(1, 41)] == ref
            for n in (17, 3, 40, 40, 1, 2, 39, 25, 26):
                assert series.term(n, ctx) == ref[n - 1], (ident, n)


def _read_concurrently(problem, upto, ctx):
    """a_1..a_upto of *problem* as each of six threads reads them, in order, at once."""
    results = {}
    start = threading.Barrier(6)

    def reader(i):
        start.wait()
        results[i] = [problem.term(n, ctx) for n in range(1, upto + 1)]

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
    return list(results.values())


def test_product_terms_under_concurrent_readers(dctx):
    for ident, factors in (("ex7_1", EX7_1), ("ex7_2", EX7_2)):
        ref = _product_terms(factors, 60, dctx)
        assert _read_concurrently(builtin_problem(ident), 60, dctx) == [ref] * 6, ident

    # a second reader asks for a_3 while the first is inside the stream's v_3
    inside, resume = threading.Event(), threading.Event()

    def v(n, ctx):
        if n == 3 and threading.current_thread() is first:
            inside.set()
            resume.wait(timeout=60)
        return EX7_1.v(n, ctx)

    series = product_to_series(ProductProblem("paused", v, m=1, t=2))
    ref = _product_terms(EX7_1, 4, dctx)
    results = {}
    first = threading.Thread(target=lambda: results.update(
        first=[series.term(n, dctx) for n in range(1, 5)]))
    first.start()
    try:
        assert inside.wait(timeout=60)
        assert series.term(3, dctx) == ref[2]
    finally:
        resume.set()
        first.join(timeout=60)
    assert results == {"first": ref}


def _check_any_order_and_concurrent_readers(make, ref, ctx):
    """A fresh make() gives a_1..a_60 = ref in a shuffled order, and to six concurrent readers."""
    shuffled = list(range(1, 61))
    random.Random(7).shuffle(shuffled)
    problem = make()
    for n in shuffled + [40, 40, 41, 1, 2]:
        assert problem.term(n, ctx) == ref[n - 1], (n, ctx)
    assert _read_concurrently(make(), 60, ctx) == [ref] * 6, ctx


def test_ex5_14_terms_in_any_order_and_under_concurrent_readers(qctx, dctx):
    for ctx in (qctx, dctx):
        ref = [ctx.power(n, ctx.sqrt(3)) / (1 + ctx.sqrt(n)) for n in range(1, 61)]
        _check_any_order_and_concurrent_readers(lambda: builtin_problem("ex5_14"), ref, ctx)


def _trig_pair(s):
    u1, u2 = (0, Fraction(-1, 3), Fraction(1, 7)), (Fraction(1, 3), 1, Fraction(-2, 7))
    return trig_series_pair(lambda n, ctx: ctx.one / n, u1, u2, s, 2)


STREAMED_SOURCES = {  # id: a fresh problem, whose in-order terms are the reference
    "trig-s1-plus": lambda: _trig_pair(1)[0],
    "trig-s-1-minus": lambda: _trig_pair(-1)[1],
    "expression-real": lambda: load_problem(
        {"expression": "(-1)**n*exp(loggamma(n+1)/2 - sqrt(n))", "m": 2})[0],
    "expression-complex": lambda: load_problem({"expression": "exp((-1+i)*sqrt(n))", "m": 2})[0],
}


@pytest.mark.parametrize("source", sorted(STREAMED_SOURCES))
def test_trig_and_expression_terms_in_any_order_and_under_concurrent_readers(qctx, dctx, source):
    make = STREAMED_SOURCES[source]
    for ctx in (qctx, dctx):
        in_order = make()
        ref = [in_order.term(n, ctx) for n in range(1, 61)]
        _check_any_order_and_concurrent_readers(make, ref, ctx)


def test_expression_term_raises_at_its_pole_only(qctx, dctx):
    # the stream that raised is not resumed: later terms start a fresh one
    pole = re.escape("expression '1/(n - 3)' fails at n = 3: division by zero")
    for ctx in (qctx, dctx):
        problem, _ = load_problem({"expression": "1/(n - 3)", "m": 1})
        assert [problem.term(n, ctx) for n in (1, 2)] == [-0.5, -1]
        with pytest.raises(ValueError, match=pole):
            problem.term(3, ctx)
        assert (problem.term(4, ctx), problem.term(2, ctx)) == (1, -1)
        with pytest.raises(ValueError, match=pole):
            problem.term(3, ctx)


MEMO_FAMILIES = [
    (kind, s, m, (Fraction(-1, 5),) + tuple(Fraction((-1) ** i, i + 1) for i in range(1, m)))
    for kind in (1, 2)
    for s in (-2, 0, 1)
    for m in (2, 3, 4)
]


def _family_id(spec):
    kind, s, m, _ = spec
    return f"k{kind}s{s}m{m}"


@pytest.mark.parametrize("spec", MEMO_FAMILIES, ids=_family_id)
def test_telescoping_in_order_terms_match_oracle(qctx, dctx, spec):
    series = telescoping_terms(TelescopingFamily(*spec))
    for n in range(1, 61):  # two contexts interleaved, each in order
        for ctx in (qctx, dctx):
            assert series.term(n, ctx) == telescoping_term(*spec, n, ctx), (n, ctx)


@pytest.mark.parametrize("spec", MEMO_FAMILIES, ids=_family_id)
def test_telescoping_out_of_order_terms_are_bit_exact(qctx, dctx, spec):
    for ctx in (qctx, dctx):
        series = telescoping_terms(TelescopingFamily(*spec))
        for n in (17, 3, 40, 40, 1, 2, 39, 25, 26):
            assert series.term(n, ctx) == telescoping_term(*spec, n, ctx), n


def test_telescoping_terms_under_concurrent_readers(dctx):
    spec = (1, 1, 3, (Fraction(-1, 5), Fraction(-1, 2), Fraction(1, 3)))
    ref = [telescoping_term(*spec, n, dctx) for n in range(1, 61)]
    assert _read_concurrently(telescoping_terms(TelescopingFamily(*spec)), 60, dctx) == [ref] * 6


def test_telescoping_in_order_terms_evaluate_each_delta_once(qctx, dctx, monkeypatch):
    calls = []  # (n, ctx) of each evaluation of the log of the family's factor delta_n
    loop = series_model._LogFactor.loop

    def counted(self, ctx):
        ar, log = loop(self, ctx)

        def log_delta(n):
            calls.append((n, ctx))
            return log(n)

        return ar, log_delta

    monkeypatch.setattr(series_model._LogFactor, "loop", counted)
    # kind 2 of the delta stream reads delta_{n-1}; kind 0 (ex5_9's a_n = delta_n) does not
    for series, jump in ((telescoping_terms(TelescopingFamily(2, 1, 2, (0, -1))), [999, 1000]),
                         (builtin_problem("ex5_9"), [1000])):
        calls.clear()
        for n in range(1, 51):  # two contexts interleaved, each in order
            series.term(n, qctx)
            series.term(n, dctx)
        assert calls == [(n, ctx) for n in range(1, 51) for ctx in (qctx, dctx)]
        calls.clear()
        series.term(1000, qctx)  # out of order: both deltas of a difference, one of kind 0
        assert calls == [(n, qctx) for n in jump]
        series.term(1001, qctx)  # in order again: one more
        assert calls == [(n, qctx) for n in jump + [1001]]


_LEAVES = ["n", "(n + 1)", "2", "mpf(1)/3", "pi", "e", "i"]
_UNARY = ["sqrt", "exp", "log", "sin", "cos", "tan", "atan", "gamma", "loggamma", "factorial",
          "floor", "ceil", "fabs", "abs", "re", "im", "conj"]


def _expressions():
    """Sums, products and quotients of up to three f(x), x and power(x, y).

    Functions are never nested, so every argument is n + 1 or less, and
    every evaluation stays fast at both presets.
    """
    leaf = st.sampled_from(_LEAVES)
    atom = (
        leaf
        | st.tuples(st.sampled_from(_UNARY), leaf).map("{0[0]}({0[1]})".format)
        | st.tuples(leaf, leaf).map("power({0[0]}, {0[1]})".format)
    )
    ops = st.lists(st.sampled_from("+-*/"), max_size=2)
    return st.tuples(atom, ops, st.lists(atom, min_size=2, max_size=2)).map(
        lambda t: " ".join([t[0]] + [f"{op} {x}" for op, x in zip(t[1], t[2])])
    )


def _fresh_eval(expr, n, ctx):
    """The expression at n with every name bound afresh, as a term once did.

    A ValueError or a division by zero becomes the term's ValueError,
    which names the expression and n, and a division by zero in the same
    words at both presets.
    """
    env = {name: getattr(ctx, name) for name in _UNARY + ["power"] if name != "abs"}
    env.update(n=ctx.mpf(n), pi=ctx.pi, e=ctx.exp(ctx.one), i=ctx.mpc(0, 1), abs=abs, mpf=ctx.mpf)
    try:
        return ctx.convert(eval(expr, {"__builtins__": {}}, env))
    except (ValueError, ZeroDivisionError) as exc:
        reason = "division by zero" if isinstance(exc, ZeroDivisionError) else exc
        raise ValueError(f"expression {expr!r} fails at n = {n}: {reason}") from None


def _outcome(fn):
    try:
        value = fn()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return type(value), repr(value)


@settings(max_examples=200, deadline=None)
@given(expr=_expressions(), ns=st.lists(st.integers(1, 300), min_size=1, max_size=4))
def test_expression_terms_equal_fresh_eval(qctx, dctx, expr, ns):
    problem, _ = load_problem({"expression": expr, "m": 1})
    for n in ns:
        for ctx in (qctx, dctx):
            assert _outcome(lambda: problem.term(n, ctx)) == _outcome(
                lambda: _fresh_eval(expr, n, ctx)
            ), (expr, n, ctx)


def test_product_validation():
    with pytest.raises(ValueError):
        ProductProblem("bad", lambda n, ctx: ctx.zero, m=2, t=2)


_M_TAKERS = {
    "SeriesProblem": lambda m: SeriesProblem("bad m", lambda n, ctx: ctx.one, m=m),
    "ProductProblem": lambda m: ProductProblem("bad m", lambda n, ctx: ctx.zero, m=m, t=3),
    "RatioExpansion": lambda m: RatioExpansion(0, m, (1, 0, 0)),
    "TelescopingFamily": lambda m: TelescopingFamily(1, 0, m, (0, -1)),
    "trig_series_pair": lambda m: trig_series_pair(lambda n, ctx: ctx.one, (0,), (0, 1), 0, m),
}


@pytest.mark.parametrize("m", [2.0, 2.5, True, False, 0, -1, "2", Fraction(2)], ids=repr)
@pytest.mark.parametrize("taker", sorted(_M_TAKERS))
def test_m_must_be_a_positive_integer(taker, m):
    # a float, a bool, a string or a Fraction m was taken, or failed with
    # a TypeError or a message about sigma_hat
    with pytest.raises(ValueError, match=re.escape(f"m must be a positive integer, got {m!r}")):
        _M_TAKERS[taker](m)


# every other integer parameter by the same rule: a numbers.Integral, not a bool;
# s = 0.5 summed as s = 0 at quad and as s = 0.5 at double, and kind = True as kind 1
_INTEGER_TAKERS = {
    "TelescopingFamily.s": ("s", lambda k: TelescopingFamily(1, k, 2, (0, -1))),
    "TelescopingFamily.kind": ("kind", lambda k: TelescopingFamily(k, 0, 2, (0, -1))),
    "trig_series_pair.s": (
        "s", lambda k: trig_series_pair(lambda n, ctx: ctx.one, (0,), (0, 1), k, 2)),
    "ProductProblem.t": ("t", lambda k: ProductProblem("bad t", lambda n, ctx: ctx.zero, m=1, t=k)),
    "make_explicit": ("a schedule value", lambda k: make_explicit([k, 5, 7])),
    "Schedule.prefix": ("count", lambda k: make_aps(1, 1).prefix(k)),
    "RunConfig.stride": ("stride", lambda k: run(RunConfig(problem="ex5_1", depth=4, stride=k))),
    "accelerate.depth": (
        "depth", lambda k: accelerate(builtin_problem("ex5_1"), make_aps(1, 1), k, make_context(QUAD))),
}


@pytest.mark.parametrize("k", [0.5, 2.0, True, False, "2", Fraction(2)], ids=repr)
@pytest.mark.parametrize("taker", sorted(_INTEGER_TAKERS))
def test_integer_parameters_refuse_non_integers(taker, k):
    name, take = _INTEGER_TAKERS[taker]
    message = rf"^{name} must be an? (positive |nonnegative )?integer, got {re.escape(repr(k))}$"
    with pytest.raises(ValueError, match=message):
        take(k)


def test_generator_determinism(qctx):
    for ident in ("ex5_11", "ex7_2", "ex5_14"):
        a = sums_and_terms(builtin_problem(ident), range(1, 41), qctx)[0]
        b = sums_and_terms(builtin_problem(ident), range(1, 41), qctx)[0]
        assert a == b  # bit-exact


def test_trig_pair_zero_phase(qctx):
    plus, minus = trig_series_pair(lambda n, ctx: 1 / ctx.mpf(n) ** 2, (0,), (0,), 0, 2,
                                   h_is_real=True)
    for n in (1, 2, 5):
        assert plus.term(n, qctx) == minus.term(n, qctx)
    assert plus.meta["h_is_real"] is True


def test_trig_pair_terms_keep_constants_per_context(qctx, dctx):
    def pair():
        return trig_series_pair(lambda n, ctx: ctx.one, (0, Fraction(-1, 3), Fraction(1, 7)),
                                (Fraction(1, 3), 1, Fraction(-2, 7)), -1, 2)

    shared = pair()
    for n in (1, 2, 9, 40):
        for ctx in (qctx, dctx):  # interleaved on one pair, each against a fresh pair
            fresh = pair()
            for branch in (0, 1):
                assert shared[branch].term(n, ctx) == fresh[branch].term(n, ctx), (n, ctx)


@pytest.mark.parametrize("ident", sorted(EXPONENTIAL_BUILTINS))
def test_exponential_builtin_terms_match_hand_written_formulas(qctx, dctx, ident):
    formula = EXPONENTIAL_BUILTINS[ident]
    shuffled = list(range(1, 301))
    random.Random(7).shuffle(shuffled)
    for ctx in (qctx, dctx):
        for order in (range(1, 301), shuffled):
            problem = builtin_problem(ident)
            for n in order:
                assert problem.term(n, ctx) == formula(n, ctx), (n, ctx)


def test_trig_pair_without_factorial_matches_term_by_term_sum(qctx, dctx):
    def h(n, ctx):
        return 1 / ctx.mpf(n) ** 2

    u1, u2 = (Fraction(1, 3), Fraction(-1, 2), Fraction(1, 7)), (Fraction(1, 3), 1, Fraction(-2, 7))
    pair = trig_series_pair(h, u1, u2, 0, 2)
    for ctx in (qctx, dctx):
        for n in (1, 2, 3, 9, 40, 300, 7):
            for sign, problem in zip((1, -1), pair):
                assert problem.term(n, ctx) == trig_pair_term(h, u1, u2, 2, sign, n, ctx), (n, ctx)


def test_trig_pair_complex_h_probe():
    # h is never probed: a pair is real-h only when the caller says so
    for h in (lambda n, ctx: ctx.mpc(1, 1) / n**2, lambda n, ctx: 1 / ctx.mpf(n) ** 2):
        plus, minus = trig_series_pair(h, (0,), (0, 1), 0, 2)
        assert plus.meta["h_is_real"] is minus.meta["h_is_real"] is False


def test_trig_pair_degree_check():
    with pytest.raises(ValueError):
        trig_series_pair(lambda n, ctx: ctx.one, (0, 1, 2, 3), (0,), 0, 2)


@pytest.mark.parametrize("u1,u2,label", [
    ((0, 1j), (0, 1), "u1[1] = 1j"),
    ((0,), (0, 1, complex(2, 0)), "u2[2] = (2+0j)"),
    ((lambda ctx: ctx.mpc(1, 1),), (0, 1), "u1[0] = mpc"),
], ids=["complex-u1", "zero-imaginary-u2", "mpc-u1"])
def test_trig_pair_rejects_complex_coefficients(qctx, u1, u2, label):
    # with u1 = (0, 1j) the pair returned exp(i*sqrt(n)) h(n) at n = 2, not
    # exp(2i*sqrt(n)) h(n): ctx.mpc(growth, phase) dropped the growth's
    # imaginary part, and with a complex phase it dropped the phase
    u1 = tuple(c(qctx) if callable(c) else c for c in u1)
    with pytest.raises(ValueError, match=re.escape(label)):
        trig_series_pair(lambda n, ctx: 1 / ctx.mpf(n) ** 2, u1, u2, 0, 2)


def test_sigma_hat_validation():
    with pytest.raises(ValueError):
        SeriesProblem("bad", lambda n, ctx: ctx.one, m=2, sigma_hat=Fraction(1, 3))
    with pytest.raises(ValueError):
        SeriesProblem("bad", lambda n, ctx: ctx.one, m=2, sigma_hat=2)
    # a float at its decimal value, as in a problem file or a schedule: binary 0.1 was refused for m = 10
    assert SeriesProblem("x", lambda n, ctx: ctx.one, m=10, sigma_hat=0.1).sigma_hat == Fraction(1, 10)
    assert SeriesProblem("x", lambda n, ctx: ctx.one, m=4, sigma_hat="-3/4").sigma_hat == Fraction(-3, 4)
    for bad, message in [(True, "sigma_hat must be a number or a fraction string, got True"),
                         ([1], "sigma_hat must be a number or a fraction string, got [1]"),
                         ("1/0", "sigma_hat '1/0' has a zero denominator"),
                         (float("nan"), "bad value nan for sigma_hat")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SeriesProblem("bad", lambda n, ctx: ctx.one, m=2, sigma_hat=bad)


@pytest.mark.parametrize("known_S, message", [
    (True, "known_S must be a number or an expression string, got True"),
    ([1], "known_S must be a number or an expression string, got [1]"),
    (float("inf"), "known_S must be finite, got inf"),
    (float("nan"), "known_S must be finite, got nan"),
    (complex(1, float("-inf")), "known_S must be finite, got (1-infj)"),
], ids=repr)
def test_known_S_is_checked_for_every_caller(known_S, message):
    # known_S = True ran sum(1/n^2) with S = 1 and reported a true error of 0.645
    match = f"^{re.escape(message)}$"
    with pytest.raises(ValueError, match=match):
        SeriesProblem("bad", lambda n, ctx: 1 / ctx.mpf(n) ** 2, m=1, known_S=known_S)
    with pytest.raises(ValueError, match=match):  # a product too, when it is built
        ProductProblem("bad", lambda n, ctx: ctx.zero, m=1, t=2, known_S=known_S)


def test_known_S_takes_none_a_number_a_callable_or_a_string(qctx):
    for known_S in (None, -1, Fraction(1, 3), 0.5, 1j, qctx.pi, lambda ctx: 2 / ctx.pi):
        problem = SeriesProblem("ok", lambda n, ctx: ctx.one, m=1, known_S=known_S)
        assert problem.known_S is known_S
    # a string is an expression, kept as its callable
    problem = SeriesProblem("ok", lambda n, ctx: ctx.one, m=1, known_S="1.5")
    assert resolve_known_S(problem.known_S, qctx) == qctx.mpf("1.5")


@pytest.mark.parametrize("precision", [QUAD, DOUBLE], ids=["quad", "double"])
def test_known_S_string_from_python_is_the_files_expression(precision):
    # it was taken as a decimal number: accelerate raised "cannot create mpf from 'pi*pi/6'"
    ctx = make_context(precision)
    problem = SeriesProblem("x", lambda n, ctx: 1 / ctx.mpf(n) ** 2, m=1, known_S="pi*pi/6")
    from_file, _ = load_problem({"expression": "1/n**2", "m": 1, "known_S": "pi*pi/6"})
    assert resolve_known_S(problem.known_S, ctx) == resolve_known_S(from_file.known_S, ctx)
    if precision is QUAD:
        result = accelerate(problem, make_gps("1.3"), 24, ctx)
        assert result.rows[result.best[1]].true_error < 1e-30
    for bad, message in [("pi*pi/", "known_S 'pi*pi/' is not valid syntax"),
                         ("n + 1.6449", "known_S 'n + 1.6449' uses n; known_S is the limit")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            SeriesProblem("x", lambda n, ctx: ctx.one, m=1, known_S=bad)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            ProductProblem("x", lambda n, ctx: ctx.zero, m=1, t=2, known_S=bad)


def test_expression_literals_are_taken_at_the_working_precision(qctx, dctx):
    # 1/3 was a binary64 quotient: at quad the true error was 3.04e-17 beside an
    # estimate of 2.01e-31, and a known_S of "1/6" was 0.1666666666666666574...
    problem, _ = load_problem({"expression": "1/3/n**2", "m": 1, "known_S": "1/6"})
    for ctx in (qctx, dctx):
        for n in (1, 2, 7, 40):
            assert problem.term(n, ctx) == ctx.mpf(1) / 3 / ctx.mpf(n) ** 2, (ctx, n)
        assert resolve_known_S(problem.known_S, ctx) == ctx.mpf(1) / 6
    # a literal is read from its text, so 0.1 is the quad value and 0x10 is 16
    problem, _ = load_problem({"expression": "0.1 + 0x10 + 1e400 + 0*n", "m": 1})
    assert problem.term(1, qctx) == qctx.mpf("0.1") + 16 + qctx.mpf("1e400")


def test_builtin_registry():
    ids = builtin_ids()
    assert len(ids) == 16
    assert ids[0] == "ex5_1" and "ex7_2" in ids
    with pytest.raises(KeyError):
        builtin_problem("ex9_9")


def test_load_problem_builtin_dict():
    problem, schedule = load_problem({"builtin": "ex5_2", "schedule": "aps:1,1"})
    assert problem.known_S == -1
    assert schedule.prefix(3) == [1, 2, 3]


def test_load_problem_expression(tmp_path, qctx):
    spec = {
        "name": "inv-square",
        "expression": "1/(n*n)",
        "m": 1,
        "sigma_hat": "1",
        "known_S": "pi*pi/6",
        "schedule": "gps:1.3",
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(spec))
    problem, schedule = load_problem(str(path))
    assert problem.term(3, qctx) == qctx.mpf(1) / 9
    assert abs(resolve_known_S(problem.known_S, qctx) - qctx.pi**2 / 6) == 0
    assert schedule.prefix(2) == [1, 2]


def test_load_problem_expression_matches_builtin(qctx):
    problem, _ = load_problem(
        {"expression": "exp(-sqrt(n)) - exp(-sqrt(n-1))", "m": 2}
    )
    builtin = builtin_problem("ex5_1")
    for n in (1, 2, 10):
        a, b = problem.term(n, qctx), builtin.term(n, qctx)
        assert abs(a - b) <= 4 * qctx.eps * abs(b)


def test_expression_sees_no_python_builtins(qctx, monkeypatch):
    with pytest.raises(ValueError, match="unknown name 'len'"):
        load_problem({"expression": "len(str(n))", "m": 1})
    # behind the load-time name and call checks, evaluation still sees no builtins
    monkeypatch.setattr(series_model, "_EXPR_NAMES", series_model._EXPR_NAMES | {"len", "str"})
    monkeypatch.setattr(series_model, "_EXPR_ARITY",
                        series_model._EXPR_ARITY | {"len": (1,), "str": (1,)})
    problem, _ = load_problem({"expression": "len(str(n))", "m": 1})
    with pytest.raises(NameError):
        problem.term(1, qctx)


def test_load_problem_requires_m():
    with pytest.raises(ValueError):
        load_problem({"expression": "1/n"})


_PARTS = st.tuples(st.floats(-1, 1, allow_nan=False), st.integers(-120, 120),
                   st.one_of(st.none(), st.floats(-1, 1, allow_nan=False)))


@settings(max_examples=80, deadline=None)
@given(st.lists(_PARTS, min_size=1, max_size=40))
def test_partial_sums_equal_a_plain_fold_property(qctx, parts):
    # terms of wide-ranging magnitude, real or complex in any order (a
    # complex imaginary part of None keeps the term real); the sums must
    # equal a left-to-right fold on mpf/mpc objects, bit for bit and type for type
    terms = [qctx.ldexp(x, e) if y is None else qctx.mpc(qctx.ldexp(x, e), qctx.ldexp(y, e))
             for x, e, y in parts]
    total, fold = qctx.zero, []
    for a in terms:
        total = total + a
        fold.append(total)
    sums, got = sums_and_terms(SeriesProblem("fold", lambda n, c: terms[n - 1], m=1),
                               range(1, len(terms) + 1), qctx)
    assert got == terms
    assert [type(s) for s in sums] == [type(s) for s in fold]
    assert [getattr(s, "_mpf_", None) or s._mpc_ for s in sums] == \
        [getattr(s, "_mpf_", None) or s._mpc_ for s in fold]
