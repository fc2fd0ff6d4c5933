"""Series and product models.

Defines term generators and partial-sum accumulation (one pass that
keeps the sums and terms at the indices its caller asks for), the
telescoping difference families used as benchmark problems, the
product-to-series adapter for infinite products, trigonometric series
pairs, and the registry of builtin problems (``ex5_1`` ... ``ex5_14``,
and the products ``ex7_1``, ``ex7_2`` as the series of their partial
products) consumed by the CLI and the reference-table harness.

Term generators are pure functions of ``(n, ctx)`` to their callers:
repeated evaluation, in any order and from any thread, is bit-exact.
Every term source the library builds (the builtins, both branches of a
trigonometric pair, an expression) is a stream ``stream(ctx, start)``: a
generator that binds its constants when it starts, yields a_start,
a_start+1, ... and keeps what one term hands the next (a telescoping
delta, a partial product) in its local variables.  One adapter,
:func:`_term`, makes a stream the public ``term(n, ctx)``; it parks each
context's last generator, so in-order evaluation, as in
:func:`sums_and_terms`, does the per-``n`` work once, and any other index
starts a fresh stream with the same operations.  A product's stream reads
its factors from an iterator of its own, so a product has one adapter
too.  The parked generators are the only per-context state.  The paper's
factor (n!)^(s/m) * exp(Q(n)) has one evaluator, in the log domain and
exponentiated once: a :class:`_LogFactor`, whose ``loop(ctx)`` binds its
constants; the log of (n!)^(s/m) is ``loggamma(n + 1)`` times s/m.  One
stream, :func:`_delta_stream`, serves the telescoping families and the
exponential builtins; both exponents of a trigonometric pair hold a
factor too.  The streams and the factor run on
``numerics.loop_arithmetic`` of the context and of their constants: raw
``libmp`` tuples at an mpmath preset, floats at binary64, and the
context's own operators once a constant or a value is complex.  Each
computes with the bits of the context's own operators and yields a
context scalar.  A user's term, product factor or expression enters the
context through ``ctx.convert``; an expression calls the context's own
functions, which at binary64 run the float arithmetic's kernels where
they take the arguments.  A ``known_S`` string, from a problem file or
from Python, is an expression of constants, compiled when the
:class:`SeriesProblem` is built; :func:`resolve_known_S` is the one
resolver of a limit, for ``SeriesProblem`` and every other caller.
"""

from __future__ import annotations

import ast
import cmath
import json
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from operator import attrgetter
from typing import Callable

from .numerics import check_range, loop_arithmetic
from .sampling import _check_integer, _exact, parse_schedule

__all__ = [
    "SeriesProblem",
    "TelescopingFamily",
    "ProductProblem",
    "ZeroPartialProductError",
    "sums_and_terms",
    "telescoping_terms",
    "product_to_series",
    "trig_series_pair",
    "builtin_problem",
    "builtin_ids",
    "load_problem",
    "resolve_known_S",
]

TermFn = Callable[[int, object], object]


class ZeroPartialProductError(ValueError):
    """A partial product reached zero; the series model breaks down."""


def _term(stream):
    """The term ``(n, ctx) -> a_n`` of ``stream(ctx, start)``, which yields a_start, a_start+1, ...

    Each context parks its last term's ``(n, generator)``.  A call for the
    next index advances that generator; any other index starts
    ``stream(ctx, n)``.  A caller pops the parked generator before
    advancing it, so no two threads share one, and a generator that
    raised is not parked again.
    """
    parked = {}

    def term(n, ctx):
        last = parked.pop(ctx, None)
        gen = last[1] if last is not None and last[0] == n - 1 else stream(ctx, n)
        value = next(gen)
        parked[ctx] = (n, gen)
        return value

    return term


@dataclass
class SeriesProblem:
    """An infinite series sum(a_n) with terms expanding in powers of n^(1/m).

    ``term(n, ctx)`` returns a_n (a real scalar of *ctx*: float or mpf;
    or a complex mpc) for n >= 1.
    ``sigma_hat`` is the exponent used in the remainder weight
    omega_r = r^sigma_hat * a_r; 1 is the safe universal choice.
    ``known_S`` is the limit (or antilimit) when available: a number, a
    callable of ctx for values like 2/pi that depend on the precision, or
    an expression string such as ``"pi*pi/6"``, read as in a problem file
    and kept as its callable.
    Every caller's parameters are checked here: ``sigma_hat`` is read by
    ``sampling._exact`` (0.1 is 1/10), a bool or a non-finite float or
    complex ``known_S`` is refused, and so is a ``known_S`` string that is
    not an expression of constants (``_known_S_spec``).
    """

    name: str
    term: TermFn
    m: int
    sigma_hat: Fraction = Fraction(1)
    known_S: object = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_integer(self.m, "m", 1)
        self.sigma_hat = _exact(self.sigma_hat, "sigma_hat")
        if self.sigma_hat > 1:
            raise ValueError("sigma_hat must satisfy sigma_hat <= 1")
        if self.m % self.sigma_hat.denominator:
            raise ValueError("sigma_hat must be a multiple of 1/m")
        self.known_S = _known_S_spec(self.known_S)


def _refused(x):
    """The lift of a pass on the context's own operators: each term is converted first."""
    return None


def sums_and_terms(problem: SeriesProblem, indices, ctx):
    """Partial sums A_n and terms a_n at the *indices* n, in one left-to-right pass.

    *indices* is a nonempty, strictly increasing sequence of ints >= 1,
    such as ``range(1, N + 1)`` for every A_n and a_n up to N; the two
    returned lists are aligned with it.  The pass calls
    ``problem.term(n, ctx)`` once for each n = 1..indices[-1] and adds
    every term on ``numerics.loop_arithmetic``: raw ``libmp`` tuples for
    real quad terms, until a complex term, from which on it uses the
    context's own operators.  Every running sum is range- and NaN-checked
    as it forms; only the kept ones are made context scalars, so the
    memory grows with ``len(indices)``, not with indices[-1].
    Raises :class:`~fracsum.numerics.RangeOverflowError` naming the first
    index whose sum leaves the exponent range (and its term, if infinite),
    and :class:`~fracsum.numerics.NotANumberError` naming the first NaN sum.
    """
    if not indices or indices[0] < 1 or any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValueError("indices must be nonempty, positive and strictly increasing")
    terms = []
    sums = []
    ar = loop_arithmetic(ctx)
    lift, lower, add, in_range = ar.lift, ar.lower, ar.add, ar.in_range
    total = ar.zero
    keep = iter(indices)
    stop = next(keep)
    for n in range(1, indices[-1] + 1):
        a = problem.term(n, ctx)
        x = lift(a)
        if x is None:  # not a loop value as it came: convert it
            a = ctx.convert(a)
            x = ar.lift(a)
            if x is None:  # not a real of ctx, e.g. complex: go on with the context's own operators
                total = lower(total)
                ar = loop_arithmetic(ctx, [a])
                lower, add, in_range = ar.lower, ar.add, ar.in_range
                lift = _refused
                x = a
        total = add(total, x)
        if not in_range(total):
            try:
                check_range(lower(total), ctx, "partial sum A_%d", n)
            except ArithmeticError as exc:  # an infinite term is the cause: name it
                raise type(exc)(f"{exc}: its term a_{n} is infinite") if ctx.isinf(a) else exc from None
        if n == stop:
            terms.append(a)
            sums.append(lower(total))
            stop = next(keep, None)
    return sums, terms


# ---------------------------------------------------------------------------
# Telescoping difference families
# ---------------------------------------------------------------------------


_HALF = Fraction(1, 2)
_SQRT = object()  # marks the exponent 1/2


class _LogFactor:
    """ln((n!)^(s/m)) + sum(c * n^p) over exact (c, p) pairs: the log of the paper's factor.

    The sum starts from the log-factorial ``loggamma(n + 1) * s / m``
    (from the first c * n^p when s = 0 or n <= 1, and is zero without
    either) and adds each further c * n^p in pair order.
    n^1 is n and n^(1/2) is ``sqrt(n)``, the bits ``power`` gives, and a
    coefficient of 1 is not multiplied.
    """

    def __init__(self, s: int, m: int, pairs):
        self.s, self.m = s, m
        self.pairs = tuple((c, Fraction(p)) for c, p in pairs if c != 0)

    def loop(self, ctx):
        """(arithmetic, log) under ctx, with the constants converted once.

        ``log(n)`` is the log of the factor as a value of the arithmetic:
        ``loop_arithmetic`` of ctx and the converted constants, so a complex
        coefficient runs on the context's own operators.  The factor itself
        is ``arithmetic.exp(log(n))``.
        """
        converted = [(None if c == 1 else ctx.convert(c),
                      None if p == 1 else _SQRT if p == _HALF else ctx.convert(p))
                     for c, p in self.pairs]
        ar = loop_arithmetic(ctx, [x for pair in converted for x in pair
                                   if x is not None and x is not _SQRT])
        lift, add, mul, div, power, sqrt, loggamma, from_int = (
            ar.lift, ar.add, ar.mul, ar.div, ar.pow, ar.sqrt, ar.loggamma, ar.from_int)
        # None for a coefficient 1 or the exponent 1, _SQRT for the exponent 1/2
        pairs = tuple((c if c is None else lift(c), p if p is None or p is _SQRT else lift(p))
                      for c, p in converted)
        s, m, zero = from_int(self.s), from_int(self.m), ar.zero
        scaled = self.s != 0

        def log(n):
            if scaled and n > 1:
                val = div(mul(loggamma(from_int(n + 1)), s), m)
            else:
                val = None
            k = from_int(n)
            for c, p in pairs:
                x = k if p is None else sqrt(k) if p is _SQRT else power(k, p)
                if c is not None:
                    x = mul(c, x)
                val = x if val is None else add(val, x)
            return zero if val is None else val

        return ar, log


@dataclass(frozen=True)
class TelescopingFamily:
    """Difference family with delta_n = (n!)^(s/m) * exp(Q(n)), delta_0 = 1.

    kind 1:  a_n = delta_n - delta_{n-1},        A_n = -1 + delta_n
    kind 2:  a_n = (-1)^n (delta_n + delta_{n-1}), A_n = -1 + (-1)^n delta_n

    Q(n) = theta_0*n + sum_{i>=1} theta_i*n^(1-i/m); ``theta`` lists
    theta_0..theta_{m-1}.  The sum (or antilimit) is always -delta_0 = -1.
    :func:`telescoping_terms` gives the series.
    """

    kind: int
    s: int
    m: int
    theta: tuple

    def __post_init__(self):
        _check_integer(self.kind, "kind")
        if self.kind not in (1, 2):
            raise ValueError("kind must be 1 or 2")
        _check_integer(self.s, "s")
        _check_integer(self.m, "m", 1)
        if len(self.theta) != self.m:
            raise ValueError("theta must list theta_0..theta_{m-1}")
        object.__setattr__(self, "theta", tuple(self.theta))
        if self.kind == 1 and self.s == 0 and all(t == 0 for t in self.theta):
            raise ValueError("degenerate family: delta_n constant, a_n identically zero")


def _delta_stream(factor: _LogFactor, kind: int, alternating: bool):
    """The one stream of the paper's factor delta_n = exp(factor.log(n)), delta_0 = 1.

    a_n = +-delta_n (kind 0), +-(delta_n - delta_{n-1}) (kind 1) or
    +-(delta_n + delta_{n-1}) (kind 2), the sign (-1)^n when *alternating*.
    Kinds 1 and 2 hand delta_n on to the next term, so in-order terms
    evaluate one new delta each and a term at any other index two; kind 0
    reads no delta_{n-1}.  The deltas combine in the factor's arithmetic.
    """

    def stream(ctx, start):
        ar, log = factor.loop(ctx)
        lower, mul, exp = ar.lower, ar.mul, ar.exp
        combine = ar.sub if kind == 1 else ar.add
        minus_one = ar.from_int(-1)
        d0 = exp(log(start - 1)) if kind and start > 1 else ar.one  # delta_{n-1}
        for n in count(start):
            d1 = exp(log(n))
            a = combine(d1, d0) if kind else d1
            yield lower(mul(a, minus_one) if alternating and n % 2 else a)
            d0 = d1

    return stream


def telescoping_terms(family: TelescopingFamily) -> SeriesProblem:
    """Series problem for a telescoping family; the limit/antilimit is -1."""
    m = family.m
    factor = _LogFactor(family.s, m, ((th, Fraction(m - i, m)) for i, th in enumerate(family.theta)))
    return SeriesProblem(
        name=f"telescoping(kind={family.kind}, s={family.s}, m={family.m})",
        term=_term(_delta_stream(factor, family.kind, family.kind == 2)),
        m=family.m,
        known_S=-1,
        meta={"family": family},
    )


# ---------------------------------------------------------------------------
# Infinite products
# ---------------------------------------------------------------------------


@dataclass
class ProductProblem:
    """Infinite product prod(1 + v_n) with v_n decaying like n^(-t/m); ``known_S`` as in SeriesProblem."""

    name: str
    v: TermFn
    m: int
    t: int
    known_S: object = None

    def __post_init__(self):
        _check_integer(self.m, "m", 1)
        _check_integer(self.t, "t")
        if self.t < self.m + 1:
            raise ValueError("t must be >= m + 1 (convergence of the product)")
        self.known_S = _known_S_spec(self.known_S)


# the loop kernels a product stream binds, again where it switches to complex values
_PRODUCT_KERNELS = attrgetter("lower", "add", "mul", "one", "zero")


def product_to_series(problem: ProductProblem) -> SeriesProblem:
    """Series whose partial sums are the partial products of *problem*.

    a_1 = A_1 = 1 + v_1 and a_n = v_n * A_{n-1} for n >= 2, so that
    sum(a_k, k<=n) reproduces prod(1+v_k, k<=n) up to accumulation
    rounding.  Each run calls ``v`` once per n, in order.
    """
    return _product_series(problem.name, lambda ctx: (problem.v(k, ctx) for k in count(1)),
                           problem.m, problem.known_S)


def _product_series(name, factors, m, known_S=None) -> SeriesProblem:
    """The one product stream: the series of prod(1 + v_n), where ``factors(ctx)`` yields v_1, v_2, ....

    The stream hands A_n on to the next term, so in-order terms read one
    factor each; any other index restarts from A_0 = 1 on fresh factors
    and gets the same bits.  A_n is formed after a_n is handed out, so a
    zero A_n raises when a_(n+1) is asked for (A_1 before a_1).  The
    products run on the context's real arithmetic, whose kernels a run
    binds once, until a v_n is complex, then on the context's own
    operators.  As in :func:`sums_and_terms`, a factor is converted only
    where the real arithmetic refuses it (``convert`` returns the values it
    lifts as they are), and every factor after the switch.
    """

    def stream(ctx, start):
        vs = factors(ctx)
        ar = loop_arithmetic(ctx)
        lift = ar.lift
        lower, add, mul, one, zero = _PRODUCT_KERNELS(ar)
        prev = one  # A_{k-1}
        for k in count(1):
            value = next(vs)
            v = lift(value)
            if v is None:  # not a loop value as it came: convert it
                value = ctx.convert(value)
                v = ar.lift(value)
                if v is None:  # complex: go on with the context's own operators
                    prev = lower(prev)
                    ar = loop_arithmetic(ctx, [value])
                    lower, add, mul, one, zero = _PRODUCT_KERNELS(ar)
                    lift = _refused
                    prev, v = ar.lift(prev), ar.lift(value)
            if k > 1 and k >= start:
                yield lower(mul(v, prev))
            prev = mul(prev, add(one, v))  # A_k
            if prev == zero:
                raise ZeroPartialProductError(f"partial product A_{k} of {name!r} is zero")
            if k == start == 1:
                yield lower(prev)  # a_1 = A_1

    return SeriesProblem(name=name, term=_term(stream), m=m, known_S=known_S)


# ---------------------------------------------------------------------------
# Trigonometric series pairs
# ---------------------------------------------------------------------------


def trig_series_pair(h, u1, u2, s: int, m: int, h_is_real=False):
    """Complex conjugate-pair problems a_n^± = (n!)^(s/m) e^(u1 ± i*u2) h(n).

    ``u1`` and ``u2`` are coefficient sequences of real polynomials of
    degree at most m in n^(1/m) (entry i multiplies n^(i/m)); an entry of
    complex type, even with a zero imaginary part, raises ``ValueError``
    naming it.  Cosine and sine sums follow as S_c = (S+ + S-)/2 and
    S_s = (S+ - S-)/(2i).

    Pass ``h_is_real=True`` only when h(n) is real for every n: then a
    single acceleration of S+ suffices (see transform.sum_trig).  No finite
    sample of h can show that, so it is never guessed.
    """
    _check_integer(s, "s")
    _check_integer(m, "m", 1)
    u1 = tuple(u1)
    u2 = tuple(u2)
    if len(u1) > m + 1 or len(u2) > m + 1:
        raise ValueError("u1/u2 must have degree <= m in n^(1/m)")
    for name, u in (("u1", u1), ("u2", u2)):
        for i, c in enumerate(u):
            if isinstance(c, complex) or hasattr(c, "_mpc_"):
                raise ValueError(f"{name}[{i}] = {c!r} is complex; u1 and u2 must be real")

    growth = _LogFactor(s, m, ((c, Fraction(i, m)) for i, c in enumerate(u1)))
    phase = _LogFactor(0, m, ((c, Fraction(i, m)) for i, c in enumerate(u2)))

    def make_term(sign):
        def stream(ctx, start):
            gar, glog = growth.loop(ctx)
            par, plog = phase.loop(ctx)
            for n in count(start):
                z = ctx.mpc(gar.lower(glog(n)), sign * par.lower(plog(n)))
                yield ctx.exp(z) * ctx.convert(h(n, ctx))

        return _term(stream)

    meta = {"h_is_real": bool(h_is_real)}
    plus = SeriesProblem(name="trig-pair(+)", term=make_term(1), m=m, meta=dict(meta))
    minus = SeriesProblem(name="trig-pair(-)", term=make_term(-1), m=m, meta=dict(meta))
    return plus, minus


# ---------------------------------------------------------------------------
# Builtin problems
# ---------------------------------------------------------------------------


_FIFTH = Fraction(1, 5)


def _ex5_14(ctx, start):
    """n^sqrt(3) / (1 + sqrt(n)) under ctx, from n = start on."""
    ar = loop_arithmetic(ctx)
    lower, from_int, add, div, power, sqrt, one = (
        ar.lower, ar.from_int, ar.add, ar.div, ar.pow, ar.sqrt, ar.one)
    sqrt3 = sqrt(from_int(3))
    for n in count(start):
        x = from_int(n)
        yield lower(div(power(x, sqrt3), add(one, sqrt(x))))


def _ex7_1_v(ctx):
    """-1 / (4 n^2) under ctx, from n = 1 on."""
    ar = loop_arithmetic(ctx)
    lower, from_int, div = ar.lower, ar.from_int, ar.div
    minus_one = from_int(-1)
    for n in count(1):
        yield lower(div(minus_one, from_int(4 * n * n)))


def _ex7_2_v(ctx):
    """n^(-3/2) under ctx, from n = 1 on."""
    ar = loop_arithmetic(ctx)
    lower, from_int, power = ar.lower, ar.from_int, ar.pow
    minus_3_2 = ar.div(from_int(-3), from_int(2))
    for n in count(1):
        yield lower(power(from_int(n), minus_3_2))


# Builders of the builtins, called with the problem id; m = 2 except for ex7_1.


def _family(kind, s, theta):
    return lambda name: telescoping_terms(TelescopingFamily(kind, s, 2, theta))


def _exponential(s, pairs, alternating=False):
    """a_n = (+-1)^n (n!)^(s/2) exp(sum(c * n^p)) over the (c, p) pairs: kind 0 of the delta stream."""
    stream = _delta_stream(_LogFactor(s, 2, pairs), 0, alternating)
    return lambda name: SeriesProblem(name, _term(stream), m=2)


_BUILTINS = {  # id: (builder, description)
    "ex5_1": (_family(1, 0, (0, -1)), "a_n = e^(-sqrt n) - e^(-sqrt(n-1)); S = -1"),
    "ex5_2": (_family(2, 0, (0, -1)), "a_n = (-1)^n (e^(-sqrt n) + e^(-sqrt(n-1))); S = -1"),
    "ex5_3": (_family(1, 0, (0, 1)), "a_n = e^(sqrt n) - e^(sqrt(n-1)); antilimit S = -1"),
    "ex5_4": (_family(2, 0, (0, 1)), "a_n = (-1)^n (e^(sqrt n) + e^(sqrt(n-1))); antilimit S = -1"),
    "ex5_5": (_exponential(0, [(1, _HALF)]), "a_n = e^(sqrt n); antilimit unknown"),
    "ex5_6": (_exponential(0, [(1, _HALF)], True), "a_n = (-1)^n e^(sqrt n); antilimit unknown"),
    "ex5_7": (_family(1, 0, (-_FIFTH, 1)), "a_n = e^(-n/5+sqrt n) - e^(-(n-1)/5+sqrt(n-1)); S = -1"),
    "ex5_8": (_family(2, 0, (-_FIFTH, 1)), "a_n = (-1)^n (e^(-n/5+sqrt n) + e^(-(n-1)/5+sqrt(n-1))); S = -1"),
    "ex5_9": (_exponential(0, [(1, _HALF), (-_FIFTH, 1)]), "a_n = e^(-n/5+sqrt n); limit unknown"),
    "ex5_10": (_exponential(0, [(_FIFTH, 1), (-1, _HALF)], True), "a_n = (-1)^n e^(n/5-sqrt n); antilimit unknown"),
    "ex5_11": (_family(1, 1, (0, -1)), "a_n = sqrt(n!) e^(-sqrt n) - sqrt((n-1)!) e^(-sqrt(n-1)); antilimit S = -1"),
    "ex5_12": (_family(2, 1, (0, -1)), "a_n = (-1)^n (sqrt(n!) e^(-sqrt n) + sqrt((n-1)!) e^(-sqrt(n-1))); antilimit S = -1"),
    "ex5_13": (_exponential(1, [(-1, _HALF)], True), "a_n = (-1)^n sqrt(n!) e^(-sqrt n); antilimit unknown"),
    "ex5_14": (lambda name: SeriesProblem(name, _term(_ex5_14), m=2), "a_n = n^sqrt(3)/(1+sqrt n); antilimit unknown"),
    "ex7_1": (lambda name: _product_series(name, _ex7_1_v, 1, lambda ctx: 2 / ctx.pi), "product, m=1, t=2"),
    "ex7_2": (lambda name: _product_series(name, _ex7_2_v, 2), "product, m=2, t=3"),
}


def builtin_ids() -> list:
    """Identifiers of the builtin benchmark problems, in example order."""
    return list(_BUILTINS)


def builtin_problem(ident: str) -> SeriesProblem:
    """Fresh instance of a builtin problem; products come as their partial-product series."""
    try:
        build, describe = _BUILTINS[ident]
    except KeyError:
        raise KeyError(
            f"unknown builtin problem {ident!r}; available: {', '.join(builtin_ids())}"
        ) from None
    problem = build(ident)
    problem.name = ident
    problem.meta["describe"] = describe
    return problem


# ---------------------------------------------------------------------------
# Problem-definition files
# ---------------------------------------------------------------------------

_EXPR_FUNCS = (
    "sqrt exp log sin cos tan atan power gamma loggamma factorial floor ceil fabs re im conj"
).split()
_EXPR_NAMES = frozenset(_EXPR_FUNCS + ["n", "pi", "e", "i", "abs", "mpf"])


class _Rewrite(ast.NodeTransformer):
    """Rewrite ``a ** b`` as ``power(a, b)``, and each int or float literal as a name in ``literals``.

    On the floats of the binary64 context ``**`` is the platform's pow: it
    need not round as ``ctx.power`` does, and it raises a bare
    OverflowError where ``ctx.power`` returns inf for the range checks.
    ``literals`` maps each name to the literal's source text, which
    ``_expression_names`` binds to ``ctx.mpf`` of it: ``1/3`` is then a
    quotient at the working precision, not a binary64 one.
    """

    def __init__(self, expr):
        self.expr, self.literals = expr, {}

    def visit_Constant(self, node):
        if type(node.value) not in (int, float):  # a bool, a complex or a string stays
            return node
        name = f"_{len(self.literals)}"  # never a name an expression may use
        self.literals[name] = (str(node.value) if type(node.value) is int  # its decimal text: 0x10 is 16
                               else ast.get_source_segment(self.expr, node))
        return ast.copy_location(ast.Name(name, ast.Load()), node)

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if not isinstance(node.op, ast.Pow):
            return node
        call = ast.Call(ast.Name("power", ast.Load()), [node.left, node.right], [])
        return ast.copy_location(call, node)


# the argument counts each callee of an expression takes: power 2, log 1 or 2, all others 1
_EXPR_ARITY = dict.fromkeys(_EXPR_FUNCS + ["abs", "mpf"], (1,)) | {"power": (2,), "log": (1, 2)}


def _check_calls(label: str, tree) -> None:
    """Refuse a call that is not to a function, or with arguments it does not take, naming *label*.

    Every callee is a name in ``_EXPR_ARITY`` with one of its argument
    counts, positional and unstarred: a constant such as ``pi`` is callable
    in mpmath, and a keyword such as ``dps`` or ``prec`` would change the
    working precision of one call.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = node.func.id if isinstance(node.func, ast.Name) else None
        if name not in _EXPR_ARITY:
            raise ValueError(f"{label} calls {ast.unparse(node.func)!r}, which is not "
                             f"a function; functions: {', '.join(sorted(_EXPR_ARITY))}")
        if node.keywords:
            kw = node.keywords[0].arg
            what = f"the keyword argument {kw!r}" if kw else "a ** argument"
        elif any(isinstance(arg, ast.Starred) for arg in node.args):
            what = "a starred argument"
        else:
            what = None
        if what:
            raise ValueError(f"{label} passes {what} to {name}; "
                             f"functions take positional arguments only")
        count, counts = len(node.args), _EXPR_ARITY[name]
        if count not in counts:
            raise ValueError(f"{label} calls {name} with {count} "
                             f"argument{'' if count == 1 else 's'}; "
                             f"{name} takes {' or '.join(map(str, counts))}")


def _compile_expression(expr: str, what="expression"):
    """``(code, literals)`` of a term or known_S expression, refused here if malformed.

    Each refusal names the text as *what* (``expression`` or ``known_S``).
    """
    # Trusted-input convenience; no builtins are exposed to the expression.
    # Mistakes that would only surface at evaluation, as a TypeError or
    # NameError, or not at all (2^3 is xor, pi(3) is a 3-bit pi), are
    # rejected here, and so is attribute syntax: a chain of attributes
    # reaches any Python object.
    label = f"{what} {expr!r}"
    try:
        tree = ast.parse(expr, "<term expression>", "eval")
    except SyntaxError as exc:
        raise ValueError(f"{label} is not valid syntax: {exc.msg}") from None
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitXor):
            raise ValueError(f"{label} uses '^', which is not a power: write a ** b")
        if isinstance(node, ast.Attribute):
            raise ValueError(f"{label} uses the attribute '.{node.attr}'; "
                             f"attributes are not allowed, use re(n), im(n) or conj(n)")
        if isinstance(node, ast.Name) and node.id not in _EXPR_NAMES:
            raise ValueError(f"{label} uses unknown name {node.id!r}; "
                             f"known names: {', '.join(sorted(_EXPR_NAMES))}")
    _check_calls(label, tree)
    rewrite = _Rewrite(expr)
    tree = rewrite.visit(tree)
    return compile(ast.fix_missing_locations(tree), "<term expression>", "eval"), rewrite.literals


def _expression_names(ctx, literals):
    """Every name an expression can use in *ctx*, except n, and its *literals* as reals of ctx."""
    env = {name: getattr(ctx, name) for name in _EXPR_FUNCS}
    env.update(__builtins__={}, pi=ctx.pi, e=ctx.exp(ctx.one), i=ctx.mpc(0, 1),
               abs=abs, mpf=ctx.mpf)
    env.update((name, ctx.mpf(text)) for name, text in literals.items())
    return env


def _failure(exc):
    """An evaluation error's text, the same at both presets (mpmath's ZeroDivisionError has none)."""
    return "division by zero" if isinstance(exc, ZeroDivisionError) else exc


def _expression_term(expr: str) -> TermFn:
    code, literals = _compile_expression(expr)

    def stream(ctx, start):
        env = _expression_names(ctx, literals)
        for n in count(start):
            # n is bound as a real of ctx so plain arithmetic stays at working precision
            try:
                value = ctx.convert(eval(code, env, {"n": ctx.mpf(n)}))
            except (TypeError, ValueError, ZeroDivisionError) as exc:  # mpf(i), gamma(0), 1/0
                raise ValueError(f"expression {expr!r} fails at n = {n}: {_failure(exc)}") from None
            yield value

    return _term(stream)


def _known_S_spec(S):
    """known_S checked, as the spec that :func:`resolve_known_S` resolves.

    None, a callable of ctx and a finite number pass as they are; a string
    becomes the callable that gives its expression's value in a context.
    A bool, a non-finite float or complex, any other type, and a string
    that is not an expression of constants raise ``ValueError``.
    """
    if isinstance(S, bool) or not (S is None or callable(S) or isinstance(S, (numbers.Number, str))):
        raise ValueError(f"known_S must be a number or an expression string, got {S!r}")
    if isinstance(S, (float, complex)) and not cmath.isfinite(S):
        raise ValueError(f"known_S must be finite, got {S!r}")
    if not isinstance(S, str):
        return S
    code, literals = _compile_expression(S, "known_S")
    if any(isinstance(node, ast.Name) and node.id == "n" for node in ast.walk(ast.parse(S))):
        raise ValueError(f"known_S {S!r} uses n; known_S is the limit, a constant")

    def known_S(ctx):
        try:
            value = ctx.convert(eval(code, _expression_names(ctx, literals)))
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise ValueError(f"known_S {S!r} fails: {_failure(exc)}") from None
        if not ctx.isfinite(value):
            raise ValueError(f"known_S {S!r} is not finite: {ctx.nstr(value)}")
        return value

    return known_S


def resolve_known_S(S, ctx):
    """The limit *S*, checked by ``_known_S_spec``, as a scalar of ctx (None stays None)."""
    S = _known_S_spec(S)
    return S if S is None else S(ctx) if callable(S) else ctx.convert(S)


_BUILTIN_KEYS = ("builtin", "name", "schedule")
_EXPRESSION_KEYS = ("expression", "name", "m", "sigma_hat", "known_S", "schedule")


def load_problem(source):
    """Load a problem definition from a dict, a JSON string, or a file path.

    Fields: ``name``, ``builtin`` or ``expression``, ``m``, ``sigma_hat``,
    ``known_S`` (a finite number or an expression), ``schedule`` (CLI
    syntax).  A builtin takes only ``name`` and ``schedule`` beside it; any
    other key, or an unknown one, raises ``ValueError`` naming it.
    Returns ``(problem, schedule_or_None)``.
    """
    if isinstance(source, dict):
        spec = dict(source)
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            spec = json.loads(text)
        else:
            with open(text, "r", encoding="utf-8") as fh:
                spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError("a problem definition must be a JSON object")
    for key in spec:
        if key not in _EXPRESSION_KEYS and key != "builtin":
            raise ValueError(f"unknown key {key!r} in a problem definition; "
                             f"known keys: builtin, {', '.join(_EXPRESSION_KEYS)}")
        if "builtin" in spec and key not in _BUILTIN_KEYS:
            raise ValueError(f"key {key!r} does not apply to a builtin problem, "
                             f"which takes only {', '.join(_BUILTIN_KEYS)}")

    schedule = spec.get("schedule")
    if schedule is not None and not isinstance(schedule, str):
        raise ValueError(f"schedule must be a string such as 'gps:1.3', got {schedule!r}")
    schedule = parse_schedule(schedule) if schedule is not None else None
    if not isinstance(spec.get("name", ""), str):
        raise ValueError(f"name must be a string, got {spec['name']!r}")

    if "builtin" in spec:
        if not isinstance(spec["builtin"], str):
            raise ValueError(f"builtin must be a problem id string, got {spec['builtin']!r}")
        problem = builtin_problem(spec["builtin"])
        if spec.get("name"):
            problem.name = spec["name"]
        return problem, schedule

    if not isinstance(spec.get("expression"), str):
        raise ValueError("problem definition needs either 'builtin' or an 'expression' string")
    if "m" not in spec:
        raise ValueError("expression problems must declare m")

    problem = SeriesProblem(
        name=spec.get("name", "user-problem"),
        term=_expression_term(spec["expression"]),
        m=spec["m"],
        sigma_hat=spec.get("sigma_hat", 1),
        known_S=spec.get("known_S"),
        meta={"describe": spec["expression"]},
    )
    return problem, schedule
