"""The exact term stream of every builtin, pinned by SHA-256.

Each digest covers the partial sums and terms that ``sums_and_terms``
returns, at quad as the raw ``_mpf_``/``_mpc_`` tuples and at double as
``float.hex`` (or the ``_mpc_`` tuple of a complex value).  The six
builtins with a ``gps:1.3`` reference table run to R_32 = 5258, every
other one to the largest R of its reference tables.  Three problems pin
the paths on which values are complex: a telescoping family with a
complex theta, a product with a complex v_n, and a product whose v_n
switches between real and complex.  Both branches of two trigonometric
pairs (s = 1 and s = -1) and two expression problems pin the other term
sources: ex5_13 written as an expression, which takes the float kernels
at binary64, and a complex exponential.

Run this file as a script to print the digests of the tree it imports.
"""

import hashlib
from fractions import Fraction

import pytest

from fracsum.numerics import DOUBLE, QUAD, make_context
from fracsum.reference_tables import REFERENCE_TABLES
from fracsum.sampling import parse_schedule
from fracsum.series_model import (
    ProductProblem,
    TelescopingFamily,
    builtin_ids,
    builtin_problem,
    load_problem,
    product_to_series,
    sums_and_terms,
    telescoping_terms,
    trig_series_pair,
)


def _largest_reference_R(ident):
    return max(parse_schedule(t.schedule).prefix(t.depth + 1)[-1]
               for t in REFERENCE_TABLES if t.problem == ident)


def _mixed_v(n, ctx):
    v = ctx.one / (2 * n * n * n)
    return ctx.mpc(v, v / 3) if n % 3 == 0 else -v


def _trig(s, u1, u2, branch):
    def make():
        return trig_series_pair(lambda n, ctx: ctx.one / n, u1, u2, s, 2)[branch]

    return make


def _expression(expr):
    return lambda: load_problem({"expression": expr, "m": 2})[0]


_TRIG_S1 = (1, (0, -1, Fraction(-1, 5)), (0, 1, Fraction(1, 3)))
_TRIG_S_MINUS_1 = (-1, (0, Fraction(-1, 3), Fraction(1, 7)), (Fraction(1, 3), 1, Fraction(-2, 7)))

FALLBACKS = {
    "complex-theta": (
        lambda: telescoping_terms(TelescopingFamily(2, 1, 2, (0, complex(-1, 0.5)))), 200),
    "complex-v": (lambda: product_to_series(ProductProblem(
        "complex-v", lambda n, ctx: ctx.convert(complex(0.5, 1)) / (n * n), m=1, t=2)), 400),
    "mixed-v": (lambda: product_to_series(ProductProblem("mixed-v", _mixed_v, m=1, t=3)), 400),
    "trig-s1-plus": (_trig(*_TRIG_S1, 0), 200),
    "trig-s1-minus": (_trig(*_TRIG_S1, 1), 200),
    "trig-s-1-plus": (_trig(*_TRIG_S_MINUS_1, 0), 200),
    "trig-s-1-minus": (_trig(*_TRIG_S_MINUS_1, 1), 200),
    "expr-ex5_13": (_expression("(-1)**n*exp(loggamma(n+1)/2 - sqrt(n))"), 200),
    "expr-complex": (_expression("exp((-1+i)*sqrt(n))"), 400),
}


def _cases():
    cases = {ident: ((lambda ident=ident: builtin_problem(ident)), _largest_reference_R(ident))
             for ident in builtin_ids()}
    cases.update(FALLBACKS)
    return cases


def _bits(x):
    if type(x) is float:
        return x.hex()
    if hasattr(x, "_mpf_"):
        return repr(_tuple(x._mpf_))
    return repr(tuple(_tuple(part) for part in x._mpc_))


def _tuple(raw):
    sign, man, exp, bc = raw
    return sign, int(man), exp, bc


def term_digest(make, upto, ctx):
    sums, terms = sums_and_terms(make(), range(1, upto + 1), ctx)
    h = hashlib.sha256()
    for values in (sums, terms):
        for x in values:
            h.update(_bits(x).encode())
            h.update(b";")
        h.update(b"|")
    return h.hexdigest()


# generated at the commit before term evaluation ran on raw libmp tuples
DIGESTS = {
    ('ex5_1', 'double'): 'ef2fbdde6520b20023a1aaf3931706ce679ef8f79f33eaaa220676624854bdb5',
    ('ex5_1', 'quad'): '86e2e42ae1ecec16b07e632c8b5f70112ef4672de7a4bf03f7469da9b8efc882',
    ('ex5_2', 'double'): '043c2b8bb8306fe0a18491db07d93c04da369e7b9bbd534c818c9601f8998286',
    ('ex5_2', 'quad'): '108434e030411aeee87e3f557c655fa36fdc1cfced61a773b2141f6a8986fdb9',
    ('ex5_3', 'double'): '0db519798639bb7df0f3783905a0c7df95a3edfb2576b172fb6a4ffaa243d67d',
    ('ex5_3', 'quad'): '539be38f7e46ea74ae4cff923aba6c0909b0206de30b350332076912f105cd31',
    ('ex5_4', 'double'): '0767ae1fadd37a27be4ebd93997e243421f707d2dc4f7cfeddada8a58b58f246',
    ('ex5_4', 'quad'): '718141f4655dacd7af70ca0005e805a01482b75f5cf615b2afac8a8d98d9284f',
    ('ex5_5', 'double'): 'f3e71130d5c60d366b33b1f181700f70ef8278eb483e40f0bbfb8b697357cab7',
    ('ex5_5', 'quad'): 'e56e052b81461c6c244e4328ec0771eeb5ca0b922162aaae5106744430950121',
    ('ex5_6', 'double'): '69f83a267b6e7455ecc7bbcc9be0574b7314b0618d75ae83259ce7fa1f3d69db',
    ('ex5_6', 'quad'): 'ba42852614b62e0173a9c5cba34668df8b5a325d2846d06688de838bb91bc1a4',
    ('ex5_7', 'double'): 'c1a064158855d1c73d28aefee55a8b65de0354ef3105d4c109532d7b62b79788',
    ('ex5_7', 'quad'): '01f1c1191b77ccddd966e48ae361b28bcd6ed37a2fcb15c522b7346c0a586c22',
    ('ex5_8', 'double'): '13d9bc3edd19dd63fe6dfd223032e25304f07f164d5278074dee0998ec0059a2',
    ('ex5_8', 'quad'): 'c4f9b7449f1c2d47580c9b874d3265655a74a1c0a6df93fa0ed6f0a9a90cc309',
    ('ex5_9', 'double'): 'b66378671e66b5906caf85077e1641a032b7935d04413c5bb96cf8b5b6d0c867',
    ('ex5_9', 'quad'): '9c4c6a0f94b7c55e2ab34a0733323ae0ed630f3f42159bee9c27c5232b389b07',
    ('ex5_10', 'double'): 'ba75463ecc7d6b5e62164de8432242891b4ad2f7feec270ec61f45ffebf2758b',
    ('ex5_10', 'quad'): '7b3ae2c41e89685c7edb6f887896ccead25e131606db686c0dcc0dcbed7398c9',
    ('ex5_11', 'double'): '28a98c9cf2e1bb67c5166c375f27d70d6e3671a694848d38d0543e8e57df1cf0',
    ('ex5_11', 'quad'): '475b3e7a1df8758ed86307e1ae6394ff38af5d994484765603740083217ba319',
    ('ex5_12', 'double'): '0b0ec1fa018fa1e09c57f476239569878215a184e3146dd7b9c459dbb0c02119',
    ('ex5_12', 'quad'): 'e709de98ed27040fc3ca3152cc11838841f4112b3da165d17d63581c304dd13b',
    ('ex5_13', 'double'): 'd33cd62e9e824a5b7d28eda1213f4013ad210a241a94df8b053223a32806689b',
    ('ex5_13', 'quad'): 'd2d18941b9520523b8b241d5c5b14914947ba2c07c1739be35205bd7818f75e9',
    ('ex5_14', 'double'): '65ad56ecb656d709e9df4e17399b5e464597de8745780a8484721a5d956e10be',
    ('ex5_14', 'quad'): '4a8158f6a294df59f31bb638511c5d82aacaf89f8285c3a3f9b24e961de6de16',
    ('ex7_1', 'double'): '1d2bbdf2c771593634c95c7429454d7d51a3627395a2173772191b5b2a72a05d',
    ('ex7_1', 'quad'): 'a291095de50db5797198ae2dddf3bb0f2fee42ae96fd1ec303fe4b62ee6e74f2',
    ('ex7_2', 'double'): '4da970adb6157a64525d3a31ca6b0837d1d0c2df62facdf89574f710d8ed3416',
    ('ex7_2', 'quad'): '5cda776b0aeab304cf9a31fa43d0c17368d357e1a2eee50568362f0697d42ef9',
    ('complex-theta', 'double'): 'e67834814cc2a1d6ee2cff46d58b110241c6b55c71e19c5ad49d5e4ae3f8189e',
    ('complex-theta', 'quad'): '9f212c1848fdd2cd946a916674dc3240bd663d7eaf07a321dec46a91605d8c3a',
    ('complex-v', 'double'): 'd0a13d023f2089814ba18414ca35662c6e8b25085374622840d92dd7e7c7ed4d',
    ('complex-v', 'quad'): '8f34ceb9e02f496323bad2e822c41c485db93cb3dea4b8bc42e63661b7df9582',
    ('mixed-v', 'double'): 'b33f62d4c127dfb6484186d6a3521c69a9c6dc1a486b6a6db2981af7c21ce93a',
    ('mixed-v', 'quad'): '873672b00e122a8242f6a1a7bcdf2ed2e789436860f55dcaf150db3ac8881e26',
    # pinned at the commit before trigonometric pairs and expressions became streams
    ('trig-s1-plus', 'double'): 'd3a67236e1fed19d91f3364748cd5c8748ff3d6b9bbfca51fa84f310a41a5d05',
    ('trig-s1-plus', 'quad'): 'e8883320a402ca2ca9ff37c9fce6c2d622b205aec26cf2d7366b34931f70cff5',
    ('trig-s1-minus', 'double'): '323150538caa0dec748b718763999375ea6aa6290f90c2006a6587e003ad0286',
    ('trig-s1-minus', 'quad'): '5696380b2cc974bbf9c1d91c6e225a655eb66356964031c6d5dac061933bce1d',
    ('trig-s-1-plus', 'double'): 'ff4063f9c84636c0af4cb3ca12cc2601772be20c3e75a29d321a3722b110abd7',
    ('trig-s-1-plus', 'quad'): '7564fb30b2e9e2cb9f9c472cf75c13b199950783b32418b299496c8ccde45cde',
    ('trig-s-1-minus', 'double'): 'df08c6af955e4fecc02b0fbb10aafe1b952fcc15f1b644e9bb46a77831685e9a',
    ('trig-s-1-minus', 'quad'): 'a5f100cc2269e189d4d9f9558774347edf8420ed92f2d6ae7ecd6eea58598de6',
    ('expr-ex5_13', 'double'): 'd1133f38952dcc22b7b3835d1c238797d7ffd2bd43e58735c2d30e16e3dbe357',
    ('expr-ex5_13', 'quad'): 'fb6062bc7f5b8b7ff931b3ff672f89b63b900c464238a7089f21b1f03bbf5785',
    ('expr-complex', 'double'): 'dd08a398b89fdecb25a634ef71d0a0e000b9f7f60e6f865887938ba905ba9f37',
    ('expr-complex', 'quad'): '46c0859d059f7fbddeec14a910d07b1286c590c6559ab5794808d21c132f0492',
}

PRESETS = {"quad": QUAD, "double": DOUBLE}


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("ident", list(_cases()))
def test_term_stream_digest(ident, preset):
    make, upto = _cases()[ident]
    assert term_digest(make, upto, make_context(PRESETS[preset])) == DIGESTS[ident, preset]


def test_gps_builtins_run_to_r_32():
    gps = sorted(t.problem for t in REFERENCE_TABLES if t.schedule == "gps:1.3")
    assert gps == ["ex5_1", "ex5_14", "ex5_3", "ex5_5", "ex7_1", "ex7_2"]
    assert {_largest_reference_R(ident) for ident in gps} == {5258}
    assert _largest_reference_R("ex5_11") < 5258


if __name__ == "__main__":
    for ident, (make, upto) in _cases().items():
        for preset in sorted(PRESETS):
            digest = term_digest(make, upto, make_context(PRESETS[preset]))
            print(f"    ({ident!r}, {preset!r}): {digest!r},")
