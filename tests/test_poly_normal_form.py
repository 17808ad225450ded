"""Every Poly result is in the stated normal form and has the right value.

A Poly stores integer numerators over one denominator.  After each ring
operation, scalar product, power, evaluation, substitution and
derivative, the result must have nonzero int numerators, a positive int
denominator, gcd(denominator, numerators) = 1 and ``({}, 1)`` for zero;
its ``terms`` must equal a plain ``{exponent: Fraction}`` reference
computed here.  Equal polynomials built by different routes must be
``==`` and hash alike.
"""

import math
from fractions import Fraction as Q

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from kstab.exactcore import Poly  # noqa: E402

rationals = st.builds(Q, st.integers(-12, 12), st.integers(1, 8))
scalars = st.one_of(st.integers(-6, 6), rationals)
ref_maps = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), rationals, max_size=5)

SETTINGS = settings(max_examples=80, deadline=None)


# -- the reference: plain {(i, j): Fraction} maps without zeros ----------

def clean(m: dict) -> dict:
    return {e: Q(c) for e, c in m.items() if c}


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return clean(out)


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            e = (i1 + i2, j1 + j2)
            out[e] = out.get(e, 0) + c1 * c2
    return clean(out)


def ref_scale(a: dict, k) -> dict:
    return clean({e: c * k for e, c in a.items()})


def ref_pow(a: dict, n: int) -> dict:
    out = {(0, 0): Q(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_value(a: dict, u, v) -> Q:
    return sum((c * Q(u) ** i * Q(v) ** j for (i, j), c in a.items()), Q(0))


def ref_partial(a: dict, idx: int, x) -> dict:
    out: dict = {}
    for (i, j), c in a.items():
        k, rest = (i, (0, j)) if idx == 0 else (j, (i, 0))
        out[rest] = out.get(rest, 0) + c * Q(x) ** k
    return clean(out)


def ref_subs_v(a: dict, r: dict) -> dict:
    out: dict = {}
    for (i, j), c in a.items():
        out = ref_add(out, ref_mul({(i, 0): c}, ref_pow(r, j)))
    return out


def ref_derivative(a: dict, idx: int) -> dict:
    out = {}
    for (i, j), c in a.items():
        k = (i, j)[idx]
        if k:
            out[(i - 1, j) if idx == 0 else (i, j - 1)] = c * k
    return clean(out)


def ref_antiderivative(a: dict, idx: int) -> dict:
    out = {}
    for (i, j), c in a.items():
        k = (i, j)[idx] + 1
        out[(k, j) if idx == 0 else (i, k)] = c / k
    return clean(out)


def check(p: Poly, ref: dict):
    """``p`` is in normal form and its value is ``ref``."""
    assert type(p.den) is int and p.den > 0
    for (i, j), c in p.num.items():
        assert type(i) is int and type(j) is int
        assert type(c) is int and c != 0
    assert math.gcd(p.den, *p.num.values()) == 1
    if not p.num:
        assert p.den == 1
    assert dict(p.terms) == clean(ref)
    for c in p.terms.values():
        assert type(c) is Q


@SETTINGS
@given(ref_maps, ref_maps)
def test_ring_operations(a, b):
    p, q = Poly(a), Poly(b)
    check(p, a)
    check(p + q, ref_add(a, b))
    check(p - q, ref_add(a, ref_scale(b, -1)))
    check(-p, ref_scale(a, -1))
    check(p - p, {})
    check(p * q, ref_mul(a, b))
    # Cancellation inside the product and a common factor to remove.
    check((p + q) * (p - q), ref_add(ref_mul(a, a), ref_scale(ref_mul(b, b), -1)))


@SETTINGS
@given(ref_maps, scalars)
def test_scalar_products(a, k):
    p = Poly(a)
    check(p * k, ref_scale(a, k))
    check(k * p, ref_scale(a, k))
    check(p + k, ref_add(a, {(0, 0): k}))
    check(k - p, ref_add({(0, 0): k}, ref_scale(a, -1)))
    check(Poly.const(k), {(0, 0): k})


@SETTINGS
@given(ref_maps, st.integers(0, 3))
def test_pow(a, n):
    check(Poly(a) ** n, ref_pow(a, n))


@SETTINGS
@given(ref_maps, rationals, rationals)
def test_eval(a, u, v):
    p = Poly(a)
    value = p.eval(u=u, v=v)
    assert type(value) is Q and value == ref_value(a, u, v)
    check(p.eval(u=u), ref_partial(a, 0, u))
    check(p.eval(v=v), ref_partial(a, 1, v))
    assert p.eval(u=u).eval(u=0, v=v) == value


@SETTINGS
@given(ref_maps, st.dictionaries(st.tuples(st.integers(0, 2), st.just(0)),
                                 rationals, max_size=3))
def test_subs_v(a, r):
    check(Poly(a).subs_v(Poly(r)), ref_subs_v(a, r))


@SETTINGS
@given(ref_maps, st.sampled_from(["u", "v"]))
def test_calculus(a, var):
    p, idx = Poly(a), "uv".index(var)
    check(p.derivative(var), ref_derivative(a, idx))
    check(p.antiderivative(var), ref_antiderivative(a, idx))


@SETTINGS
@given(ref_maps, ref_maps, scalars)
def test_equal_by_different_routes(a, b, k):
    p, q = Poly(a), Poly(b)
    pairs = [
        (p * q, q * p),
        ((p + q) - q, p),
        (p * 2, p + p),
        (p ** 2, p * p),
        (Poly(dict(p.terms)), p),
        (p.antiderivative("u").derivative("u"), p),
        (p * k * q, (p * q) * k),
        (p - p + k, Poly.const(k)),
        (Poly({(0, 0): k}), Poly.const(k)),
    ]
    for x, y in pairs:
        assert x == y
        assert hash(x) == hash(y)
    # A constant equals, and hashes like, its Fraction value.
    c = p - p + k
    assert c == Q(k) and hash(c) == hash(Q(k))
