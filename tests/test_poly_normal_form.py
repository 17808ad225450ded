"""Every Poly result is in the stated normal form and has the right value.

A Poly stores a dense tuple of integer numerators, lowest degree first,
over one denominator.  After each ring operation, scalar product and
power, the result must have int numerators whose last one is not zero, a
positive int denominator, gcd(denominator, numerators) = 1 and
``((), 1)`` for zero; its coefficients must equal a plain
``{exponent: Fraction}`` reference computed here.  An evaluation must
return the reference value as a Fraction.  Equal polynomials built by
different routes must be ``==`` and hash alike.
"""

import math
from fractions import Fraction as Q

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from kstab.exactcore import Poly  # noqa: E402

rationals = st.builds(Q, st.integers(-12, 12), st.integers(1, 8))
scalars = st.one_of(st.integers(-6, 6), rationals)
ref_maps = st.dictionaries(st.integers(0, 5), rationals, max_size=5)

SETTINGS = settings(max_examples=80, deadline=None)


# -- the reference: plain {k: Fraction} maps without zeros --------------

def clean(m: dict) -> dict:
    return {e: Q(c) for e, c in m.items() if c}


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return clean(out)


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for i, c1 in a.items():
        for j, c2 in b.items():
            out[i + j] = out.get(i + j, 0) + c1 * c2
    return clean(out)


def ref_scale(a: dict, k) -> dict:
    return clean({e: c * k for e, c in a.items()})


def ref_pow(a: dict, n: int) -> dict:
    out = {0: Q(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_value(a: dict, u) -> Q:
    return sum((c * Q(u) ** k for k, c in a.items()), Q(0))


def poly(a: dict) -> Poly:
    """The Poly of a reference map, through the public coefficient list."""
    top = max(a, default=0)
    return Poly.from_coeffs([a.get(k, 0) for k in range(top + 1)])


def check(p: Poly, ref: dict):
    """``p`` is in normal form and its value is ``ref``."""
    assert type(p.den) is int and p.den > 0
    assert type(p.num) is tuple
    assert all(type(c) is int for c in p.num)
    if p.num:
        assert p.num[-1] != 0
    else:
        assert p.den == 1
    assert math.gcd(p.den, *p.num) == 1
    coeffs = {k: c for k, c in enumerate(p.coeffs()) if c}
    assert coeffs == clean(ref)
    assert all(type(c) is Q for c in p.coeffs())


@SETTINGS
@given(ref_maps, ref_maps)
def test_ring_operations(a, b):
    p, q = poly(a), poly(b)
    check(p, a)
    check(p + q, ref_add(a, b))
    check(p - q, ref_add(a, ref_scale(b, -1)))
    check(-p, ref_scale(a, -1))
    check(p - p, {})
    check(p * q, ref_mul(a, b))
    # Cancellation inside the product and a common factor to remove.
    check((p + q) * (p - q),
          ref_add(ref_mul(a, a), ref_scale(ref_mul(b, b), -1)))


@SETTINGS
@given(ref_maps, scalars)
def test_scalar_products(a, k):
    p = poly(a)
    check(p * k, ref_scale(a, k))
    check(k * p, ref_scale(a, k))
    check(p + k, ref_add(a, {0: k}))
    check(k - p, ref_add({0: k}, ref_scale(a, -1)))
    check(Poly.const(k), {0: k})


@SETTINGS
@given(ref_maps, st.integers(0, 3))
def test_pow(a, n):
    p, power = poly(a), Poly.const(1)
    for _ in range(n):
        power = power * p
    check(power, ref_pow(a, n))


@SETTINGS
@given(ref_maps, st.one_of(rationals, st.integers(-6, 6)))
def test_eval(a, u):
    value = poly(a).eval(u)
    assert type(value) is Q and value == ref_value(a, u)


@SETTINGS
@given(ref_maps, ref_maps, scalars)
def test_equal_by_different_routes(a, b, k):
    p, q = poly(a), poly(b)
    pairs = [
        (p * q, q * p),
        ((p + q) - q, p),
        (p * 2, p + p),
        (Poly.from_coeffs(p.coeffs()), p),
        (p * k * q, (p * q) * k),
        (p - p + k, Poly.const(k)),
        (Poly.from_coeffs([k]), Poly.const(k)),
    ]
    for x, y in pairs:
        assert x == y
        assert hash(x) == hash(y)
    # A constant equals, and hashes like, its Fraction value.
    c = p - p + k
    assert c == Q(k) and hash(c) == hash(Q(k))
