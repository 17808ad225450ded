"""Exact arithmetic substrate: rationals, polynomials in one parameter
``u``, piecewise polynomials in ``u`` and their integrals.

Every number in this package is exact: an int or a
:class:`fractions.Fraction`; floating point is never used.  A polynomial
is a dense tuple of integer numerators, lowest degree first, over one
common denominator, as in FLINT's ``fmpq_poly``.  Forms in the two
chamber parameters (u, v) are not Polys: ``zariski`` keeps them as
integer triples, and ``double_integral`` takes an integrand by its
coefficients in v, each a polynomial in u.

Every Poly is in normal form: the last numerator is not zero, the
denominator is a positive int, the gcd of the denominator and all
numerators is 1, and the zero polynomial is the empty tuple over 1.
Structural equality is then exact polynomial equality.  ``const`` and
``from_coeffs`` establish the normal form from arbitrary rational input;
the ring operations work on the integers and reduce their result by one
gcd, and ``eval`` returns the exact value at a point as one Fraction.

``minimum`` is the one exact sign oracle: every claim that a polynomial
in u keeps its sign on an interval, here and in ``zariski``, is read
from the exact minimum it returns.  It, ``definite_integral`` and
``double_integral`` read a Poly's integer numerators directly and build
one Fraction at the end.

Rationals serialize as ``"p/q"`` (or ``"p"`` when the denominator is 1).
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import KstabError, _Record


class ExactCoreError(KstabError):
    """Base class for errors raised by the exact-arithmetic layer."""


class OverlappingPieces(ExactCoreError):
    """Two pieces of a piecewise polynomial have intersecting interiors."""


class DiscontinuousVolume(ExactCoreError):
    """Adjacent pieces of a piecewise polynomial leave a gap or disagree
    at their shared endpoint."""


class InvertedBounds(ExactCoreError):
    """Inner integration bounds cross inside the outer interval."""


class InconsistentSamples(ExactCoreError):
    """Sample points do not lie on a single polynomial of the stated degree."""


class MalformedInput(ExactCoreError):
    """Input of the wrong shape: a reversed interval, a coefficient list
    that is not a list, a polynomial whose minimum cannot be certified
    exactly, or unusable interpolation samples."""


class NotARational(ExactCoreError):
    """A value is neither an int, a Fraction nor a parsable rational string."""


def _rat_parts(value) -> tuple[int, int]:
    """(n, d), d > 0, with n / d = ``rat(value)``: a plain ``"p"`` or
    ``"p/q"`` string of ASCII digits is read by ``int`` directly, any other
    string by ``Fraction``'s parser."""
    if type(value) is int:
        return value, 1
    if isinstance(value, str):
        p, slash, q = value.partition("/")
        digits = p[1:] if p[:1] == "-" else p
        if (digits.isascii() and digits.isdigit() and (not slash or (
                q.isascii() and q.isdigit() and q.strip("0")))):
            try:
                return int(p), int(q) if slash else 1
            except ValueError:  # past the int-conversion digit limit
                pass
        try:
            x = Fraction(value.strip())
            return x.numerator, x.denominator
        except (ValueError, ZeroDivisionError):
            pass
    elif isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise NotARational(f"cannot interpret {value!r} as a rational")


def rat(value: int | str | Fraction) -> Fraction:
    """Parse a rational from an exact int (not a bool or other subclass),
    a Fraction, or a ``"p/q"`` string, as ``_rat_parts`` reads it."""
    if isinstance(value, Fraction):
        return value
    n, d = _rat_parts(value)
    return Fraction(n, d) if d != 1 else Fraction(n)


def rat_str(q: Fraction) -> str:
    """Serialize a rational as ``"p/q"``, or ``"p"`` for integers."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class Poly:
    """A polynomial in the parameter ``u`` with rational coefficients.

    The coefficient of ``u**k`` is ``num[k] / den``, in the normal form:
    ``num`` is a tuple of ints, lowest degree first, whose last entry is
    not zero; ``den`` is a positive int; gcd(den, all numerators) = 1;
    and the zero polynomial is ``((), 1)``.  Equality is structural.
    Instances behave as immutable values: all operators return new
    polynomials.  Every operator takes the same operands: Polys, exact
    ints (not bools) and Fractions, as ``rat`` reads them; ``==`` is False
    for any other and the rest raise TypeError.  Only ``const`` and
    ``from_coeffs`` read a string.
    """

    __slots__ = ("num", "den")

    def __init__(self):
        """The zero polynomial; ``const`` and ``from_coeffs`` build the
        others."""
        self.num, self.den = (), 1

    @classmethod
    def _of(cls, num: list[int], den: int) -> "Poly":
        """The Poly ``sum num[k] u**k / den`` from a fresh list of ints,
        which it trims, and ``den`` > 0."""
        while num and not num[-1]:
            num.pop()
        g = math.gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
        p = object.__new__(cls)
        p.num, p.den = tuple(num), den
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, c: int | str | Fraction | Poly) -> "Poly":
        """The constant ``c``; a Poly is returned unchanged."""
        if isinstance(c, Poly):
            return c
        c = rat(c)
        return cls._of([c.numerator], c.denominator)

    @classmethod
    def from_coeffs(cls, coeffs: list | tuple) -> "Poly":
        """Build ``sum(rat(coeffs[k]) * u**k)`` from a coefficient list or
        tuple; anything else (a string of digits, say) is MalformedInput.
        Each entry is read by ``rat``'s reader ``_rat_parts``, and the
        integer numerators are collected over one lcm."""
        if not isinstance(coeffs, (list, tuple)):
            raise MalformedInput(
                f"coefficients must be a list, got {coeffs!r}")
        parts = [_rat_parts(c) for c in coeffs]
        den = math.lcm(*(d for _, d in parts))
        return cls._of([n * (den // d) for n, d in parts], den)

    # -- ring operations ----------------------------------------------

    def _coerce(self, other) -> "Poly | None":
        """``other`` as a Poly if it is an operand (as in ``__mul__``)."""
        if isinstance(other, Poly):
            return other
        if type(other) is int or isinstance(other, Fraction):
            return Poly.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            return self
        if not self.num:
            return o
        g = math.gcd(self.den, o.den)
        fs, fo = o.den // g, self.den // g
        den = self.den * fs
        x, y = self.num, o.num
        if len(x) < len(y):
            x, y, fs, fo = y, x, fo, fs
        out = [c * fs for c in x]
        for k, c in enumerate(y):
            out[k] += c * fo
        return Poly._of(out, den)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of([-c for c in self.num], self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        # A Poly operand first: a failing isinstance(x, Fraction) goes
        # through the ABC machinery and costs seven times as much.
        if not isinstance(other, Poly):
            if type(other) is int or isinstance(other, Fraction):
                k = other.numerator
                return Poly._of([c * k for c in self.num],
                                self.den * other.denominator)
            return NotImplemented
        return Poly._of(_convolve(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.num == o.num

    def __hash__(self):
        if len(self.num) <= 1:
            # A constant compares equal to, so hashes like, its Fraction.
            return hash(Fraction(sum(self.num), self.den))
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    # -- queries ------------------------------------------------------

    def coefficient(self, k: int) -> Fraction:
        """The coefficient of ``u**k``."""
        return Fraction(self.num[k] if k < len(self.num) else 0, self.den)

    def coeffs(self) -> list[Fraction]:
        """Dense coefficient list, lowest degree first; [0] for zero."""
        return [Fraction(c, self.den) for c in self.num or (0,)]

    def eval(self, u) -> Fraction:
        """The exact value at ``u``.  At u = a/b the sum of c_k a^k
        b^(n-k), n the degree, is taken in integers by Horner's rule and
        divided once by den * b^n; an int argument is read without a
        Fraction."""
        if type(u) is not int:
            u = rat(u)
        a, b = u.numerator, u.denominator
        total, bk = 0, 1
        for c in reversed(self.num):
            total = total * a + c * bk
            bk *= b
        # bk is b^(n+1) now, so total * b / (den * bk) is the value.
        return Fraction(total * b, self.den * bk)

    def __repr__(self):
        if not self.num:
            return "0"
        return " + ".join(
            rat_str(Fraction(c, self.den))
            + ("" if k == 0 else "*u" if k == 1 else f"*u^{k}")
            for k, c in enumerate(self.num) if c)


def _convolve(x, y) -> list[int]:
    """The product of two dense integer polynomials, as a fresh list."""
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                out[i + j] += a * b
    return out


class Interval(_Record, frozen=True):
    """A closed rational interval ``[lo, hi]``."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        self.__dict__.update(lo=rat(self.lo), hi=rat(self.hi))
        if self.lo > self.hi:
            raise MalformedInput(f"interval endpoints out of order: {self}")

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __repr__(self):
        return f"[{rat_str(self.lo)}, {rat_str(self.hi)}]"


def definite_integral(p: Poly, rng: Interval) -> Fraction:
    """Exact definite integral of a polynomial in u over ``rng``.

    With p = sum c_k u^k / den, n = deg p + 1, m = lcm(1..n) and the ends
    a/b and c/d, it is sum c_k (m / (k+1)) (c^(k+1) d^(n-k-1) b^n -
    a^(k+1) b^(n-k-1) d^n) over den * m * b^n * d^n: one Fraction.
    """
    n = len(p.num)
    m = math.lcm(*range(1, n + 1))
    a, b = rng.lo.numerator, rng.lo.denominator
    c, d = rng.hi.numerator, rng.hi.denominator
    bn, dn = b ** n, d ** n
    total = 0
    for k, x in enumerate(p.num, 1):
        if x:
            total += x * (m // k) * (c ** k * d ** (n - k) * bn
                                     - a ** k * b ** (n - k) * dn)
    return Fraction(total, p.den * m * bn * dn)


class Piece(_Record, frozen=True):
    interval: Interval
    poly: Poly


class PiecewisePolynomial:
    """A continuous piecewise polynomial in u on one interval.

    Pieces are sorted by lower endpoint on construction, and each must
    start where the previous one ends: an overlap raises
    OverlappingPieces, and a gap or a jump at a shared endpoint raises
    DiscontinuousVolume, so a supplied table with a typo is refused
    rather than integrated.  This is the one tiling and continuity check
    of every volume function in the package.
    """

    def __init__(self, pieces: list[tuple[Interval, Poly] | Piece]):
        norm: list[Piece] = []
        for p in pieces:
            norm.append(p if isinstance(p, Piece) else Piece(*p))
        norm.sort(key=lambda p: (p.interval.lo, p.interval.hi))
        for a, b in zip(norm, norm[1:]):
            x = a.interval.hi
            if b.interval.lo < x:
                raise OverlappingPieces(
                    f"pieces {a.interval} and {b.interval} overlap")
            if b.interval.lo > x:
                raise DiscontinuousVolume(
                    f"pieces {a.interval} and {b.interval} leave a gap")
            left, right = a.poly.eval(x), b.poly.eval(x)
            if left != right:
                raise DiscontinuousVolume(
                    f"discontinuity at u = {rat_str(x)}: "
                    f"{rat_str(left)} vs {rat_str(right)}")
        self.pieces = norm

    def __iter__(self):
        return iter(self.pieces)


def piecewise_integral(f: PiecewisePolynomial) -> Fraction:
    """Sum of the exact integrals of all pieces."""
    total = Fraction(0)
    for p in f.pieces:
        total += definite_integral(p.poly, p.interval)
    return total


def minimum(p: Poly, interval: Interval) -> Fraction:
    """Exact minimum over ``interval`` of a polynomial in u of degree <= 2.

    This is the sign oracle behind every sign claim on an interval: an
    affine or concave function is smallest at an endpoint, and a convex
    quadratic at its vertex when that lies inside, else at an endpoint,
    so the value returned is the minimum itself, not a probe.  The values
    are read from the integer numerators c0 + c1*u + c2*u^2 of ``p``: at
    u = a/b, c0*b^2 + c1*a*b + c2*a^2 over den * b^2, and at the vertex
    (4*c0*c2 - c1^2) / (4*c2*den).  Any other input raises MalformedInput.
    """
    if len(p.num) > 3:
        raise MalformedInput(
            f"polynomial of degree {len(p.num) - 1} > 2: its minimum on "
            f"{interval} cannot be certified exactly")
    c0, c1, c2 = p.num + (0,) * (3 - len(p.num))
    a0, b0 = interval.lo.numerator, interval.lo.denominator
    a1, b1 = interval.hi.numerator, interval.hi.denominator
    # The vertex -c1 / (2*c2) lies inside when a0/b0 < it < a1/b1.
    if c2 > 0 and 2 * c2 * a0 < -c1 * b0 and -c1 * b1 < 2 * c2 * a1:
        return Fraction(4 * c0 * c2 - c1 * c1, 4 * c2 * p.den)
    lo = c0 * b0 * b0 + c1 * a0 * b0 + c2 * a0 * a0
    hi = c0 * b1 * b1 + c1 * a1 * b1 + c2 * a1 * a1
    if lo * b1 * b1 <= hi * b0 * b0:
        return Fraction(lo, p.den * b0 * b0)
    return Fraction(hi, p.den * b1 * b1)


def double_integral(f, inner_lo: Poly, inner_hi: Poly,
                    outer: Interval) -> Fraction:
    """Exact iterated integral of f = sum_j f[j] v^j, inner variable ``v``
    first; ``f`` lists the coefficients of v^0, v^1, ... as polynomials
    in ``u``.

    ``inner_lo`` and ``inner_hi`` are polynomials in ``u`` bounding the
    inner variable.  The bounds must satisfy lo <= hi on the outer
    interval, as ``minimum`` proves of their width hi - lo; bounds that
    cross raise InvertedBounds.  The width may therefore have degree at
    most 2 in ``u``; the bounds themselves may have any degree.

    Over the common denominator den of the f[j], the inner integral
    between L / ld and H / hd is the closed sum of f[j] (m / (j+1))
    (H^(j+1) hd^(n-j-1) ld^n - L^(j+1) ld^(n-j-1) hd^n) over
    m * (hd*ld)^n, with n = len(f) and m = lcm(1..n): integer
    convolutions of the bounds' numerators.  ``definite_integral``
    integrates it once in u.
    """
    hi, hd = inner_hi.num, inner_hi.den
    lo, ld = inner_lo.num, inner_lo.den
    if minimum(inner_hi - inner_lo, outer) < 0:
        raise InvertedBounds(f"inner bounds cross on {outer}")
    n = len(f)
    m = math.lcm(*range(1, n + 1))
    den = math.lcm(*(c.den for c in f))
    inner, hp, lp = [], [1], [1]
    for j, c in enumerate(f):
        # The integral of v^j between the bounds, over m * (hd*ld)^n.
        hp, lp = _convolve(hp, hi), _convolve(lp, lo)
        w = m // (j + 1)
        hs = w * hd ** (n - j - 1) * ld ** n
        ls = w * ld ** (n - j - 1) * hd ** n
        span = [0] * max(len(hp), len(lp))
        for k, x in enumerate(hp):
            span[k] += hs * x
        for k, y in enumerate(lp):
            span[k] -= ls * y
        term = _convolve([x * (den // c.den) for x in c.num], span)
        inner += [0] * (len(term) - len(inner))
        for k, x in enumerate(term):
            inner[k] += x
    return definite_integral(Poly._of(inner, den * m * (hd * ld) ** n),
                             outer)


def interpolate(points: list[tuple], degree: int) -> Poly:
    """The polynomial in ``u`` of degree <= ``degree`` through samples with
    distinct abscissae, in any order, built in Newton form: divided
    differences through the first degree+1 samples, expanded to monomials
    in O(degree^2) steps.  Every further sample must lie on the result,
    or InconsistentSamples is raised: the data is no such polynomial."""
    pts = [(rat(x), rat(y)) for x, y in points]
    if len({x for x, _ in pts}) != len(pts):
        raise MalformedInput(
            "interpolation points must have distinct abscissae")
    if not 0 <= degree < len(pts):
        raise MalformedInput("need a degree >= 0 and degree+1 samples")
    xs, dd = map(list, zip(*pts[:degree + 1]))
    for k in range(1, degree + 1):
        for i in range(degree, k - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - k])
    coeffs = [dd[degree]]  # low degree first; p <- p (u - x_i) + dd[i]
    for i in range(degree - 1, -1, -1):
        coeffs = ([dd[i] - xs[i] * coeffs[0]]
                  + [lo - xs[i] * hi for lo, hi in zip(coeffs, coeffs[1:])]
                  + [coeffs[-1]])
    poly = Poly.from_coeffs(coeffs)
    if any(poly.eval(x) != y for x, y in pts[degree + 1:]):
        raise InconsistentSamples(
            f"samples admit no degree-{degree} interpolant")
    return poly
