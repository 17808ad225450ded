"""Exact arithmetic substrate: rationals, two-parameter polynomials, and
piecewise polynomials in ``u`` with their integrals.

Every number in this package is exact: an int or a
:class:`fractions.Fraction`; floating point is never used.  Polynomials
are sparse maps from exponent pairs ``(i, j)`` -- powers of the outer
parameter ``u`` and the inner parameter ``v`` -- to integer numerators,
over one common denominator, as in FLINT's ``fmpq_poly``.

Every Poly is in normal form: no numerator is zero, the denominator is a
positive int, the gcd of the denominator and all numerators is 1, and the
zero polynomial is the empty map over 1.  Structural equality is then
exact polynomial equality.  The public ``Poly(...)`` constructor
establishes the normal form from arbitrary rational input; the ring
operations work on the integers and reduce their result by one gcd, and
``eval`` returns the exact value at a point as one Fraction.

``_dense`` is the one reader of "a polynomial in u": a term in v raises
MalformedInput naming the entry point that needed one.

``minimum`` is the one exact sign oracle: every claim that a polynomial
in u keeps its sign on an interval, here and in ``zariski``, is read
from the exact minimum it returns.  It, ``definite_integral`` and
``double_integral`` read a Poly's integer numerators directly and build
one Fraction at the end.

Rationals serialize as ``"p/q"`` (or ``"p"`` when the denominator is 1).
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from types import MappingProxyType

from . import KstabError, _Record


class ExactCoreError(KstabError):
    """Base class for errors raised by the exact-arithmetic layer."""


class OverlappingPieces(ExactCoreError):
    """Two pieces of a piecewise polynomial have intersecting interiors."""


class InvertedBounds(ExactCoreError):
    """Inner integration bounds cross inside the outer interval."""


class InconsistentSamples(ExactCoreError):
    """Sample points do not lie on a single polynomial of the stated degree."""


class MalformedInput(ExactCoreError):
    """Input of the wrong shape: a reversed interval, a coefficient list
    that is not a list, a term in v where a polynomial in u is needed, a
    variable other than u and v, a negative power, a polynomial whose
    minimum cannot be certified exactly, a point outside a piecewise
    domain, or unusable interpolation samples."""


class NotARational(ExactCoreError):
    """A value is neither an int, a Fraction nor a parsable rational string."""


class ContinuityWarning(UserWarning):
    """Adjacent pieces disagree at a shared endpoint.

    A discontinuity is reported, not fatal, so a mismatching piece table
    surfaces rather than integrating silently.  No bundled input raises
    it: ``kstab suite`` runs clean under ``python -W error``.
    """


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
    elif isinstance(value, int) and not isinstance(value, bool):
        return int(value), 1
    raise NotARational(f"cannot interpret {value!r} as a rational")


def rat(value: int | str | Fraction) -> Fraction:
    """Parse a rational from an int (not a bool), a Fraction, or a
    ``"p/q"`` string, as ``_rat_parts`` reads it."""
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


def sqrt_rat(q: int | Fraction) -> Fraction | None:
    """Exact square root of an int or a Fraction, or None if it is not a
    square."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


class Poly:
    """A polynomial in the parameters ``u`` and ``v`` with rational
    coefficients.

    The coefficient of ``u**i * v**j`` is ``num[(i, j)] / den``, in the
    normal form: every numerator is a nonzero int, ``den`` is a positive
    int, gcd(den, all numerators) = 1, and the zero polynomial is
    ``({}, 1)``.  Equality is structural.  Instances behave as immutable
    values: all operators return new polynomials and ``num`` is never
    mutated.
    """

    __slots__ = ("num", "den")

    def __init__(self, terms: dict[tuple[int, int], Fraction] | None = None):
        clean = {}
        for (i, j), c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[(int(i), int(j))] = c
        # Over the lcm of reduced denominators the gcd is already 1.
        self.den = math.lcm(*(c.denominator for c in clean.values()))
        self.num = {e: c.numerator * (self.den // c.denominator)
                    for e, c in clean.items()}

    @classmethod
    def _of(cls, num: dict[tuple[int, int], int], den: int) -> "Poly":
        """The Poly ``num / den``, from nonzero ints and ``den`` > 0."""
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
        p = object.__new__(cls)
        p.num, p.den = num, den
        return p

    @property
    def terms(self) -> MappingProxyType:
        """Read-only map ``{(i, j): Fraction}`` of the coefficients, built
        on each access."""
        return MappingProxyType(
            {e: Fraction(c, self.den) for e, c in self.num.items()})

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, c: int | str | Fraction | Poly) -> "Poly":
        """The constant ``c``; a Poly is returned unchanged."""
        if isinstance(c, Poly):
            return c
        c = rat(c)
        return cls._of({(0, 0): c.numerator} if c else {}, c.denominator)

    @classmethod
    def var(cls, name: str) -> "Poly":
        if name not in ("u", "v"):
            raise MalformedInput(f"unknown variable {name!r}; expected u or v")
        return cls._of({(1, 0) if name == "u" else (0, 1): 1}, 1)

    @classmethod
    def affine(cls, c0, cu=0, cv=0) -> "Poly":
        """The affine form ``c0 + cu*u + cv*v``."""
        return cls({(0, 0): rat(c0), (1, 0): rat(cu), (0, 1): rat(cv)})

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
        return cls._of({(k, 0): n * (den // d)
                        for k, (n, d) in enumerate(parts) if n}, den)

    # -- ring operations ----------------------------------------------

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction, str)):
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
        out = {e: c * fs for e, c in self.num.items()}
        for e, c in o.num.items():
            s = out.get(e, 0) + c * fo
            if s:
                out[e] = s
            else:
                del out[e]
        return Poly._of(out, self.den * fs)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of({e: -c for e, c in self.num.items()}, self.den)

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
            if isinstance(other, (int, Fraction)):
                if not other:
                    return Poly._of({}, 1)
                k = other.numerator
                return Poly._of({e: c * k for e, c in self.num.items()},
                                self.den * other.denominator)
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self.num.items():
            for (i2, j2), c2 in other.num.items():
                e = (i1 + i2, j1 + j2)
                out[e] = out.get(e, 0) + c1 * c2
        return Poly._of({e: c for e, c in out.items() if c},
                        self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise MalformedInput("negative powers are not polynomials")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, str):  # a str hashes apart, so never equal
            return NotImplemented
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.num == o.num

    def __hash__(self):
        if self.num.keys() <= {(0, 0)}:
            # A constant compares equal to, so hashes like, its Fraction.
            return hash(Fraction(self.num.get((0, 0), 0), self.den))
        return hash((frozenset(self.num.items()), self.den))

    def __bool__(self):
        return bool(self.num)

    # -- queries ------------------------------------------------------

    def coefficient(self, i: int, j: int = 0) -> Fraction:
        return Fraction(self.num.get((i, j), 0), self.den)

    def coeffs(self) -> list[Fraction]:
        """Dense coefficient list of a polynomial in u alone."""
        return [Fraction(c, self.den) for c in _dense(self, "coeffs")]

    def eval(self, u, v=0) -> Fraction:
        """The exact value at ``(u, v)``, v = 0 by default.  At u = a/b
        and v = p/q, u**i * v**j is summed as the integer a**i * b**(ni - i)
        * p**j * q**(nj - j) over den * b**ni * q**nj, ni and nj the
        degrees in u and v; an int argument is read without a Fraction."""
        if type(u) is not int:
            u = rat(u)
        if type(v) is not int:
            v = rat(v)
        a, b, p, q = u.numerator, u.denominator, v.numerator, v.denominator
        ni = nj = 0
        for i, j in self.num:
            ni, nj = max(ni, i), max(nj, j)
        total = 0
        for (i, j), c in self.num.items():
            total += c * a ** i * b ** (ni - i) * p ** j * q ** (nj - j)
        return Fraction(total, self.den * b ** ni * q ** nj)

    def __repr__(self):
        if not self.num:
            return "0"
        parts = []
        for (i, j), c in sorted(self.terms.items()):
            mono = "".join(
                f"{n}^{e}" if e > 1 else (n if e == 1 else "")
                for n, e in (("u", i), ("v", j))
            )
            parts.append(f"{rat_str(c)}{'*' + mono if mono else ''}")
        return " + ".join(parts)


def _dense(p: Poly, what: str) -> list[int]:
    """The integer numerators of a polynomial in u, lowest degree first;
    a term in v raises MalformedInput naming ``what``, the entry point
    that needs a polynomial in u."""
    num = p.num
    out = [0] * (max(num)[0] + 1 if num else 1)
    for (k, j), c in num.items():
        if j:
            raise MalformedInput(
                f"{what} needs a polynomial in u; {p!r} is not univariate")
        out[k] = c
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

    def contains(self, x) -> bool:
        return self.lo <= rat(x) <= self.hi

    def __repr__(self):
        return f"[{rat_str(self.lo)}, {rat_str(self.hi)}]"


def definite_integral(p: Poly, rng: Interval) -> Fraction:
    """Exact definite integral of a polynomial in u over ``rng``.

    With p = sum c_k u^k / den, n = deg p + 1, m = lcm(1..n) and the ends
    a/b and c/d, it is sum c_k (m / (k+1)) (c^(k+1) d^(n-k-1) b^n -
    a^(k+1) b^(n-k-1) d^n) over den * m * b^n * d^n: one Fraction.
    """
    dense = _dense(p, "definite_integral")
    n = len(dense)
    m = math.lcm(*range(1, n + 1))
    a, b = rng.lo.numerator, rng.lo.denominator
    c, d = rng.hi.numerator, rng.hi.denominator
    bn, dn = b ** n, d ** n
    total = 0
    for k, x in enumerate(dense, 1):
        if x:
            total += x * (m // k) * (c ** k * d ** (n - k) * bn
                                     - a ** k * b ** (n - k) * dn)
    return Fraction(total, p.den * m * bn * dn)


class Piece(_Record, frozen=True):
    interval: Interval
    poly: Poly


class PiecewisePolynomial:
    """A piecewise polynomial in u with pairwise disjoint interiors.

    Pieces are sorted by lower endpoint on construction.  Continuity at
    shared endpoints is checked and reported as a ContinuityWarning, never
    assumed, so a supplied table with a typo is caught rather than
    integrated silently.  A caller for which a jump is an error turns the
    warning into one.
    """

    def __init__(self, pieces: list[tuple[Interval, Poly] | Piece]):
        norm: list[Piece] = []
        for p in pieces:
            if not isinstance(p, Piece):
                p = Piece(*p)
            _dense(p.poly, "PiecewisePolynomial")
            norm.append(p)
        norm.sort(key=lambda p: (p.interval.lo, p.interval.hi))
        for a, b in zip(norm, norm[1:]):
            if b.interval.lo < a.interval.hi:
                raise OverlappingPieces(
                    f"pieces {a.interval} and {b.interval} overlap")
            if a.interval.hi == b.interval.lo:
                x = a.interval.hi
                left, right = a.poly.eval(x), b.poly.eval(x)
                if left != right:
                    warnings.warn(
                        f"discontinuity at u = {rat_str(x)}: "
                        f"{rat_str(left)} vs {rat_str(right)}",
                        ContinuityWarning, stacklevel=2)
        self.pieces = norm

    def eval(self, x) -> Fraction:
        x = rat(x)
        for p in self.pieces:
            if p.interval.contains(x):
                return p.poly.eval(x)
        raise MalformedInput(f"{rat_str(x)} outside the piecewise domain")

    def __iter__(self):
        return iter(self.pieces)

    def __len__(self):
        return len(self.pieces)


def piecewise_integral(f: PiecewisePolynomial) -> Fraction:
    """Sum of the exact integrals of all pieces."""
    total = Fraction(0)
    for p in f.pieces:
        total += definite_integral(p.poly, p.interval)
    return total


_U_QUADRATIC = frozenset({(0, 0), (1, 0), (2, 0)})


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
    num = p.num
    if not num.keys() <= _U_QUADRATIC:
        degree = len(_dense(p, "minimum")) - 1
        raise MalformedInput(
            f"polynomial of degree {degree} > 2: its minimum on "
            f"{interval} cannot be certified exactly")
    c0, c1, c2 = num.get((0, 0), 0), num.get((1, 0), 0), num.get((2, 0), 0)
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


def _convolve(x: list[int], y: list[int]) -> list[int]:
    """The product of two dense integer polynomials."""
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                out[i + j] += a * b
    return out


def double_integral(f: Poly, inner_lo: Poly, inner_hi: Poly,
                    outer: Interval) -> Fraction:
    """Exact iterated integral, inner variable ``v`` first.

    ``inner_lo`` and ``inner_hi`` are polynomials in ``u`` bounding the
    inner variable.  The bounds must satisfy lo <= hi on the outer
    interval, as ``minimum`` proves of their width hi - lo; bounds that
    cross raise InvertedBounds.  The width may therefore have degree at
    most 2 in ``u``; the bounds themselves may have any degree.

    The inner integral of f = sum c_ij u^i v^j / den between L / ld and
    H / hd is the closed sum of c_ij u^i (m / (j+1)) (H^(j+1) hd^(n-j-1)
    ld^n - L^(j+1) ld^(n-j-1) hd^n) over den * m * (hd*ld)^n, with
    n = deg_v f + 1 and m = lcm(1..n): integer convolutions of the
    bounds' numerators.  ``definite_integral`` integrates it once in u.
    """
    hi, hd = _dense(inner_hi, "double_integral"), inner_hi.den
    lo, ld = _dense(inner_lo, "double_integral"), inner_lo.den
    if minimum(inner_hi - inner_lo, outer) < 0:
        raise InvertedBounds(f"inner bounds cross on {outer}")
    du = dv = 0
    for i, j in f.num:
        du, dv = max(du, i), max(dv, j)
    n = dv + 1
    m = math.lcm(*range(1, n + 1))
    # span[j] / (m * (hd*ld)^n) is the integral of v^j between the bounds.
    span, hp, lp = [], [1], [1]
    for j in range(n):
        hp, lp = _convolve(hp, hi), _convolve(lp, lo)
        w = m // (j + 1)
        hs = w * hd ** (n - j - 1) * ld ** n
        ls = w * ld ** (n - j - 1) * hd ** n
        diff = [0] * max(len(hp), len(lp))
        for k, x in enumerate(hp):
            diff[k] += hs * x
        for k, y in enumerate(lp):
            diff[k] -= ls * y
        span.append(diff)
    inner = [0] * (du + len(span[-1]))
    for (i, j), c in f.num.items():
        for k, x in enumerate(span[j]):
            inner[i + k] += c * x
    return definite_integral(
        Poly._of({(k, 0): x for k, x in enumerate(inner) if x},
                 f.den * m * (hd * ld) ** n), outer)


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
