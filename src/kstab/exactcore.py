"""Exact arithmetic substrate: rationals, two-parameter polynomials, and
piecewise-polynomial integration.

Every number in this package is a :class:`fractions.Fraction`; floating
point is never used.  Polynomials are sparse maps from exponent pairs
``(i, j)`` -- powers of the outer parameter ``u`` and the inner parameter
``v`` -- to rational coefficients.  Zero coefficients are never stored, so
structural equality of the term maps is exact polynomial equality.

Rationals serialize as ``"p/q"`` (or ``"p"`` when the denominator is 1);
polynomials serialize as lists of ``[coeff, exp_u, exp_v]`` triples.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Rat = Fraction

VARS = ("u", "v")


class ExactCoreError(Exception):
    """Base class for errors raised by the exact-arithmetic layer."""


class OverlappingPieces(ExactCoreError):
    """Two pieces of a piecewise polynomial have intersecting interiors."""


class InvertedBounds(ExactCoreError):
    """Inner integration bounds cross inside the outer interval."""


class InconsistentSamples(ExactCoreError):
    """Sample points do not lie on a single polynomial of the stated degree."""


class ContinuityWarning(UserWarning):
    """Adjacent pieces disagree at a shared endpoint.

    A discontinuity is reported, not fatal: mismatching piece tables are
    expected in some of the bundled regression inputs and must surface as
    warnings rather than silently wrong integrals.
    """


def rat(value: int | str | Fraction) -> Fraction:
    """Parse a rational from an int, a Fraction, or a ``"p/q"`` string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as a rational")


def rat_str(q: Fraction) -> str:
    """Serialize a rational as ``"p/q"``, or ``"p"`` for integers."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def sqrt_rat(q: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None if it is not a square."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _var_index(var: str) -> int:
    try:
        return VARS.index(var)
    except ValueError:
        raise ValueError(f"unknown variable {var!r}; expected one of {VARS}")


class Poly:
    """A polynomial in the parameters ``u`` and ``v`` with rational
    coefficients.

    The representation is a dict ``{(i, j): coeff}`` for the monomial
    ``u**i * v**j``.  Instances behave as immutable values: all operators
    return new polynomials and stored term maps are never mutated.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], Fraction] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (i, j), c in terms.items():
                c = Fraction(c)
                if c:
                    clean[(int(i), int(j))] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, c: int | str | Fraction) -> "Poly":
        return cls({(0, 0): rat(c)})

    @classmethod
    def var(cls, name: str) -> "Poly":
        idx = _var_index(name)
        exp = (1, 0) if idx == 0 else (0, 1)
        return cls({exp: Fraction(1)})

    @classmethod
    def affine(cls, c0, cu=0, cv=0) -> "Poly":
        """The affine form ``c0 + cu*u + cv*v``."""
        return cls({(0, 0): rat(c0), (1, 0): rat(cu), (0, 1): rat(cv)})

    @classmethod
    def from_coeffs(cls, coeffs: Sequence, var: str = "u") -> "Poly":
        """Build ``sum(coeffs[k] * var**k)`` from a coefficient list."""
        idx = _var_index(var)
        terms = {}
        for k, c in enumerate(coeffs):
            exp = (k, 0) if idx == 0 else (0, k)
            terms[exp] = rat(c)
        return cls(terms)

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
        out = dict(self.terms)
        for e, c in o.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({e: -c for e, c in self.terms.items()})

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in o.terms.items():
                e = (i1 + i2, j1 + j2)
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # -- queries ------------------------------------------------------

    def degree(self, var: str) -> int:
        """Degree in one variable; the zero polynomial has degree 0."""
        idx = _var_index(var)
        if not self.terms:
            return 0
        return max(e[idx] for e in self.terms)

    def is_univariate(self, var: str) -> bool:
        """True if the polynomial only involves ``var``."""
        other = 1 - _var_index(var)
        return all(e[other] == 0 for e in self.terms)

    def coefficient(self, i: int, j: int = 0) -> Fraction:
        return self.terms.get((i, j), Fraction(0))

    def coeffs(self, var: str = "u") -> list[Fraction]:
        """Dense coefficient list for a univariate polynomial."""
        if not self.is_univariate(var):
            raise ValueError("polynomial is not univariate in " + var)
        idx = _var_index(var)
        out = [Fraction(0)] * (self.degree(var) + 1)
        for e, c in self.terms.items():
            out[e[idx]] = c
        return out

    # -- evaluation and substitution ----------------------------------

    def eval(self, u=None, v=None):
        """Evaluate; a partially evaluated polynomial stays a Poly.

        Returns a Fraction when all remaining variables are substituted.
        """
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in self.terms.items():
            fi = rat(u) ** i if u is not None else None
            fj = rat(v) ** j if v is not None else None
            coeff = c
            ei, ej = i, j
            if fi is not None:
                coeff, ei = coeff * fi, 0
            if fj is not None:
                coeff, ej = coeff * fj, 0
            e = (ei, ej)
            out[e] = out.get(e, Fraction(0)) + coeff
        p = Poly(out)
        if u is not None and v is not None:
            return p.terms.get((0, 0), Fraction(0))
        return p

    def subs_v(self, repl: "Poly") -> "Poly":
        """Substitute ``v`` by a polynomial in ``u``."""
        if not repl.is_univariate("u"):
            raise ValueError("substitution target must be a polynomial in u")
        out = Poly()
        for (i, j), c in self.terms.items():
            out = out + Poly({(i, 0): c}) * repl ** j
        return out

    # -- calculus ------------------------------------------------------

    def antiderivative(self, var: str) -> "Poly":
        idx = _var_index(var)
        out = {}
        for e, c in self.terms.items():
            k = e[idx] + 1
            ne = (k, e[1]) if idx == 0 else (e[0], k)
            out[ne] = c / k
        return Poly(out)

    def derivative(self, var: str) -> "Poly":
        idx = _var_index(var)
        out = {}
        for e, c in self.terms.items():
            k = e[idx]
            if k == 0:
                continue
            ne = (k - 1, e[1]) if idx == 0 else (e[0], k - 1)
            out[ne] = c * k
        return Poly(out)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j), c in sorted(self.terms.items()):
            mono = "".join(
                f"{n}^{e}" if e > 1 else (n if e == 1 else "")
                for n, e in (("u", i), ("v", j))
            )
            parts.append(f"{rat_str(c)}{'*' + mono if mono else ''}")
        return " + ".join(parts)


@dataclass(frozen=True)
class Interval:
    """A closed rational interval ``[lo, hi]``."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", rat(self.lo))
        object.__setattr__(self, "hi", rat(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self}")

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        return self.lo <= rat(x) <= self.hi

    def __repr__(self):
        return f"[{rat_str(self.lo)}, {rat_str(self.hi)}]"


def definite_integral(p: Poly, rng: Interval, var: str = "u") -> Fraction:
    """Exact definite integral of a univariate polynomial over ``rng``."""
    if not p.is_univariate(var):
        raise ValueError("definite_integral requires a univariate polynomial")
    f = p.antiderivative(var)
    kw_hi = {var: rng.hi}
    kw_lo = {var: rng.lo}
    other = VARS[1 - _var_index(var)]
    kw_hi[other] = 0
    kw_lo[other] = 0
    return f.eval(**kw_hi) - f.eval(**kw_lo)


@dataclass(frozen=True)
class Piece:
    interval: Interval
    poly: Poly


class PiecewisePolynomial:
    """A univariate piecewise polynomial with pairwise disjoint interiors.

    Pieces are sorted by lower endpoint on construction.  Continuity at
    shared endpoints is checked and reported as a ContinuityWarning, never
    assumed: the bundled inputs include printed tables with typos that must
    be caught rather than integrated silently.
    """

    def __init__(self, pieces: Iterable[tuple[Interval, Poly] | Piece],
                 var: str = "u", check_continuity: bool = True):
        norm: list[Piece] = []
        for p in pieces:
            if not isinstance(p, Piece):
                p = Piece(*p)
            if not p.poly.is_univariate(var):
                raise ValueError("piece polynomial is not univariate in " + var)
            norm.append(p)
        norm.sort(key=lambda p: (p.interval.lo, p.interval.hi))
        for a, b in zip(norm, norm[1:]):
            if b.interval.lo < a.interval.hi:
                raise OverlappingPieces(
                    f"pieces {a.interval} and {b.interval} overlap")
        self.pieces = norm
        self.var = var
        if check_continuity:
            self._warn_discontinuities()

    def _warn_discontinuities(self):
        for a, b in zip(self.pieces, self.pieces[1:]):
            if a.interval.hi == b.interval.lo:
                x = a.interval.hi
                left = a.poly.eval(**{self.var: x, VARS[1 - _var_index(self.var)]: 0})
                right = b.poly.eval(**{self.var: x, VARS[1 - _var_index(self.var)]: 0})
                if left != right:
                    warnings.warn(
                        f"discontinuity at {rat_str(x)}: "
                        f"{rat_str(left)} vs {rat_str(right)}",
                        ContinuityWarning,
                        stacklevel=3,
                    )

    def domain(self) -> Interval:
        if not self.pieces:
            return Interval(Fraction(0), Fraction(0))
        return Interval(self.pieces[0].interval.lo, self.pieces[-1].interval.hi)

    def eval(self, x) -> Fraction:
        x = rat(x)
        other = VARS[1 - _var_index(self.var)]
        for p in self.pieces:
            if p.interval.contains(x):
                return p.poly.eval(**{self.var: x, other: 0})
        raise ValueError(f"{rat_str(x)} outside the piecewise domain")

    def __iter__(self):
        return iter(self.pieces)

    def __len__(self):
        return len(self.pieces)


def piecewise_integral(f: PiecewisePolynomial) -> Fraction:
    """Sum of the exact integrals of all pieces."""
    total = Fraction(0)
    for p in f.pieces:
        total += definite_integral(p.poly, p.interval, f.var)
    return total


def double_integral(f: Poly, inner_lo: Poly, inner_hi: Poly,
                    outer: Interval) -> Fraction:
    """Exact iterated integral, inner variable ``v`` first.

    ``inner_lo`` and ``inner_hi`` are polynomials in ``u`` bounding the
    inner variable.  The bounds must satisfy lo <= hi on the outer
    interval; bounds that cross in the interior raise InvertedBounds.
    """
    for b in (inner_lo, inner_hi):
        if not b.is_univariate("u"):
            raise ValueError("inner bounds must be polynomials in u")
    diff = inner_hi - inner_lo
    lo_val = diff.eval(u=outer.lo, v=0)
    hi_val = diff.eval(u=outer.hi, v=0)
    if lo_val < 0 or hi_val < 0:
        raise InvertedBounds(
            f"inner bounds cross on {outer}: widths "
            f"{rat_str(lo_val)} and {rat_str(hi_val)} at the endpoints")
    if diff.degree("u") > 1:
        # Nonaffine widths are legal as long as they stay nonnegative.
        mid = diff.eval(u=outer.midpoint(), v=0)
        if mid < 0:
            raise InvertedBounds(f"inner bounds cross inside {outer}")
    anti = f.antiderivative("v")
    inner = anti.subs_v(inner_hi) - anti.subs_v(inner_lo)
    return definite_integral(inner, outer, "u")


def interpolate(points: Sequence[tuple], degree: int) -> Poly:
    """The unique degree-``degree`` polynomial in ``u`` through the samples.

    Raises InconsistentSamples when the (possibly overdetermined) system has
    no solution, i.e. the sampled function is not a polynomial of the stated
    degree on the sampled set.
    """
    from . import _linalg

    pts = [(rat(x), rat(y)) for x, y in points]
    if len({x for x, _ in pts}) != len(pts):
        raise ValueError("interpolation points must have distinct abscissae")
    if len(pts) < degree + 1:
        raise ValueError("need at least degree+1 samples")
    rows = [[x ** k for k in range(degree + 1)] for x, _ in pts]
    rhs = [y for _, y in pts]
    sol = _linalg.solve(rows, rhs)
    if sol is None:
        raise InconsistentSamples(
            f"samples admit no degree-{degree} interpolant")
    return Poly.from_coeffs(sol, "u")
