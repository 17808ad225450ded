"""Stability functionals: S-invariants, beta invariants, nested flag
functionals with their local correction terms, and min-aggregated delta
lower bounds.  ``check_volume`` is the one end check of a volume: every
volume the runner reads, a verified fixture or an inline table, passes it.

A :class:`FlagCase` packages one nested computation: the ambient volume
``A^n``, the per-chamber restriction of the decomposed family to the flag
surface, the order of the outer negative part along the flag, and local
multiplicity data for the marked points.  The inner chamber structure is
always rediscovered by the parametric Zariski engine, scanning the
restricted family minus v times the flag curve; printed tables are
treated as advisory input only.

The flag integrands P^2, (P.C)^2 and (P.C)(2 ord_Q + P.C) are read from
the inner chambers' integers: the volume's six, the flag curve's pairing
triple and ord_Q's triple from ``_point_order``.  ``zariski._quadratic``
multiplies triples, and ``_integral`` hands a quadratic form to
``double_integral`` by its coefficients in v.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import KstabError, _Record
from .exactcore import Interval, PiecewisePolynomial, Poly, double_integral, \
    definite_integral, piecewise_integral, rat, rat_str
from .zariski import (Chamber2D, SurfaceLattice, _affine_family,
                      _family_square, _in_v, _quadratic,
                      parametric_surface_zariski)


class FunctionalError(KstabError):
    pass


class MissingMultiplicity(FunctionalError):
    """No local multiplicity data for the requested point."""


class ZeroS(FunctionalError):
    """A delta-bound entry has vanishing expected order S."""


class NotAVolume(FunctionalError):
    """A piecewise polynomial that does not fall from the ample cube at
    u = 0 to 0 at its end."""


class StabilityValue(_Record, frozen=True):
    """An exact functional value with its chamber provenance."""

    kind: str
    value: Fraction
    contributions: tuple[tuple[str, Fraction], ...] = ()


class FlagPoint(_Record, frozen=True):
    name: str
    mults: dict[str, Fraction]
    log_discrepancy: Fraction = Fraction(1)


class FlagChamber(_Record, frozen=True):
    interval: Interval
    family: dict[str, Poly]
    outer_negative: dict[str, Poly]


class FlagCase(_Record):
    """One nested flag computation over a surface lattice."""

    label: str
    lattice: SurfaceLattice
    flag: str
    dim: int
    ample_power: Fraction
    flag_log_discrepancy: Fraction
    chambers: list[FlagChamber]
    sigma: dict[str, Fraction] = {}
    points: tuple[FlagPoint, ...] = ()
    _inner: list | None = None

    def point(self, name: str) -> FlagPoint:
        for p in self.points:
            if p.name == name:
                return p
        raise MissingMultiplicity(
            f"case {self.label!r} has no multiplicity data for {name!r}")

    def flag_order(self, ch: FlagChamber) -> Poly:
        return ch.outer_negative.get(self.flag, Poly())

    def inner(self) -> list[tuple[FlagChamber, list[Chamber2D]]]:
        """Per outer chamber, the rediscovered inner decomposition of the
        family minus v times the flag curve."""
        if self._inner is None:
            out = []
            for ch in self.chambers:
                # The local orders built from it are checked at corners.
                _affine_family(ch.outer_negative,
                               f"{self.label}: outer negative part")
                out.append((ch, parametric_surface_zariski(
                    self.lattice, ch.family, {self.flag: -1}, ch.interval)))
            self._inner = out
        return self._inner


def check_volume(vol: PiecewisePolynomial, a_top: Fraction) -> None:
    """Raise NotAVolume, naming the failing end, unless ``vol`` has a
    piece, starts at u = 0 with the value ``a_top`` and is 0 at its end.
    ``PiecewisePolynomial`` has already proved it continuous on one
    interval, so these ends are all that is left to check."""
    if not vol.pieces:
        raise NotAVolume("a volume needs at least one piece")
    first, last = vol.pieces[0], vol.pieces[-1]
    lo, hi = first.interval.lo, last.interval.hi
    if lo:
        raise NotAVolume(f"vol starts at u = {rat_str(lo)}, not at u = 0")
    if (start := first.poly.eval(0)) != a_top:
        raise NotAVolume(f"vol(0) = {rat_str(start)} is not the ample cube "
                         f"{rat_str(a_top)}")
    if end := last.poly.eval(hi):
        raise NotAVolume(f"vol({rat_str(hi)}) = {rat_str(end)} is not 0 at "
                         "the end")


def s_from_volume(vol: PiecewisePolynomial, a_top: Fraction) -> Fraction:
    """Expected vanishing order: ``piecewise_integral(vol)`` / a_top."""
    a_top = rat(a_top)
    if a_top <= 0:
        raise FunctionalError("ample volume must be positive")
    return piecewise_integral(vol) / a_top


def beta_divisor(a_log: Fraction, vol: PiecewisePolynomial,
                 a_top: Fraction) -> Fraction:
    """Log discrepancy minus expected vanishing order."""
    return rat(a_log) - s_from_volume(vol, a_top)


def _integral(sub: Chamber2D, k: tuple, den: int) -> Fraction:
    """The integral over ``sub`` of the quadratic form with the six
    integers ``k`` over ``den``."""
    return double_integral(_in_v(k, den), sub.v_lo, sub.v_hi, sub.u_interval)


def _flag_surface_terms(case: FlagCase):
    """S(W; flag)'s terms with their chambers: an outer chamber's flag
    order term, if any, then each inner chamber's integrated volume."""
    scale = Fraction(case.dim) / rat(case.ample_power)
    for ch, inner in case.inner():
        d = case.flag_order(ch)
        if d:
            sq = _family_square(case.lattice, ch.family)
            yield ch, scale * definite_integral(sq * d, ch.interval)
        for sub in inner:
            yield sub, scale * _integral(
                sub, sub.volume, sub.gram_den * sub.scale * sub.scale)


def s_flag_surface(case: FlagCase) -> Fraction:
    return sum((term for _, term in _flag_surface_terms(case)), Fraction(0))


def s_flag_surface_report(case: FlagCase) -> StabilityValue:
    """S(W; flag) with one row per term, labelled by its chamber."""
    rows = tuple(
        (f"order term on {ch.interval}" if isinstance(ch, FlagChamber) else
         f"vol over {ch.u_interval} x [{ch.v_lo!r}, {ch.v_hi!r}]", term)
        for ch, term in _flag_surface_terms(case))
    return StabilityValue("S_flag_surface",
                          sum((c for _, c in rows), Fraction(0)), rows)


def _point_order(case: FlagCase, point: FlagPoint, ch: FlagChamber,
                 sub: Chamber2D) -> tuple[tuple[int, int, int], int]:
    """ord_Q of the full negative part restricted to the flag curve, as
    the integer triple (a, b, c) of (a + b*u + c*v) / den, and den.

    Combines the residual outer negative part, the inner negative part,
    and the correction for the pulled-back flag class (sigma), weighted by
    the local intersection multiplicities at the point.
    """
    form, sigma_mult = [Fraction(0)] * 3, Fraction(0)
    for curve, mult in point.mults.items():
        if curve != case.flag:
            for k, x in enumerate(
                    ch.outer_negative.get(curve, Poly()).coeffs()):
                form[k] += mult * x
        for k, x in enumerate(sub.n.get(curve, ())):
            form[k] += mult * x / sub.scale
        sigma_mult += mult * case.sigma.get(curve, Fraction(0))
    if sigma_mult:
        for k, x in enumerate(case.flag_order(ch).coeffs()):
            form[k] -= sigma_mult * x
        form[2] -= sigma_mult
    den = math.lcm(*(x.denominator for x in form))
    return tuple(x.numerator * (den // x.denominator) for x in form), den


def _point_integral(case: FlagCase, point_name: str, square: bool) -> Fraction:
    """(n/A^n) times the integral over each inner chamber, once, of
    (P.C)(2 ord_Q + P.C) if ``square`` else 2 (P.C) ord_Q.  A nonzero
    ord_Q is affine: ``Chamber2D.nonnegative`` proves its sign first."""
    point = case.point(point_name)
    scale = Fraction(case.dim) / rat(case.ample_power)
    flag = case.lattice.index(case.flag)
    total = Fraction(0)
    for ch, inner in case.inner():
        for sub in inner:
            pdotc, pden = sub.pv[flag], sub.scale * sub.gram_den
            order, oden = _point_order(case, point, ch, sub)
            if any(order) and not sub.nonnegative(order):
                raise FunctionalError(
                    f"{case.label}: negative local order at {point_name} "
                    f"for u in {sub.u_interval}")
            if any(order) or square:
                # The weight 2 ord_Q, plus P.C if square, over den.
                den = math.lcm(oden, pden)
                weight = [2 * x * (den // oden) + square * y * (den // pden)
                          for x, y in zip(order, pdotc)]
                total += scale * _integral(
                    sub, _quadratic([pdotc], [weight]), pden * den)
    return total


def f_q_term(case: FlagCase, point_name: str) -> Fraction:
    """The local correction: (2n/A^n) integral of (P.C) ord_Q(N restricted)."""
    return _point_integral(case, point_name, square=False)


def s_flag_point(case: FlagCase, point_name: str) -> Fraction:
    """S(W; Q) = (n/A^n) integral of (P.C)^2, plus the local correction."""
    return _point_integral(case, point_name, square=True)


class DeltaBoundRow(_Record, frozen=True):
    label: str
    log_discrepancy: Fraction
    expected_order: Fraction

    @property
    def ratio(self) -> Fraction:
        return self.log_discrepancy / self.expected_order


class DeltaBoundReport(_Record, frozen=True):
    value: Fraction
    rows: tuple[DeltaBoundRow, ...]

    @property
    def exceeds_one(self) -> bool:
        return self.value > 1


def delta_bound_report(entries) -> DeltaBoundReport:
    """min over entries of A/S; entries are (label, A, S) or (A, S)."""
    if not isinstance(entries, (list, tuple)):
        raise FunctionalError(
            f"delta bound entries must be a list, got {entries!r}")
    rows = []
    for e in entries:
        if not isinstance(e, (list, tuple)) or len(e) not in (2, 3):
            raise FunctionalError(
                f"delta bound entry must be (A, S) or (label, A, S), "
                f"got {e!r}")
        if len(e) == 3:
            label, a, s = e
        else:
            a, s = e
            label = f"A={rat_str(rat(a))}"
        a, s = rat(a), rat(s)
        if s == 0:
            raise ZeroS(f"entry {label!r} has S = 0")
        rows.append(DeltaBoundRow(str(label), a, s))
    if not rows:
        raise FunctionalError("delta bound needs at least one entry")
    value = min(r.ratio for r in rows)
    return DeltaBoundReport(value, tuple(rows))
