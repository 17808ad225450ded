"""Stability functionals: S-invariants, beta invariants, nested flag
functionals with their local correction terms, and min-aggregated delta
lower bounds.

A :class:`FlagCase` packages one nested computation: the ambient volume
``A^n``, the per-chamber restriction of the decomposed family to the flag
surface, the order of the outer negative part along the flag, and local
multiplicity data for the marked points.  The inner chamber structure is
always rediscovered by the parametric Zariski engine; printed tables are
treated as advisory input only.
"""

from __future__ import annotations

from fractions import Fraction

from . import KstabError, _Record
from .exactcore import Interval, PiecewisePolynomial, Poly, double_integral, \
    definite_integral, rat, rat_str
from .zariski import (Chamber2D, SurfaceLattice, _affine_family,
                      parametric_surface_zariski)


class FunctionalError(KstabError):
    pass


class MissingMultiplicity(FunctionalError):
    """No local multiplicity data for the requested point."""


class ZeroS(FunctionalError):
    """A delta-bound entry has vanishing expected order S."""


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
                fam = dict(ch.family)
                fam[self.flag] = fam.get(self.flag, Poly()) - Poly.var("v")
                out.append(
                    (ch, parametric_surface_zariski(self.lattice, fam,
                                                    ch.interval)))
            self._inner = out
        return self._inner


def s_from_volume(vol: PiecewisePolynomial, a_top: Fraction) -> Fraction:
    """Expected vanishing order: the normalized integral of the volume."""
    return s_from_volume_report(vol, a_top).value


def s_from_volume_report(vol: PiecewisePolynomial,
                         a_top: Fraction) -> StabilityValue:
    a_top = rat(a_top)
    if a_top <= 0:
        raise FunctionalError("ample volume must be positive")
    rows = []
    for piece in vol:
        contrib = definite_integral(piece.poly, piece.interval) / a_top
        rows.append((f"u in {piece.interval}", contrib))
    total = sum((c for _, c in rows), Fraction(0))
    return StabilityValue("S_divisor", total, tuple(rows))


def beta_divisor(a_log: Fraction, vol: PiecewisePolynomial,
                 a_top: Fraction) -> Fraction:
    """Log discrepancy minus expected vanishing order."""
    return rat(a_log) - s_from_volume(vol, a_top)


def s_flag_surface(case: FlagCase) -> Fraction:
    return s_flag_surface_report(case).value


def s_flag_surface_report(case: FlagCase) -> StabilityValue:
    """S(W; flag): the flag-order term plus the integrated inner volumes."""
    scale = Fraction(case.dim) / rat(case.ample_power)
    rows = []
    for ch, inner in case.inner():
        d = case.flag_order(ch)
        if d:
            sq = Poly.const(case.lattice.dot(ch.family, ch.family))
            term = scale * definite_integral(sq * d, ch.interval)
            rows.append((f"order term on {ch.interval}", term))
        for sub in inner:
            term = scale * double_integral(sub.volume, sub.v_lo, sub.v_hi,
                                           sub.u_interval)
            rows.append(
                (f"vol over {sub.u_interval} x [{sub.v_lo!r}, {sub.v_hi!r}]",
                 term))
    total = sum((c for _, c in rows), Fraction(0))
    return StabilityValue("S_flag_surface", total, tuple(rows))


def _point_order(case: FlagCase, point: FlagPoint, ch: FlagChamber,
                 sub: Chamber2D) -> Poly:
    """ord_Q of the full negative part restricted to the flag curve.

    Combines the residual outer negative part, the inner negative part,
    and the correction for the pulled-back flag class (sigma), weighted by
    the local intersection multiplicities at the point.
    """
    total, sigma_mult = Poly(), Fraction(0)
    residual = {k: q for k, q in ch.outer_negative.items() if k != case.flag}
    for curve, mult in point.mults.items():
        coeff = residual.get(curve, Poly()) + sub.negative.get(curve, Poly())
        total = total + mult * coeff
        sigma_mult += mult * case.sigma.get(curve, Fraction(0))
    if sigma_mult:
        total = total - sigma_mult * (Poly.var("v") + case.flag_order(ch))
    return total


def _point_integral(case: FlagCase, point_name: str, square: bool) -> Fraction:
    """(n/A^n) times the integral over each inner chamber, once, of
    (P.C)(2 ord_Q + P.C) if ``square`` else 2 (P.C) ord_Q.  A nonzero
    ord_Q is affine: ``Chamber2D.nonnegative`` proves its sign first."""
    point = case.point(point_name)
    scale = Fraction(case.dim) / rat(case.ample_power)
    total = Fraction(0)
    for ch, inner in case.inner():
        for sub in inner:
            pdotc = Poly.const(sub.pairings[case.flag])
            order = _point_order(case, point, ch, sub)
            if order and not sub.nonnegative(order):
                raise FunctionalError(
                    f"{case.label}: negative local order at {point_name} "
                    f"for u in {sub.u_interval}")
            if order or square:
                weight = 2 * order + pdotc if square else 2 * order
                total += scale * double_integral(pdotc * weight, sub.v_lo,
                                                 sub.v_hi, sub.u_interval)
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
