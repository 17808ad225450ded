"""Stability functionals: S-invariants, beta invariants, nested flag
functionals with their local correction terms, log discrepancies of
weighted blowups, and min-aggregated delta lower bounds.

A :class:`FlagCase` packages one nested computation: the ambient volume
``A^n``, the per-chamber restriction of the decomposed family to the flag
surface, the order of the outer negative part along the flag, and local
multiplicity data for the marked points.  The inner chamber structure is
always rediscovered by the parametric Zariski engine; printed tables are
treated as advisory input only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from . import KstabError
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


class NonPositiveDiscrepancyWarning(UserWarning):
    """A log discrepancy came out <= 0 (non-klt input)."""


@dataclass(frozen=True)
class StabilityValue:
    """An exact functional value with its chamber provenance."""

    kind: str
    value: Fraction
    contributions: tuple[tuple[str, Fraction], ...] = ()

    def check(self):
        if self.contributions:
            total = sum((c for _, c in self.contributions), Fraction(0))
            if total != self.value:
                raise FunctionalError("provenance does not sum to the value")
        return self


@dataclass(frozen=True)
class FlagPoint:
    name: str
    mults: dict[str, Fraction]
    log_discrepancy: Fraction = Fraction(1)


@dataclass(frozen=True)
class FlagChamber:
    interval: Interval
    family: dict[str, Poly]
    outer_negative: dict[str, Poly]


@dataclass
class FlagCase:
    """One nested flag computation over a surface lattice."""

    label: str
    lattice: SurfaceLattice
    flag: str
    dim: int
    ample_power: Fraction
    flag_log_discrepancy: Fraction
    chambers: list[FlagChamber]
    sigma: dict[str, Fraction] = field(default_factory=dict)
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

    def residual_negative(self, ch: FlagChamber) -> dict[str, Poly]:
        return {k: p for k, p in ch.outer_negative.items() if k != self.flag}

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
    return StabilityValue("S_divisor", total, tuple(rows)).check()


def beta_divisor(a_log: Fraction, vol: PiecewisePolynomial,
                 a_top: Fraction) -> Fraction:
    """Log discrepancy minus expected vanishing order."""
    return rat(a_log) - s_from_volume(vol, a_top)


def s_flag_surface(case: FlagCase) -> Fraction:
    return s_flag_surface_report(case).value


def s_flag_surface_report(case: FlagCase) -> StabilityValue:
    """S(W; flag): the flag-order term plus the integrated inner volumes."""
    n = Fraction(case.dim)
    scale = n / rat(case.ample_power)
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
    return StabilityValue("S_flag_surface", total, tuple(rows)).check()


def _point_order(case: FlagCase, point: FlagPoint, ch: FlagChamber,
                 sub: Chamber2D) -> Poly:
    """ord_Q of the full negative part restricted to the flag curve.

    Combines the residual outer negative part, the inner negative part,
    and the correction for the pulled-back flag class (sigma), weighted by
    the local intersection multiplicities at the point.
    """
    total = Poly()
    residual = case.residual_negative(ch)
    d = case.flag_order(ch)
    for curve, mult in point.mults.items():
        coeff = residual.get(curve, Poly()) + sub.negative.get(curve, Poly())
        total = total + mult * coeff
    sigma_mult = sum((mult * case.sigma.get(curve, Fraction(0))
                      for curve, mult in point.mults.items()), Fraction(0))
    if sigma_mult:
        total = total - sigma_mult * (Poly.var("v") + d)
    return total


def f_q_term(case: FlagCase, point_name: str) -> Fraction:
    """The local correction: (2n/A^n) integral of (P.C) ord_Q(N restricted)."""
    point = case.point(point_name)
    scale = 2 * Fraction(case.dim) / rat(case.ample_power)
    total = Fraction(0)
    for ch, inner in case.inner():
        for sub in inner:
            pdotc = Poly.const(sub.pairings[case.flag])
            order = _point_order(case, point, ch, sub)
            if not order:
                continue
            _check_order_nonnegative(order, sub, case, point_name)
            total += scale * double_integral(pdotc * order, sub.v_lo,
                                             sub.v_hi, sub.u_interval)
    return total


def _check_order_nonnegative(order: Poly, sub: Chamber2D, case: FlagCase,
                             point_name: str):
    """The local order is affine, so the corner lemma of
    ``Chamber2D.corners`` makes this corner check a proof."""
    for u, v in sub.corners():
        if order.eval(u=u, v=v) < 0:
            raise FunctionalError(
                f"{case.label}: negative local order at {point_name} "
                f"(u={rat_str(u)}, v={rat_str(v)})")


def s_flag_point(case: FlagCase, point_name: str) -> Fraction:
    """S(W; Q): the squared-pairing integral plus the local correction."""
    n = Fraction(case.dim)
    scale = n / rat(case.ample_power)
    quad = Fraction(0)
    for ch, inner in case.inner():
        for sub in inner:
            pdotc = Poly.const(sub.pairings[case.flag])
            quad += scale * double_integral(pdotc * pdotc, sub.v_lo,
                                            sub.v_hi, sub.u_interval)
    return quad + f_q_term(case, point_name)


def log_discrepancy_weighted_blowup(w1: int, w2: int,
                                    boundary=()) -> Fraction:
    """Log discrepancy of a (w1, w2)-weighted blowup against a boundary.

    ``boundary`` lists (coefficient, weighted order) pairs.
    """
    if w1 < 1 or w2 < 1:
        raise FunctionalError("blowup weights must be >= 1")
    total = Fraction(w1) + Fraction(w2)
    for coeff, order in boundary:
        total -= rat(coeff) * rat(order)
    if total <= 0:
        warnings.warn(
            f"log discrepancy {rat_str(total)} is not positive",
            NonPositiveDiscrepancyWarning, stacklevel=2)
    return total


@dataclass(frozen=True)
class DeltaBoundRow:
    label: str
    log_discrepancy: Fraction
    expected_order: Fraction

    @property
    def ratio(self) -> Fraction:
        return self.log_discrepancy / self.expected_order


@dataclass(frozen=True)
class DeltaBoundReport:
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
