"""Closed-form evaluators for the general-dimension bounds.

All functions take exact rationals and return exact rationals; powers are
integer exponentiations.  The parameter ``a`` is the anticanonical slope
(-K = a L on the base), ``d`` the top self-intersection of the polarizing
class, ``mu`` the very-ampleness scale, and ``n`` the dimension of the
total space.
"""

from __future__ import annotations

from fractions import Fraction

from . import KstabError, _Record
from .exactcore import rat


class FormulaError(KstabError):
    pass


class HypothesisViolated(FormulaError):
    """The integer hypotheses n > r > n/2 > 1 fail."""


class UnsortedInput(FormulaError):
    pass


class FamilyParams(_Record, frozen=True):
    n: int
    a: Fraction
    d: Fraction
    mu: Fraction = Fraction(1)
    delta_v: Fraction = Fraction(1)

    def __post_init__(self):
        for name in ("a", "d", "mu", "delta_v"):
            object.__setattr__(self, name, rat(getattr(self, name)))
        if self.n < 2:
            raise FormulaError("dimension must be at least 2")
        if self.a < 1:
            raise FormulaError("slope a must be at least 1")
        if self.d <= 0 or self.mu <= 0:
            raise FormulaError("d and mu must be positive")


def _power_gap(p: FamilyParams, k: int) -> Fraction:
    """a^k - (a-1)^k."""
    return p.a ** k - (p.a - 1) ** k


def vol_Da(p: FamilyParams) -> Fraction:
    """Top self-intersection d (a^n - (a-1)^n) of the polarizing class."""
    return p.d * _power_gap(p, p.n)


def s_sminus(p: FamilyParams) -> Fraction:
    """Expected order of the negative section."""
    n, a = p.n, p.a
    num = (n + 1 - a) * a ** n + (a - 1) ** (n + 1)
    return num / ((n + 1) * _power_gap(p, n))


def s_vertical(p: FamilyParams) -> Fraction:
    """Expected order of a very ample vertical divisor."""
    return _power_gap(p, p.n + 1) / (p.mu * (p.n + 1) * _power_gap(p, p.n))


def res_n(p: FamilyParams) -> Fraction:
    """The residual constant of the inductive bound; positive for a > 1."""
    n, a = p.n, p.a
    num = a ** (n + 1) - (a + n) * (a - 1) ** n
    return num / (2 * (n + 1) * _power_gap(p, n))


def lambda_n(p: FamilyParams) -> Fraction:
    """Coefficient for the base log pair; identical to the residual."""
    return res_n(p)


def k_general(p: FamilyParams) -> Fraction:
    """The dimension-n bound: vertical term times d mu^(n-2) plus residual."""
    return p.mu * s_vertical(p) * p.d * p.mu ** (p.n - 2) + res_n(p)


def k3(a, d, mu) -> Fraction:
    """The threefold bound in its expanded form; equals k_general at n=3."""
    a, d, mu = rat(a), rat(d), rat(mu)
    g = d * mu
    num = 8 * g * a ** 3 + 6 * (1 - 2 * g) * a ** 2 + 8 * (g - 1) * a - 2 * g + 3
    den = 8 * (3 * a ** 2 - 3 * a + 1)
    return num / den


def gamma_entries(p: FamilyParams) -> tuple[Fraction, Fraction, Fraction]:
    """The three competing bounds entering the gamma criterion:
    1/k, 1/S(S_-) and a delta_v / (n mu S(vertical))."""
    return (1 / k_general(p), 1 / s_sminus(p),
            p.a * p.delta_v / (p.n * p.mu * s_vertical(p)))


class GammaVerdict(_Record, frozen=True):
    gamma: Fraction
    entries: tuple[Fraction, Fraction, Fraction]
    polystable_certified: bool


def gamma_criterion(p: FamilyParams) -> GammaVerdict:
    """Certify polystability when n >= 3, d mu^(n-2) >= 2 and gamma > 1."""
    if p.n < 3:
        raise FormulaError("the criterion needs n >= 3")
    entries = gamma_entries(p)
    gamma = min(entries)
    certified = p.d * p.mu ** (p.n - 2) >= 2 and gamma > 1
    return GammaVerdict(gamma, entries, certified)


def double_cover_check(n: int, r: int) -> GammaVerdict:
    """Check the double-cover family: base P^(n-1), polarization degree r.

    Requires n > r > n/2 > 1; evaluates the three bounds exactly with
    a = n/r, d = r^(n-1), mu = 1/r and delta of projective space = 1.
    """
    if not (n > r and 2 * r > n and n > 2):
        raise HypothesisViolated(f"(n, r) = ({n}, {r}) fails n > r > n/2 > 1")
    p = FamilyParams(n=n, a=Fraction(n, r), d=Fraction(r) ** (n - 1),
                     mu=Fraction(1, r), delta_v=Fraction(1))
    return gamma_criterion(p)


class FanoSignature(_Record, frozen=True):
    is_fano: bool
    k_unstable: bool


def fano_signature(a, a1, a2) -> FanoSignature:
    """Ampleness and instability signature of an asymmetric bundle base.

    Fano iff a > a1; when Fano and a1 > a2 the second section destabilizes.
    """
    a, a1, a2 = rat(a), rat(a1), rat(a2)
    if a1 < a2:
        raise UnsortedInput("expected a1 >= a2")
    is_fano = a > a1
    return FanoSignature(is_fano, is_fano and a1 > a2)


def euler_char_tangent(minus_k3, b2: int, b3: int) -> Fraction:
    """Euler characteristic of the tangent sheaf of a Fano threefold."""
    return rat(minus_k3) / 2 - 18 + b2 - Fraction(b3, 2)
