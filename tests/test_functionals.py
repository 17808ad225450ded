import random
from fractions import Fraction as Q

import pytest

from kstab.exactcore import Interval, PiecewisePolynomial, Poly
from kstab.formulas import k3
from kstab.functionals import (DeltaBoundReport, FlagCase, FlagChamber,
                               FlagPoint, FunctionalError,
                               MissingMultiplicity, ZeroS,
                               beta_divisor, delta_bound_report, f_q_term,
                               s_flag_point, s_flag_surface,
                               s_flag_surface_report, s_from_volume)
from kstab.runner import flag_case
from kstab.zariski import SurfaceLattice


def AFF(c0, cu=0):
    """The Poly c0 + cu*u."""
    return Poly.from_coeffs([c0, cu])


FLAG_FIXTURES = ("a1-flag-C-ordinary", "a1-flag-C-weighted", "a1-flag-e",
                 "a2-flag-C1", "a2-flag-C3", "a2-flag-pencil",
                 "base-tangential", "base-transversal", "mm39-flag-s")


def with_points(case, points):
    """``case`` with ``points`` in place of its own, every other field kept."""
    return FlagCase(case.label, case.lattice, case.flag, case.dim,
                    case.ample_power, case.flag_log_discrepancy,
                    case.chambers, case.sigma, points, case._inner)


def box_volume(a_top):
    return PiecewisePolynomial([(Interval(0, 1), Poly.const(a_top))])


class TestSFromVolume:
    def test_box(self):
        assert s_from_volume(box_volume(7), 7) == 1

    def test_provenance_sums(self):
        vol = PiecewisePolynomial([
            (Interval(0, 1), Poly.from_coeffs([13, 0, 0, -1])),
            (Interval(1, 2), Poly.from_coeffs([12, 3, -3])),
            (Interval(2, 3), Poly.from_coeffs([0, 27, -18, 3])),
        ])
        assert s_from_volume(vol, 13) == Q(49, 26)

    def test_scaling_invariance(self):
        rng = random.Random(31)
        vol = PiecewisePolynomial([
            (Interval(0, 2), Poly.from_coeffs([4, 0, -1]))])
        base = s_from_volume(vol, 4)
        for _ in range(20):
            t = Q(rng.randint(1, 9), rng.randint(1, 9))
            scaled = PiecewisePolynomial([
                (Interval(0, 2), Poly.from_coeffs([4 * t, 0, -t]))])
            assert s_from_volume(scaled, 4 * t) == base

    def test_zero_ample_volume(self):
        with pytest.raises(FunctionalError, match="must be positive"):
            s_from_volume(box_volume(7), 0)


class TestBeta:
    def test_doubled_degeneration_values(self):
        vol42 = PiecewisePolynomial([
            (Interval(0, 1), Poly.from_coeffs([28, 0, -24, 8])),
            (Interval(1, 2), Poly.from_coeffs([48, -48, 12])),
        ])
        assert beta_divisor(1, vol42, 28) == Q(1, 14)
        vol39 = PiecewisePolynomial([
            (Interval(0, 1), Poly.from_coeffs([26, 0, -36, 16])),
            (Interval(1, Q(3, 2)), Poly.from_coeffs([54, -72, 24])),
        ])
        assert beta_divisor(1, vol39, 26) == Q(7, 26)

    def test_zero(self):
        vol = box_volume(5)
        assert beta_divisor(1, vol, 5) == 0


class TestFlagValues:
    def test_all_bundled_flag_surfaces(self):
        expected = {
            "a1-flag-e": Q(20, 13),
            "a1-flag-C-ordinary": Q(29, 26),
            "a1-flag-C-weighted": Q(49, 26),
            "mm39-flag-s": Q(5, 13),
            "a2-flag-C1": Q(10, 13),
            "a2-flag-C3": Q(10, 39),
            "a2-flag-pencil": Q(9, 26),
            "base-transversal": Q(29, 26),
            "base-tangential": Q(49, 26),
        }
        for name, value in expected.items():
            assert s_flag_surface(flag_case(name)) == value, name

    def test_point_values(self):
        assert s_flag_point(flag_case("a1-flag-e"), "O") == Q(10, 13)
        assert s_flag_point(flag_case("a1-flag-C-ordinary"), "Qgen") == \
            Q(9, 26)
        assert s_flag_point(flag_case("a2-flag-C1"), "Q13") == Q(10, 39)
        assert s_flag_point(flag_case("a2-flag-C3"), "Qgen") == Q(9, 26)
        assert s_flag_point(flag_case("a2-flag-pencil"), "Qgen") == Q(10, 39)

    def test_f_q_values(self):
        assert f_q_term(flag_case("a1-flag-C-ordinary"), "Qf") == Q(11, 26)
        assert f_q_term(flag_case("a1-flag-C-ordinary"), "Qgen") == 0
        assert f_q_term(flag_case("a2-flag-C1"), "Q13") == Q(1, 12)
        assert f_q_term(flag_case("a2-flag-C1"), "QB") == 0

    def test_point_decomposition(self):
        # S(W; Q) is always the quadratic part plus the local correction,
        # at every point of every bundled flag fixture.
        pairs = [(name, p.name) for name in FLAG_FIXTURES
                 for p in flag_case(name).points]
        assert len(pairs) == 22
        for name, pt in pairs:
            case = flag_case(name)
            generic = FlagPoint("generic", {})
            bare = with_points(case, (generic,))
            assert s_flag_point(case, pt) == \
                s_flag_point(bare, "generic") + f_q_term(case, pt), (name, pt)

    def test_negative_local_order_is_refused(self):
        # A negative multiplicity along C5 makes the local order negative
        # wherever C5 is in the inner negative part.
        case = with_points(flag_case("a2-flag-C1"),
                           (FlagPoint("Qneg", {"C5": Q(-1)}),))
        with pytest.raises(FunctionalError, match="negative local order"):
            f_q_term(case, "Qneg")
        with pytest.raises(FunctionalError, match="negative local order"):
            s_flag_point(case, "Qneg")

    def test_missing_point(self):
        with pytest.raises(MissingMultiplicity):
            f_q_term(flag_case("a1-flag-e"), "nowhere")

    def test_refinement_invariance(self):
        # Splitting outer chambers at extra rational walls cannot change
        # the nested functional.
        base = flag_case("a1-flag-C-weighted")
        value = s_flag_surface(base)
        split_chambers = []
        for ch in base.chambers:
            mid = ch.interval.midpoint()
            split_chambers.append(FlagChamber(
                Interval(ch.interval.lo, mid), ch.family, ch.outer_negative))
            split_chambers.append(FlagChamber(
                Interval(mid, ch.interval.hi), ch.family, ch.outer_negative))
        refined = FlagCase(
            label="refined", lattice=base.lattice, flag=base.flag,
            dim=base.dim, ample_power=base.ample_power,
            flag_log_discrepancy=base.flag_log_discrepancy,
            chambers=split_chambers, sigma=base.sigma, points=base.points)
        assert s_flag_surface(refined) == value
        assert s_flag_point(refined, "Qf") == s_flag_point(base, "Qf")

    def test_outer_data_is_affine_consistent(self):
        # Family plus outer negative part must glue to one affine family
        # across all chambers (restriction of an affine pullback).
        for name in ("a2-flag-C1", "a2-flag-C3", "a2-flag-pencil"):
            case = flag_case(name)
            totals = []
            for ch in case.chambers:
                total = {}
                for k in set(ch.family) | set(ch.outer_negative):
                    total[k] = ch.family.get(k, Poly()) + \
                        ch.outer_negative.get(k, Poly())
                totals.append(total)
            for t in totals[1:]:
                assert t == totals[0]


class TestClosedFormAgreement:
    def base_case(self, a, d, mu, tangential):
        g = d * mu
        if tangential:
            lat = SurfaceLattice(("S", "f", "E"),
                                 [[-g, 1, 0], [1, -2, 1], [0, 1, Q(-1, 2)]])
            w = 2
        else:
            lat = SurfaceLattice(("S", "f", "E"),
                                 [[-g, 1, 0], [1, -1, 1], [0, 1, -1]])
            w = 1
        top = (a - 1) / mu
        end = a / mu
        chambers = [
            FlagChamber(Interval(0, top),
                        {"S": Poly.const(1), "f": AFF(a * g, -mu * g),
                         "E": AFF(w * a * g, -w * mu * g)}, {}),
            FlagChamber(Interval(top, end),
                        {"S": AFF(a, -mu), "f": AFF(a * g, -mu * g),
                         "E": AFF(w * a * g, -w * mu * g)},
                        {"S": AFF(1 - a, mu)}),
        ]
        a_top = d * (a ** 3 - (a - 1) ** 3)
        a_log = Q(2) if tangential else Q(3, 2)
        return FlagCase("base", lat, "E", 3, a_top, a_log, chambers,
                        points=(FlagPoint("Qf", {"f": Q(1)}),
                                FlagPoint("Qgen", {})))

    @pytest.mark.parametrize("a,d,mu", [
        (Q(3, 2), Q(4), Q(1, 2)),
        (Q(2), Q(3), Q(1)),
        (Q(5, 3), Q(2), Q(1)),
    ])
    def test_transversal_closed_form(self, a, d, mu):
        g = d * mu
        case = self.base_case(a, d, mu, tangential=False)
        expected = (4 * a ** 3 * g + 6 * (1 - g) * a ** 2
                    + 4 * (g - 2) * a - g + 3) / \
            (4 * (3 * a ** 2 - 3 * a + 1))
        assert s_flag_surface(case) == expected
        quad = (6 * a ** 2 - 8 * a + 3) / (4 * (3 * a ** 2 - 3 * a + 1))
        assert s_flag_point(case, "Qgen") == quad
        fiber = g * (2 * a - 1) * (2 * a ** 2 - 2 * a + 1) / \
            (4 * (3 * a ** 2 - 3 * a + 1))
        assert s_flag_point(case, "Qf") == fiber

    @pytest.mark.parametrize("a,d,mu", [
        (Q(3, 2), Q(4), Q(1, 2)),
        (Q(2), Q(3), Q(1)),
    ])
    def test_tangential_closed_form(self, a, d, mu):
        g = d * mu
        case = self.base_case(a, d, mu, tangential=True)
        expected = (8 * a ** 3 * g + 6 * (1 - 2 * g) * a ** 2
                    + 8 * (g - 1) * a - 2 * g + 3) / \
            (4 * (3 * a ** 2 - 3 * a + 1))
        assert s_flag_surface(case) == expected
        # The tangential flag functional equals twice the threefold bound.
        assert s_flag_surface(case) == 2 * k3(a, d, mu)
        quad = (6 * a ** 2 - 8 * a + 3) / (8 * (3 * a ** 2 - 3 * a + 1))
        assert s_flag_point(case, "Qgen") == quad
        fiber = g * (2 * a - 1) * (2 * a ** 2 - 2 * a + 1) / \
            (4 * (3 * a ** 2 - 3 * a + 1))
        assert s_flag_point(case, "Qf") == fiber


class TestDeltaBounds:
    def test_on_section(self):
        report = delta_bound_report([
            ("negative section", 1, Q(17, 26)),
            ("base flags", Q(3, 2), Q(15, 13)),
        ])
        assert report.value == Q(13, 10)
        assert report.exceeds_one

    def test_off_section(self):
        report = delta_bound_report([
            ("vertical surface", 1, Q(10, 13)),
            ("transversal flag", Q(3, 2), Q(29, 26)),
            ("transversal fiber point", 1, Q(10, 13)),
            ("transversal branch point", Q(1, 2), Q(9, 26)),
            ("tangential flag", 2, Q(49, 26)),
            ("tangential fiber point", 1, Q(10, 13)),
            ("tangential branch point", Q(1, 2), Q(9, 52)),
        ])
        assert report.value == Q(52, 49)
        assert report.exceeds_one

    def test_single_entry(self):
        assert delta_bound_report([(1, 1)]).value == 1

    def test_ratio_of_exactly_one_does_not_exceed_one(self):
        assert not delta_bound_report([(1, 1)]).exceeds_one

    def test_zero_s(self):
        with pytest.raises(ZeroS):
            delta_bound_report([("bad", 1, 0)])


@pytest.mark.parametrize("name", FLAG_FIXTURES)
def test_s_flag_surface_is_its_report_value(name):
    case = flag_case(name)
    report = s_flag_surface_report(case)
    assert s_flag_surface(case) == report.value
    assert sum(c for _, c in report.contributions) == report.value


# Every flag functional of every bundled fixture: S(W; flag) per fixture,
# then S(W; Q) and F_Q per marked point.  a2-flag-C1 Q13 runs the sigma
# correction; the golden suite file names fewer than half of these.
FLAG_VALUES = [
    ("a1-flag-C-ordinary", None, "29/26", None),
    ("a1-flag-C-ordinary", "Qf", "10/13", "11/26"),
    ("a1-flag-C-ordinary", "QB", "9/26", "0"),
    ("a1-flag-C-ordinary", "Qgen", "9/26", "0"),
    ("a1-flag-C-weighted", None, "49/26", None),
    ("a1-flag-C-weighted", "Qf", "10/13", "31/52"),
    ("a1-flag-C-weighted", "QB", "9/52", "0"),
    ("a1-flag-C-weighted", "Qo", "9/52", "0"),
    ("a1-flag-C-weighted", "Qgen", "9/52", "0"),
    ("a1-flag-e", None, "20/13", None),
    ("a1-flag-e", "O", "10/13", "0"),
    ("a2-flag-C1", None, "10/13", None),
    ("a2-flag-C1", "Q13", "10/39", "1/12"),
    ("a2-flag-C1", "QB", "9/52", "0"),
    ("a2-flag-C1", "Q12", "9/52", "0"),
    ("a2-flag-C1", "Qgen", "9/52", "0"),
    ("a2-flag-C3", None, "10/39", None),
    ("a2-flag-C3", "QB", "9/26", "0"),
    ("a2-flag-C3", "Qgen", "9/26", "0"),
    ("a2-flag-pencil", None, "9/26", None),
    ("a2-flag-pencil", "QB", "10/39", "0"),
    ("a2-flag-pencil", "Qgen", "10/39", "0"),
    ("base-tangential", None, "49/26", None),
    ("base-tangential", "Qf", "10/13", "31/52"),
    ("base-tangential", "QB", "9/52", "0"),
    ("base-tangential", "Qgen", "9/52", "0"),
    ("base-transversal", None, "29/26", None),
    ("base-transversal", "Qf", "10/13", "11/26"),
    ("base-transversal", "QB", "9/26", "0"),
    ("base-transversal", "Qgen", "9/26", "0"),
    ("mm39-flag-s", None, "5/13", None),
]


def test_flag_values_cover_every_fixture_and_point():
    rows = {(name, pt) for name, pt, _, _ in FLAG_VALUES}
    assert {name for name, _ in rows} == set(FLAG_FIXTURES)
    assert rows == {(name, p.name if p else None) for name in FLAG_FIXTURES
                    for p in (None, *flag_case(name).points)}
    assert sum(1 if pt is None else 2 for _, pt, _, _ in FLAG_VALUES) == 53


@pytest.mark.parametrize("name,point,s_value,f_value", FLAG_VALUES)
def test_flag_functional_values(name, point, s_value, f_value):
    case = flag_case(name)
    if point is None:
        assert s_flag_surface(case) == Q(s_value)
    else:
        assert s_flag_point(case, point) == Q(s_value)
        assert f_q_term(case, point) == Q(f_value)
