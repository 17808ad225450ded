import itertools
import random
import re
from fractions import Fraction as Q

import pytest

import toric_surfaces
from kstab import _linalg
from kstab.exactcore import DiscontinuousVolume, Interval, NotARational, Poly
from kstab.functionals import FlagCase, FlagChamber, NotAVolume
from kstab.runner import (VolumeFixture, _fixture_root, flag_case, model,
                          volume_fixture)
from kstab.toric import SingularBasis, ToricModel
from kstab.zariski import (Chamber2D, DecompositionMismatch,
                           IrrationalThreshold,
                           MalformedLattice, NefViolation, NoConvergence,
                           NegativeDefiniteSupportWarning, NonAffineFamily,
                           SurfaceLattice, ThreefoldChamber, Unbounded,
                           WallDegeneracy, ZariskiError,
                           _SplitRequest, _family_square, _parts,
                           _support_inverse,
                           _triples, _verify_chambers, _vol_threshold,
                           parametric_surface_zariski,
                           pseudoeffective_threshold, surface_zariski,
                           threefold_chamber_volume)
from lattice_oracles import dot, pairing

U = Poly.from_coeffs([0, 1])
forms, times = toric_surfaces.chamber_forms, toric_surfaces.times


def AFF(c0, cu=0):
    """The Poly c0 + cu*u."""
    return Poly.from_coeffs([c0, cu])


def in_v(c0, c1=0, c2=0):
    """The volume c0 + c1*v + c2*v^2, free of u, as the scan's integers."""
    return (c0, 0, c1, 0, 0, c2)


# P^1 x P^1 x P^1: F_{2a} and F_{2a+1} are the two fibres over axis a.
CUBE = dict(
    rays=[(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
          (0, 0, -1)],
    max_cones=list(itertools.product((0, 1), (2, 3), (4, 5))),
    grading=[[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]])

HIRZEBRUCH = SurfaceLattice(("e", "f"), [[-1, 1], [1, 0]])
BASE_LATTICE = SurfaceLattice(
    ("S", "f", "E"), [[-2, 1, 0], [1, -1, 1], [0, 1, -1]])


class TestSurfaceZariski:
    def test_already_nef(self):
        p, n = surface_zariski(HIRZEBRUCH, {"e": 1, "f": 2})
        assert n == {}
        assert p == {"e": 1, "f": 2}

    def test_one_step(self):
        p, n = surface_zariski(HIRZEBRUCH, {"e": 2, "f": 1})
        assert n == {"e": 1}
        assert p == {"e": 1, "f": 1}
        assert dot(HIRZEBRUCH, p, p) == 1

    def test_base_case_point(self):
        # dmu = 2 vertical-surface lattice at (u, v) = (0, 3/2).
        d = {"S": 1, "f": 3, "E": Q(3, 2)}
        p, n = surface_zariski(BASE_LATTICE, d)
        assert n == {"f": Q(1, 2)}

    def test_orthogonality_exact(self):
        rng = random.Random(23)
        for _ in range(50):
            d = {"S": Q(rng.randint(0, 4)), "f": Q(rng.randint(1, 6)),
                 "E": Q(rng.randint(0, 5))}
            p, n = surface_zariski(BASE_LATTICE, d)
            for c in n:
                assert pairing(BASE_LATTICE, p, c) == 0
            for c in BASE_LATTICE.curves:
                assert pairing(BASE_LATTICE, p, c) >= 0

    def test_permutation_uniqueness(self):
        perm = SurfaceLattice(("E", "S", "f"),
                              [[-1, 0, 1], [0, -2, 1], [1, 1, -1]])
        rng = random.Random(29)
        for _ in range(50):
            d = {"S": Q(rng.randint(0, 4)), "f": Q(rng.randint(1, 6)),
                 "E": Q(rng.randint(0, 5))}
            p1, n1 = surface_zariski(BASE_LATTICE, d)
            p2, n2 = surface_zariski(perm, d)
            assert p1 == p2 and n1 == n2


class TestParametricChambers:
    def test_unbounded(self):
        fam = {"e": Poly.const(1), "f": Poly.const(2)}
        with pytest.raises(Unbounded):
            parametric_surface_zariski(HIRZEBRUCH, fam, {}, Interval(0, 1))

    def test_base_case_transversal_walls(self):
        # Slope 3/2, degree 4, scale 1/2: the case list has walls at
        # v = 1, v = 2 - u and the threshold 3 - u over the first
        # vertical chamber, then v = (3 - u)/2 and 3 - u over the second.
        fam = {"S": Poly.const(1), "f": AFF(3, -1), "E": AFF(3, -1)}
        chambers = parametric_surface_zariski(BASE_LATTICE, fam, {"E": -1},
                                              Interval(0, 1))
        walls = [(c.v_lo, c.v_hi) for c in chambers]
        assert [w[0] for w in walls] == [Poly(), Poly.const(1), AFF(2, -1)]
        assert [w[1] for w in walls] == [Poly.const(1), AFF(2, -1), AFF(3, -1)]
        assert [c.support for c in chambers] == [(), ("f",), ("S", "f")]

        fam2 = {"S": AFF(Q(3, 2), Q(-1, 2)), "f": AFF(3, -1),
                "E": AFF(3, -1)}
        chambers2 = parametric_surface_zariski(BASE_LATTICE, fam2, {"E": -1},
                                               Interval(1, 3))
        assert [(c.v_lo, c.v_hi) for c in chambers2] == \
            [(Poly(), AFF(Q(3, 2), Q(-1, 2))),
             (AFF(Q(3, 2), Q(-1, 2)), AFF(3, -1))]
        assert [c.support for c in chambers2] == [(), ("S", "f")]

    def test_restricted_hirzebruch_chambers(self):
        # The restricted family on the Hirzebruch surface has negative
        # parts 0, (u-1)e, (2u-3)e over the three outer chambers; the
        # inner scan reproduces the thresholds u, 1 and 3 - u.
        case = flag_case("a1-flag-e")
        inner = case.inner()
        tops = [sub.v_hi for _, subs in inner for sub in subs]
        assert tops == [U, Poly.const(1), AFF(3, -1)]
        for _, subs in inner:
            for sub in subs:
                assert forms(sub).negative == {}

    def test_vertex_positivity(self):
        for name in ("a1-flag-C-ordinary", "a1-flag-C-weighted",
                     "a2-flag-C1", "a2-flag-C3", "a2-flag-pencil"):
            case = flag_case(name)
            for _, subs in case.inner():
                for sub in subs:
                    pos, neg = forms(sub).positive, forms(sub).negative
                    for u, v in toric_surfaces.corners(sub):
                        p = {k: toric_surfaces.value(t, u, v)
                             for k, t in pos.items()}
                        for c in case.lattice.curves:
                            assert pairing(case.lattice, p, c) >= 0
                        for t in neg.values():
                            assert toric_surfaces.value(t, u, v) >= 0

    def test_parametric_orthogonality(self):
        case = flag_case("a2-flag-C1")
        for _, subs in case.inner():
            for sub in subs:
                for c in sub.support:
                    assert _pairing(case.lattice, forms(sub).positive, c) \
                        == (0, 0, 0)


# H . H = 1 and A, B disjoint (-1)-curves: P . A and P . B are minus the
# A and B coefficients of P, so A enters the support where its family
# coefficient turns positive.
DISJOINT = SurfaceLattice(("H", "A", "B"),
                          [[1, 0, 0], [0, -1, 0], [0, 0, -1]])


def _pairing(lat, d: dict, name: str) -> tuple:
    """The affine form d . name of a divisor with affine form coefficients."""
    j = lat.index(name)
    return tuple(sum((t[e] * lat.gram[lat.index(k)][j] for k, t in d.items()),
                     Q(0)) for e in range(3))


def _rows(chambers):
    return [(c.u_interval, c.v_lo, c.v_hi, c.support, forms(c).negative)
            for c in chambers]


class TestScanBranches:
    """The scan's events: a support curve leaving, two curves entering on
    one wall, and walls that cross inside the u-interval."""

    def test_curve_leaves_the_support(self):
        fam = {"e": AFF(2, Q(1, 4)), "f": AFF(Q(1, 2))}
        chambers = parametric_surface_zariski(
            HIRZEBRUCH, fam, {"e": -1, "f": 1}, Interval(0, 1))
        leave = AFF(Q(3, 4), Q(1, 8))
        assert _rows(chambers) == [
            (Interval(0, 1), Poly(), leave, ("e",),
             {"e": (Q(3, 2), Q(1, 4), -2)}),
            (Interval(0, 1), leave, AFF(2, Q(1, 4)), (), {})]

    def test_two_curves_enter_on_one_wall(self):
        # H = 3 - v, A = B = v - u.
        fam = {"H": AFF(3), "A": -U, "B": -U}
        chambers = parametric_surface_zariski(
            DISJOINT, fam, {"H": -1, "A": 1, "B": 1}, Interval(0, 1))
        assert _rows(chambers) == [
            (Interval(0, 1), Poly(), U, (), {}),
            (Interval(0, 1), U, Poly.const(3), ("A", "B"),
             {"A": (0, -1, 1), "B": (0, -1, 1)})]

    @pytest.mark.parametrize("k, lo, hi, at", [
        (1, 0, 1, Q(1, 2)), (Q(3, 2), 0, Q(1, 2), Q(1, 3))],
        ids=["at-the-sample", "beside-the-sample"])
    def test_crossing_walls_split_the_scan(self, k, lo, hi, at):
        # A enters on v = k u and B on v = 1 - k u; they cross at u = at.
        # At the sample, in the first case; away from it in the second,
        # where the wall order is checked on every chamber before any
        # sign, so the misordered chamber asks for the split first.
        # H = 3 - v, A = v - k u and B = v - (1 - k u).
        a, b = (0, -k, 1), (-1, k, 1)
        fam = {"H": AFF(3), "A": AFF(0, -k), "B": AFF(-1, k)}
        chambers = parametric_surface_zariski(
            DISJOINT, fam, {"H": -1, "A": 1, "B": 1}, Interval(lo, hi))
        left, right = Interval(lo, at), Interval(at, hi)
        both = {"A": a, "B": b}
        assert _rows(chambers) == [
            (left, Poly(), k * U, (), {}),
            (left, k * U, AFF(1, -k), ("A",), {"A": a}),
            (left, AFF(1, -k), Poly.const(3), ("A", "B"), both),
            (right, Poly(), AFF(1, -k), (), {}),
            (right, AFF(1, -k), k * U, ("B",), {"B": b}),
            (right, k * U, Poly.const(3), ("A", "B"), both)]



# Two toric families whose one chamber at the parent had a constraint
# negative at a corner, so the scan refused it with NoConvergence.  In (a)
# P . D1 = (1 + v - 2u) / 2 vanishes at the sample (1/2, 0) but has a
# v-term, and is -1/2 at the corner (1, 0); in (b) D2's coefficient in N,
# (-1 + 3u) / 2, has no v-term and vanishes at u = 1/3, away from the
# sample u = 3/8.  Each zero line meets the wall v_lo inside the interval,
# and the scan now splits there.  In both, v is taken off D1.
SPLIT_GAPS = {
    "a-zero-line-through-the-sample": (
        [(1, 0), (1, 1), (0, 1), (-1, 1), (0, -1)],
        [AFF(2, -1), 4, 3, 1, 5], Interval(0, 1), Q(1, 2)),
    "b-vertical-zero-off-the-sample": (
        [(1, 0), (0, 1), (-1, 3), (-1, 2), (0, -1)],
        [1, 4, 6, AFF(4, -1), 2], Interval(Q(1, 4), Q(1, 2)),
        Q(1, 3)),
}


@pytest.mark.parametrize("rays, a, interval, at", SPLIT_GAPS.values(),
                         ids=SPLIT_GAPS)
def test_constraint_negative_at_a_corner_splits_the_scan(rays, a, interval,
                                                         at):
    lat = toric_surfaces.lattice(rays)
    a = [Poly.const(x) for x in a]
    chambers = parametric_surface_zariski(
        lat, dict(zip(toric_surfaces.curve_names(rays), a)), {"D1": -1},
        interval)
    assert len(chambers) == 5
    assert {ch.u_interval for ch in chambers} == {
        Interval(interval.lo, at), Interval(at, interval.hi)}
    for ch in chambers:
        volume, negative = forms(ch).volume, forms(ch).negative
        for u, v in toric_surfaces.interior_points(ch):
            point = [x.eval(u) for x in a]
            point[1] -= v
            assert toric_surfaces.value(volume, u, v) == \
                toric_surfaces.volume(rays, point)
            n = {s: toric_surfaces.value(t, u, v)
                 for s, t in negative.items()}
            assert {s: x for s, x in n.items() if x} == \
                toric_surfaces.negative_part(rays, point)


class TestTypedErrorsOfTheIntegerTables:
    """The scan reads a family into integer rows indexed by curve; a bad
    family must still raise the typed error it raised before."""

    @pytest.mark.parametrize("extra, direction", [
        ({"C9": Poly.const(1)}, {"E": -1}), ({}, {"E": -1, "C9": 1})],
        ids=["nonzero-at-the-sample", "zero-at-v-0"])
    def test_unknown_curve_is_named(self, extra, direction):
        fam = {"S": Poly.const(1), "f": AFF(3, -1), "E": AFF(3, -1), **extra}
        with pytest.raises(ZariskiError,
                           match="lattice has no curve named 'C9'"):
            parametric_surface_zariski(BASE_LATTICE, fam, direction,
                                       Interval(0, 1))

    @pytest.mark.parametrize("curve", BASE_LATTICE.curves)
    def test_uv_term_is_not_affine(self, curve):
        # A u*v term in a curve's coefficient is a direction in u.
        fam = {"S": Poly.const(1), "f": AFF(3, -1), "E": AFF(3, -1)}
        with pytest.raises(NotARational, match=r"cannot interpret 1\*u as"):
            parametric_surface_zariski(BASE_LATTICE, fam, {"E": -1, curve: U},
                                       Interval(0, 1))

    def test_unknown_curve_in_a_dot_product(self):
        # Only the second divisor's curves were looked up: a KeyError.
        with pytest.raises(ZariskiError,
                           match="lattice has no curve named 'C9'"):
            dot(BASE_LATTICE, {"S": 1, "C9": 2}, {"S": 1})

    @pytest.mark.parametrize("d1", [{}, {"S": 1}], ids=["empty", "S"])
    def test_unknown_curve_on_the_right_of_a_dot_product(self, d1):
        with pytest.raises(ZariskiError,
                           match="lattice has no curve named 'C9'"):
            dot(BASE_LATTICE, d1, {"S": 1, "C9": 2})

    def test_unknown_curve_in_a_pointwise_divisor(self):
        with pytest.raises(ZariskiError,
                           match="lattice has no curve named 'C9'"):
            surface_zariski(BASE_LATTICE, {"S": 1, "C9": 2})

class TestThreefoldVolume:
    def test_nodal_pieces_match_print(self):
        vol = volume_fixture("a1-volume").volume()
        assert [p.poly for p in vol] == [
            Poly.from_coeffs([13, 0, 0, -1]),
            Poly.from_coeffs([12, 3, -3]),
            Poly.from_coeffs([0, 27, -18, 3]),
        ]

    def test_cuspidal_recomputation(self):
        vol = volume_fixture("a2-volume").volume()
        assert [p.poly for p in vol] == [
            Poly.from_coeffs([13, 0, 0, Q(-1, 18)]),
            Poly.from_coeffs([Q(23, 2), Q(3, 2), Q(-1, 2)]),
            Poly.from_coeffs([-51, 39, -8, Q(1, 2)]),
            Poly.from_coeffs([81, -27, 3, Q(-1, 9)]),
        ]

    def test_flop_continuity_all_fixtures(self):
        for name in ("a1-volume", "a2-volume", "a2-volume-resolution"):
            vol = volume_fixture(name).volume()
            for a, b in zip(vol.pieces, vol.pieces[1:]):
                x = a.interval.hi
                assert a.poly.eval(x) == b.poly.eval(x)

    def test_monotone_nonincreasing(self):
        for name in ("a1-volume", "a2-volume"):
            vol = volume_fixture(name).volume()
            samples = []
            for p in vol.pieces:
                iv = p.interval
                for x in (iv.lo, iv.midpoint(), iv.hi):
                    samples.append(p.poly.eval(x))
            assert all(a >= b for a, b in zip(samples, samples[1:]))

    def test_nef_violation_detected(self):
        fx = volume_fixture("a1-volume")
        bad = [ThreefoldChamber(Interval(0, 2), "Y0-A1",
                                fx.family, {})]
        with pytest.raises(NefViolation):
            threefold_chamber_volume(fx.models, bad, fx.family)

    def test_decomposition_mismatch_detected(self):
        fx = volume_fixture("a1-volume")
        bad = [ThreefoldChamber(Interval(0, 1), "Y0-A1",
                                {"F0": AFF(3, -1), "F1": Poly.const(3),
                                 "F5": Poly.const(2)}, {})]
        with pytest.raises(DecompositionMismatch):
            threefold_chamber_volume(fx.models, bad, fx.family)

    def test_discontinuity_detected(self):
        fx = volume_fixture("a1-volume")
        tweaked = [
            fx.chambers[0],
            fx.chambers[1],
            ThreefoldChamber(Interval(2, 3), "Y1-A1",
                             {"F0": AFF(3, -1), "F1": Poly.const(3),
                              "F5": Poly.const(1)}, {}),
        ]
        with pytest.raises(NefViolation, match=re.escape(
                "chamber [2, 3] on Y1-A1: P(3) negative on ['C15']")):
            threefold_chamber_volume(fx.models, tweaked, fx.family)

    def test_unknown_model(self):
        fx = volume_fixture("a1-volume")
        bad = [ThreefoldChamber(Interval(0, 1), "nope", fx.family, {})]
        with pytest.raises(DecompositionMismatch,
                           match="unknown model 'nope'"):
            threefold_chamber_volume(fx.models, bad, fx.family)

    def test_negative_part_negative_on_the_interval(self):
        # The last chamber stretched to [1, 3]: P + N is unchanged, but
        # N = u - 2 on F5 is -1 at u = 1.
        fx = volume_fixture("a1-volume")
        last = fx.chambers[-1]
        bad = [ThreefoldChamber(Interval(1, 3), "Y1-A1", last.positive,
                                last.negative)]
        with pytest.raises(DecompositionMismatch,
                           match="negative part coefficient"):
            threefold_chamber_volume(fx.models, bad, fx.family)


class TestVolumeIsAProof:
    """Decompositions the verifier once accepted with a wrong volume."""

    def test_negative_part_must_be_orthogonal_to_p_squared(self):
        # (1 - u)/10 F3 moved from P to N on [0, 1]: P stays nef and N
        # effective, but P^2 . F3 = 19/5 + u/5, so N is not P's negative
        # part and P^3 is not the volume.
        fx = volume_fixture("a1-volume")
        ch = fx.chambers[0]
        eps = Poly.from_coeffs([Q(1, 10), Q(-1, 10)])
        pos = {**ch.positive, "F3": -eps}
        m = fx.models[ch.model]
        assert m.intersection_form(pos, pos, {"F3": 1}) == \
            Poly.from_coeffs([Q(19, 5), Q(1, 5)])
        moved = ThreefoldChamber(ch.interval, ch.model, pos, {"F3": eps})
        with pytest.raises(DecompositionMismatch, match="support of N"):
            threefold_chamber_volume(fx.models, [moved, *fx.chambers[1:]],
                                     fx.family)

    @staticmethod
    def _edited(name, drop=None, ample_cube=None):
        fx = volume_fixture(name)
        return VolumeFixture(
            fx.label, fx.models, fx.family,
            [ch for ch in fx.chambers if ch.interval != drop],
            fx.ample_cube if ample_cube is None else ample_cube,
            fx.flag_log_discrepancy)

    def test_chambers_must_leave_no_gap(self):
        # Without [3, 5] the parent verified S = 269/78, not 127/26.
        with pytest.raises(DiscontinuousVolume, match="gap"):
            self._edited("a2-volume", drop=Interval(3, 5)).volume()

    def test_volume_must_start_at_zero(self):
        # Without [0, 3] the parent verified S = 205/104.
        with pytest.raises(NotAVolume, match="at u = 0"):
            self._edited("a2-volume", drop=Interval(0, 3)).volume()

    def test_volume_must_start_at_the_ample_cube(self):
        with pytest.raises(NotAVolume, match="ample cube"):
            self._edited("a1-volume", ample_cube=Q(12)).volume()

    def test_volume_must_vanish_at_the_end(self):
        # Without [6, 9] the volume stops at vol(6) = 3 > 0.
        with pytest.raises(NotAVolume, match="0 at the end"):
            self._edited("a2-volume", drop=Interval(6, 9)).volume()

    def test_bundled_fixtures_tile_from_the_ample_cube_to_zero(self):
        for name, end in (("a1-volume", 3), ("a2-volume", 9),
                          ("a2-volume-resolution", 9)):
            fx = volume_fixture(name)
            vol = fx.volume()
            assert (vol.pieces[0].interval.lo, vol.pieces[-1].interval.hi) \
                == (0, end)
            first, last = vol.pieces[0].poly, vol.pieces[-1].poly
            assert (first.eval(0), last.eval(end)) == (fx.ample_cube, 0)

    def test_no_chambers_is_an_error(self):
        fx = volume_fixture("a1-volume")
        with pytest.raises(DecompositionMismatch, match="no chambers"):
            threefold_chamber_volume(fx.models, [], fx.family)


class TestThreshold:
    def test_nodal(self):
        fx = volume_fixture("a1-volume")
        assert pseudoeffective_threshold(model("Y0-A1"), fx.family) == 3

    def test_cuspidal(self):
        fx = volume_fixture("a2-volume")
        assert pseudoeffective_threshold(model("Y2-A2"), fx.family) == 9

    def test_unbounded(self):
        with pytest.raises(Unbounded):
            pseudoeffective_threshold(model("Y0-A1"),
                                      {"F0": Poly.const(1)})

    def test_family_outside_the_generator_span(self):
        m = ToricModel("P1^3", **CUBE, effective_generators=("F0", "F2"))
        with pytest.raises(SingularBasis, match="outside the generator span"):
            pseudoeffective_threshold(m, {"F4": AFF(1, -1)})


def test_volume_jump_between_chambers_is_an_error():
    # Each chamber passes every check on its own model, but the models are
    # not one threefold: with no Mori generators both are nef, and F0 + F2
    # + F4 has volume 6 on P1^3 and 3 * 1 * 2^2 = 12 on P1 x P2.
    one = {"F0": Poly.const(1), "F2": Poly.const(1), "F4": Poly.const(1)}
    models = {
        "P1^3": ToricModel("P1^3", **CUBE),
        "P1xP2": ToricModel(
            "P1xP2",
            rays=[(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1)],
            max_cones=[(i, *c) for i in (0, 1)
                       for c in itertools.combinations((2, 3, 4), 2)],
            grading=[[1, 1, 0, 0, 0], [0, 0, 1, 1, 1]]),
    }
    chambers = [ThreefoldChamber(Interval(0, 1), "P1^3", one, {}),
                ThreefoldChamber(Interval(1, 2), "P1xP2", one, {})]
    with pytest.raises(DiscontinuousVolume, match="at u = 1: 6 vs 12"):
        threefold_chamber_volume(models, chambers, one)


def test_negative_definiteness_detector():
    from kstab.zariski import _is_negative_definite
    lat = SurfaceLattice(("a", "b"), [[-1, 2], [2, -1]])
    assert _is_negative_definite(lat, ["a"])
    assert not _is_negative_definite(lat, ["a", "b"])
    good = SurfaceLattice(("a", "b"), [[-2, 1], [1, -2]])
    assert _is_negative_definite(good, ["a", "b"])


def test_zero_leading_minor_is_not_negative_definite():
    from kstab.zariski import _is_negative_definite
    lat = SurfaceLattice(("a", "b"), [[0, 1], [1, -1]])
    assert not _is_negative_definite(lat, ["a"])
    assert not _is_negative_definite(lat, ["a", "b"])
    # The minors are read on the integer block over the Gram denominator 6;
    # their signs are those of the Fraction block.
    thirds = SurfaceLattice(("a", "b"), [[Q(-1, 2), Q(1, 3)],
                                         [Q(1, 3), Q(-1, 2)]])
    assert _is_negative_definite(thirds, ["a", "b"])
    halves = SurfaceLattice(("a", "b"), [[Q(-1, 2), 1], [1, Q(-1, 3)]])
    assert not _is_negative_definite(halves, ["a", "b"])


def test_zero_coefficient_of_the_negative_part_is_accepted():
    # C1 . C2 < 0 makes both curves negative on C1 in the first round; the
    # joint solve gives N = C1 + 0 * C2, and a zero coefficient is no
    # negative one.
    lat = SurfaceLattice(("C1", "C2"), [[-1, -1], [-1, -2]])
    assert surface_zariski(lat, {"C1": 1}) == ({}, {"C1": 1})


def test_support_that_is_not_negative_definite_warns():
    lat = SurfaceLattice(("a", "b"), [[1, -2], [-2, 3]])
    with pytest.warns(NegativeDefiniteSupportWarning,
                      match=r"\['a', 'b'\] is not negative definite"):
        p, n = surface_zariski(lat, {"a": 3, "b": 3})
    assert p == {}
    assert n == {"a": 3, "b": 3}


def test_walls_in_the_wrong_order_everywhere_are_a_degeneracy():
    ch = Chamber2D(Interval(0, 1), Poly.const(1), Poly())
    with pytest.raises(WallDegeneracy,
                       match=r"wrong order on the whole of \[0, 1\]"):
        _verify_chambers([ch])


def test_volume_vanishes_at_threshold():
    for name, threshold in (("a1-volume", 3), ("a2-volume", 9)):
        vol = volume_fixture(name).volume()
        last = vol.pieces[-1]
        assert last.interval.hi == threshold
        assert last.poly.eval(threshold) == 0
        for p in vol.pieces:
            for x in (p.interval.lo, p.interval.midpoint(), p.interval.hi):
                assert p.poly.eval(x) >= 0


def test_concave_volume_has_irrational_threshold():
    # 2 - v^2 vanishes at v = sqrt(2); without a limit the scan must not
    # take the concave volume for an unbounded one.
    with pytest.raises(IrrationalThreshold):
        _vol_threshold(in_v(2, 0, -1), Q(0), Q(0), None)


@pytest.mark.parametrize("vol, limit, vanishes", [
    (in_v(2, 0, -1), Q(1), False),  # 2 - v^2
    (in_v(2, 0, -1), Q(2), True),
    (in_v(2, -4, 1), Q(1, 2), False),  # v^2 - 4v + 2
    (in_v(2, -4, 1), Q(1), True),
    (in_v(2, -4, 1), None, True),
    (in_v(2, 4, 1), None, False),  # v^2 + 4v + 2
    (in_v(2, -2, 1), Q(5), False),  # v^2 - 2v + 2
], ids=["concave-before-root", "concave-past-root", "convex-before-root",
        "convex-past-root", "convex-dips-unbounded", "convex-roots-behind",
        "no-real-root"])
def test_irrational_threshold_against_the_limit(vol, limit, vanishes):
    # No root here is rational: only whether the volume falls to 0 by the
    # limit decides between None and IrrationalThreshold.
    if vanishes:
        with pytest.raises(IrrationalThreshold):
            _vol_threshold(vol, Q(0), Q(0), limit)
    else:
        assert _vol_threshold(vol, Q(0), Q(0), limit) is None


@pytest.mark.parametrize("vol, v_cur, want", [
    (in_v(0), Q(0), (0, 0)),  # vanishes everywhere
    (in_v(5), Q(0), None),  # never vanishes
    (in_v(1, -2, 1), Q(1), (1, 1)),  # (1 - v)^2: falls to 0 at v_cur
], ids=["zero", "positive-constant", "double-root-at-v-cur"])
def test_threshold_of_a_volume_free_of_u(vol, v_cur, want):
    assert _vol_threshold(vol, Q(1, 2), v_cur, None) == want


@pytest.mark.parametrize("vol, v_cur, match", [
    (in_v(-1, 0, 1), Q(1), "volume vanishes then grows"),  # v^2 - 1
    (in_v(-1, 1), Q(0), "negative volume inside a chamber"),  # v - 1
], ids=["grows-past-its-root", "negative-at-v-cur"])
def test_threshold_refuses_a_volume_that_is_no_volume(vol, v_cur, match):
    with pytest.raises(NoConvergence, match=match):
        _vol_threshold(vol, Q(1, 2), v_cur, None)


def test_chamber_recursion_has_a_depth_limit():
    with pytest.raises(NoConvergence, match="chamber recursion too deep"):
        parametric_surface_zariski(HIRZEBRUCH, {"e": AFF(1), "f": AFF(2)},
                                   {"e": -1}, Interval(0, 1), _depth=13)


# Volume with the root lines v = u and v = 1 - u, crossing at u = 1/2.
CROSSING = times((0, -1, 1), (-1, 1, 1))


class TestThresholdWall:
    """The threshold wall is the line through the root at the sample,
    accepted only when the volume vanishes on it identically."""

    @pytest.mark.parametrize("vol, v_cur, root, wall", [
        # (1 + u) (2 - u - v)
        (times((1, 1, 0), (2, -1, -1)), Q(0), Q(3, 2), AFF(2, -1)),
        # (v - 1 - u) (v - 3 + u), then its negative
        (times((-1, -1, 1), (-3, 1, 1)), Q(0), Q(3, 2), AFF(1, 1)),
        (times((1, 1, -1), (-3, 1, 1)), Q(2), Q(5, 2), AFF(3, -1)),
        # 2 (v - 1 - u)^2
        (times((-2, -2, 2), (-1, -1, 1)), Q(0), Q(3, 2), AFF(1, 1)),
    ], ids=["linear-u-dependent-slope", "two-roots-lower",
            "two-roots-above-v-cur", "double-root"])
    def test_affine_wall(self, vol, v_cur, root, wall):
        assert _vol_threshold(vol, Q(1, 2), v_cur, None) == (root, wall)

    def test_rational_root_that_is_not_affine(self):
        # v^2 - u vanishes at v = -1/2 when u = 1/4, on the curve
        # v = -sqrt(u), which is no line.
        with pytest.raises(IrrationalThreshold):
            _vol_threshold((0, -1, 0, 0, 0, 1), Q(1, 4), Q(-1), None)

    def test_root_lines_crossing_at_the_sample(self):
        # The roots u and 1 - u meet at u = 1/2; the threshold min(u, 1-u)
        # is affine on each side of the sample, so the scan splits there.
        with pytest.raises(_SplitRequest) as exc:
            _vol_threshold(CROSSING, Q(1, 2), Q(0), None)
        assert exc.value.at == Q(1, 2)

    @pytest.mark.parametrize("ustar, root, wall", [
        (Q(1, 4), Q(1, 4), U), (Q(3, 4), Q(1, 4), AFF(1, -1))])
    def test_crossing_root_lines_beside_the_sample(self, ustar, root, wall):
        assert _vol_threshold(CROSSING, ustar, Q(0), None) == (root, wall)

    def test_irrational_pair_splits_then_fails(self):
        # (v - 1)^2 - 2(u - 1/2)^2 has a double root at the sample u = 1/2
        # but root lines 1 +- sqrt(2)(u - 1/2): the split is asked for,
        # and both halves' samples (depth 1) meet irrational roots.
        vol = (1, 4, -4, -4, 0, 2)  # twice that
        with pytest.raises(_SplitRequest):
            _vol_threshold(vol, Q(1, 2), Q(0), None)
        for ustar in (Q(1, 4), Q(3, 4)):
            with pytest.raises(IrrationalThreshold):
                _vol_threshold(vol, ustar, Q(0), None)

    def test_scan_splits_where_root_lines_cross(self):
        # On the hyperbolic plane P^2 = 2ab = (u - v)(1 - u - v): the scan
        # samples u = 1/2, splits there, and finds the threshold walls
        # v = u and v = 1 - u on the two halves.
        lat = SurfaceLattice(("a", "b"), [[0, 1], [1, 0]])
        fam = {"a": U, "b": AFF(Q(1, 2), Q(-1, 2))}
        chambers = parametric_surface_zariski(
            lat, fam, {"a": -1, "b": Q(-1, 2)}, Interval(0, 1))
        assert [(c.u_interval, c.v_lo, c.v_hi) for c in chambers] == [
            (Interval(0, Q(1, 2)), Poly(), U),
            (Interval(Q(1, 2), 1), Poly(), AFF(1, -1))]
        assert all(forms(c).volume == CROSSING for c in chambers)


@pytest.mark.parametrize("entry, direction, error, match", [
    (U * U, -1, NonAffineFamily, "of E is not affine"),
    # A u*v term is a direction in u: E = 3 - u - v + u v.
    (Poly(), U - 1, NotARational, "cannot interpret"),
], ids=["u-squared", "uv"])
def test_parametric_family_must_be_affine(entry, direction, error, match):
    fam = {"S": Poly.const(1), "f": AFF(3, -1), "E": AFF(3, -1) + entry}
    with pytest.raises(error, match=match):
        parametric_surface_zariski(BASE_LATTICE, fam, {"E": direction},
                                   Interval(0, 1))


def test_threefold_positive_part_must_be_affine():
    fx = volume_fixture("a1-volume")
    ch = fx.chambers[0]
    bad = [ThreefoldChamber(ch.interval, ch.model,
                            {**ch.positive, "F0": AFF(3, -1) + U * U},
                            ch.negative)]
    with pytest.raises(NonAffineFamily, match="positive part"):
        threefold_chamber_volume(fx.models, bad, fx.family)


def test_flag_outer_negative_must_be_affine():
    case = flag_case("a1-flag-e")
    ch = case.chambers[0]
    bad = FlagCase(case.label, case.lattice, case.flag, case.dim,
                   case.ample_power, case.flag_log_discrepancy,
                   [FlagChamber(ch.interval, ch.family, {"f": U * U})],
                   case.sigma, case.points, None)
    with pytest.raises(NonAffineFamily, match="outer negative part"):
        bad.inner()


def test_dot_and_pairing_match_naive_sums():
    # The dense sums multiply by zero Gram entries too; for Fraction and
    # Poly coefficients alike they must equal the double sum.
    lat = SurfaceLattice(("a", "b", "c", "d"),
                         [[-2, 0, 1, 0], [0, 0, 0, 1], [1, 0, -1, 0],
                          [0, 1, 0, 0]])
    rng = random.Random(105)

    def coeff():
        if rng.random() < 0.5:
            return Q(rng.randint(-4, 4), rng.randint(1, 3))
        return Poly.from_coeffs([Q(rng.randint(-4, 4), rng.randint(1, 3)),
                                 rng.randint(-2, 2), rng.randint(-2, 2)])

    for _ in range(100):
        d1 = {k: coeff() for k in lat.curves if rng.random() < 0.7}
        d2 = {k: coeff() for k in lat.curves if rng.random() < 0.7}
        naive = sum((c1 * c2 * lat.gram[lat.index(k1)][lat.index(k2)]
                     for k1, c1 in d1.items() for k2, c2 in d2.items()),
                    Poly())
        assert dot(lat, d1, d2) == naive
        for name in lat.curves:
            j = lat.index(name)
            assert pairing(lat, d1, name) == sum(
                (c * lat.gram[lat.index(k)][j] for k, c in d1.items()),
                Poly())


FLAG_FIXTURES = sorted(p.stem for p in (_fixture_root() / "flags").iterdir()
                       if p.name.endswith(".json"))


@pytest.mark.parametrize("name", FLAG_FIXTURES)
def test_chambers_carry_pairings_and_volume(name):
    case = flag_case(name)
    lat = case.lattice
    subs = [sub for _, inner in case.inner() for sub in inner]
    assert subs
    for sub in subs:
        pos = forms(sub).positive
        assert forms(sub).pairings == {c: _pairing(lat, pos, c)
                                       for c in lat.curves}
        volume = [Q(0)] * 6
        for (k1, t1), (k2, t2) in itertools.product(pos.items(), repeat=2):
            g = lat.gram[lat.index(k1)][lat.index(k2)]
            volume = [x + g * y
                      for x, y in zip(volume, times(t1, t2))]
        assert forms(sub).volume == tuple(volume)


@pytest.mark.parametrize("name", FLAG_FIXTURES)
def test_family_square_is_the_dense_dot(name):
    # The flag order term's D(u)^2 from the integer kernel is the dense
    # oracle's on every outer chamber's family, and on random affine
    # families over the same lattice.
    lat = flag_case(name).lattice
    families = [ch.family for ch in flag_case(name).chambers]
    rng = random.Random(name)
    families += [{c: AFF(Q(rng.randint(-5, 5), rng.randint(1, 4)),
                         Q(rng.randint(-5, 5), rng.randint(1, 4)))
                  for c in lat.curves if rng.random() < 0.7}
                 for _ in range(10)]
    for family in families:
        assert _family_square(lat, family) == dot(lat, family, family)


def _with_pairing(ch, curve, t):
    """``ch`` with the pairing triple of ``curve`` replaced by ``t``."""
    pv = list(ch.pv)
    pv[ch.curves.index(curve)] = t
    return Chamber2D(ch.u_interval, ch.v_lo, ch.v_hi, ch.volume, ch.curves,
                     ch.scale, ch.gram_den, ch.p, ch.n, pv)


def _emitted_chamber():
    """An emitted chamber with a nonempty support and a curve outside it."""
    for name in FLAG_FIXTURES:
        for _, inner in flag_case(name).inner():
            for sub in inner:
                if sub.support and len(sub.support) < len(sub.curves):
                    return sub
    raise AssertionError("no flag fixture has such a chamber")


def test_verification_reads_the_chambers_pairings():
    ch = _emitted_chamber()
    _verify_chambers([ch])
    s = ch.support[0]
    with pytest.raises(NoConvergence, match=f"orthogonality failed for {s}"):
        _verify_chambers([_with_pairing(ch, s, (1, 0, 0))])


def test_constraint_negative_at_a_corner_asks_for_a_split():
    # P . c = u - m over any scale: negative at the corners at u0, zero at
    # the midpoint m, positive at u1, so the scan must split at m.
    ch = _emitted_chamber()
    m = ch.u_interval.midpoint()
    c = next(c for c in ch.curves if c not in ch.support)
    with pytest.raises(_SplitRequest) as req:
        _verify_chambers([_with_pairing(ch, c, (-m.numerator,
                                                m.denominator, 0))])
    assert req.value.at == m


@pytest.mark.parametrize("gram", [[[2, 1], [0, 1]], [[1, 0]], [[1]],
                                  [[1, 0, 0], [0, 1, 0]]],
                         ids=["asymmetric", "one-row", "short", "wide"])
def test_malformed_gram_is_a_zariski_error(gram):
    with pytest.raises(MalformedLattice):
        SurfaceLattice(("a", "b"), gram)


def test_cached_support_solve_matches_linalg_solve():
    rng = random.Random(7)
    for name in FLAG_FIXTURES:
        shared = flag_case(name).lattice
        lat = SurfaceLattice(shared.curves, shared.gram)
        for k in (1, 2, 3):
            for support in itertools.combinations(lat.curves, k):
                support = list(support)
                rows = [[lat.gram[lat.index(s)][lat.index(t)]
                         for s in support] for t in support]
                if _linalg.det(rows) == 0:
                    continue
                coeffs = {c: (rng.randint(-3, 3), rng.randint(-2, 2),
                              rng.randint(-2, 2)) for c in lat.curves}
                family = {c: AFF(a, b) for c, (a, b, _) in coeffs.items()}
                direction = {c: t[2] for c, t in coeffs.items()}
                # One Fraction solve per coefficient of a + b*u + c*v.
                columns = [_linalg.solve(rows, [
                    pairing(lat, {c: t[e] for c, t in coeffs.items()}, s)
                    for s in support]) for e in range(3)]
                expected = dict(zip(support, zip(*columns)))
                vec, den = _triples(lat, family, direction)
                # The first call fills the cache, the second reads it.
                for _ in range(2):
                    _, n, _, r = _parts(lat, vec, support)
                    got = {s: tuple(Q(x, den * r) for x in t)
                           for s, t in n.items()}
                    assert got == expected


def test_singular_support_raises_every_time(monkeypatch):
    lat = SurfaceLattice(("a", "b"), [[0, 1], [1, -1]])
    inverses = []
    inverse = _linalg.inverse

    def counted_inverse(rows):
        inverses.append(rows)
        return inverse(rows)

    monkeypatch.setattr(_linalg, "inverse", counted_inverse)
    for _ in range(2):
        with pytest.raises(NoConvergence):
            _support_inverse(lat, ["a"])
    assert len(inverses) == 2
    assert ("a",) not in lat._inverses
