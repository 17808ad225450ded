import itertools
import random
from fractions import Fraction as Q

import pytest

from kstab import _linalg
from kstab.exactcore import Interval, Poly
from kstab.functionals import FlagCase, FlagChamber
from kstab.runner import _fixture_root, flag_case, model, volume_fixture
from kstab.toric import SingularBasis, ToricModel
from kstab.zariski import (DiscontinuousVolume, DecompositionMismatch,
                           IrrationalThreshold, MalformedLattice,
                           NefViolation, NoConvergence, NonAffineFamily,
                           SurfaceLattice, ThreefoldChamber, Unbounded,
                           _SplitRequest, _support_solve, _vol_threshold,
                           parametric_surface_zariski,
                           pseudoeffective_threshold, surface_zariski,
                           threefold_chamber_volume)

AFF = Poly.affine
U = Poly.var("u")
V = Poly.var("v")

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
        assert HIRZEBRUCH.dot(p, p) == 1

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
                assert BASE_LATTICE.pairing(p, c) == 0
            for c in BASE_LATTICE.curves:
                assert BASE_LATTICE.pairing(p, c) >= 0

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
            parametric_surface_zariski(HIRZEBRUCH, fam, Interval(0, 1))

    def test_base_case_transversal_walls(self):
        # Slope 3/2, degree 4, scale 1/2: the case list has walls at
        # v = 1, v = 2 - u and the threshold 3 - u over the first
        # vertical chamber, then v = (3 - u)/2 and 3 - u over the second.
        fam = {"S": Poly.const(1), "f": AFF(3, -1), "E": AFF(3, -1, -1)}
        chambers = parametric_surface_zariski(BASE_LATTICE, fam,
                                              Interval(0, 1))
        walls = [(c.v_lo, c.v_hi) for c in chambers]
        assert [w[0] for w in walls] == [Poly(), Poly.const(1), AFF(2, -1)]
        assert [w[1] for w in walls] == [Poly.const(1), AFF(2, -1), AFF(3, -1)]
        assert [c.support for c in chambers] == [(), ("f",), ("S", "f")]

        fam2 = {"S": AFF(Q(3, 2), Q(-1, 2)), "f": AFF(3, -1),
                "E": AFF(3, -1, -1)}
        chambers2 = parametric_surface_zariski(BASE_LATTICE, fam2,
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
                assert sub.negative == {}

    def test_vertex_positivity(self):
        for name in ("a1-flag-C-ordinary", "a1-flag-C-weighted",
                     "a2-flag-C1", "a2-flag-C3", "a2-flag-pencil"):
            case = flag_case(name)
            for _, subs in case.inner():
                for sub in subs:
                    for u in (sub.u_interval.lo, sub.u_interval.hi):
                        for wall in (sub.v_lo, sub.v_hi):
                            v = wall.eval(u=u, v=0)
                            for c in case.lattice.curves:
                                val = case.lattice.pairing(sub.positive, c)
                                if isinstance(val, Poly):
                                    val = val.eval(u=u, v=v)
                                assert val >= 0
                            for c, coeff in sub.negative.items():
                                assert coeff.eval(u=u, v=v) >= 0

    def test_parametric_orthogonality(self):
        case = flag_case("a2-flag-C1")
        for _, subs in case.inner():
            for sub in subs:
                for c in sub.support:
                    val = case.lattice.pairing(sub.positive, c)
                    assert val == Poly() or val == 0


# H . H = 1 and A, B disjoint (-1)-curves: P . A and P . B are minus the
# A and B coefficients of P, so A enters the support where its family
# coefficient turns positive.
DISJOINT = SurfaceLattice(("H", "A", "B"),
                          [[1, 0, 0], [0, -1, 0], [0, 0, -1]])


def _rows(chambers):
    return [(c.u_interval, c.v_lo, c.v_hi, c.support, c.negative)
            for c in chambers]


class TestScanBranches:
    """The scan's events: a support curve leaving, two curves entering on
    one wall, and walls that cross inside the u-interval."""

    def test_curve_leaves_the_support(self):
        fam = {"e": AFF(2, Q(1, 4), -1), "f": AFF(Q(1, 2), 0, 1)}
        chambers = parametric_surface_zariski(HIRZEBRUCH, fam, Interval(0, 1))
        leave = AFF(Q(3, 4), Q(1, 8))
        assert _rows(chambers) == [
            (Interval(0, 1), Poly(), leave, ("e",),
             {"e": AFF(Q(3, 2), Q(1, 4), -2)}),
            (Interval(0, 1), leave, AFF(2, Q(1, 4)), (), {})]

    def test_two_curves_enter_on_one_wall(self):
        fam = {"H": AFF(3, 0, -1), "A": V - U, "B": V - U}
        chambers = parametric_surface_zariski(DISJOINT, fam, Interval(0, 1))
        assert _rows(chambers) == [
            (Interval(0, 1), Poly(), U, (), {}),
            (Interval(0, 1), U, Poly.const(3), ("A", "B"),
             {"A": V - U, "B": V - U})]

    @pytest.mark.parametrize("k, lo, hi, at", [
        (1, 0, 1, Q(1, 2)), (Q(3, 2), 0, Q(1, 2), Q(1, 3))],
        ids=["at-the-sample", "beside-the-sample"])
    def test_crossing_walls_split_the_scan(self, k, lo, hi, at):
        # A enters on v = k u and B on v = 1 - k u; they cross at u = at.
        # At the sample, in the first case; away from it in the second,
        # where the wall order is checked on every chamber before any
        # sign, so the misordered chamber asks for the split first.
        a, b = V - k * U, V - AFF(1, -k)
        fam = {"H": AFF(3, 0, -1), "A": a, "B": b}
        chambers = parametric_surface_zariski(DISJOINT, fam,
                                              Interval(lo, hi))
        left, right = Interval(lo, at), Interval(at, hi)
        both = {"A": a, "B": b}
        assert _rows(chambers) == [
            (left, Poly(), k * U, (), {}),
            (left, k * U, AFF(1, -k), ("A",), {"A": a}),
            (left, AFF(1, -k), Poly.const(3), ("A", "B"), both),
            (right, Poly(), AFF(1, -k), (), {}),
            (right, AFF(1, -k), k * U, ("B",), {"B": b}),
            (right, k * U, Poly.const(3), ("A", "B"), both)]


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
                assert a.poly.eval(u=x, v=0) == b.poly.eval(u=x, v=0)

    def test_monotone_nonincreasing(self):
        for name in ("a1-volume", "a2-volume"):
            vol = volume_fixture(name).volume()
            samples = []
            for p in vol.pieces:
                iv = p.interval
                for x in (iv.lo, iv.midpoint(), iv.hi):
                    samples.append(p.poly.eval(u=x, v=0))
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
        with pytest.raises((DiscontinuousVolume, NefViolation)):
            threefold_chamber_volume(fx.models, tweaked, fx.family)

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
    # No Mori generators, so both chambers are nef; vol O(a, b, c) = 6abc
    # falls from 6 to 3 at u = 1.
    m = ToricModel("P1^3", **CUBE)
    one = {"F0": Poly.const(1), "F2": Poly.const(1), "F4": Poly.const(1)}
    chambers = [
        ThreefoldChamber(Interval(0, 1), "P1^3", one, {}),
        ThreefoldChamber(Interval(1, 2), "P1^3",
                         dict(one, F4=Poly.const(Q(1, 2))),
                         {"F5": Poly.const(Q(1, 2))}),
    ]
    with pytest.raises(DiscontinuousVolume,
                       match="at u = 1: 6 vs 3"):
        threefold_chamber_volume({"P1^3": m}, chambers, one)


def test_negative_definiteness_detector():
    from kstab.zariski import _is_negative_definite
    lat = SurfaceLattice(("a", "b"), [[-1, 2], [2, -1]])
    assert _is_negative_definite(lat, ["a"])
    assert not _is_negative_definite(lat, ["a", "b"])
    good = SurfaceLattice(("a", "b"), [[-2, 1], [1, -2]])
    assert _is_negative_definite(good, ["a", "b"])


def test_volume_vanishes_at_threshold():
    for name, threshold in (("a1-volume", 3), ("a2-volume", 9)):
        vol = volume_fixture(name).volume()
        last = vol.pieces[-1]
        assert last.interval.hi == threshold
        assert last.poly.eval(u=threshold, v=0) == 0
        for p in vol.pieces:
            for x in (p.interval.lo, p.interval.midpoint(), p.interval.hi):
                assert p.poly.eval(u=x, v=0) >= 0


def test_concave_volume_has_irrational_threshold():
    # 2 - v^2 vanishes at v = sqrt(2); without a limit the scan must not
    # take the concave volume for an unbounded one.
    with pytest.raises(IrrationalThreshold):
        _vol_threshold(2 - V ** 2, Q(0), Q(0), None)


@pytest.mark.parametrize("vol, limit, vanishes", [
    (2 - V ** 2, Q(1), False),
    (2 - V ** 2, Q(2), True),
    (V ** 2 - 4 * V + 2, Q(1, 2), False),
    (V ** 2 - 4 * V + 2, Q(1), True),
    (V ** 2 - 4 * V + 2, None, True),
    (V ** 2 + 4 * V + 2, None, False),
    (V ** 2 - 2 * V + 2, Q(5), False),
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


# Volume with the root lines v = u and v = 1 - u, crossing at u = 1/2.
CROSSING = (V - U) * (V - AFF(1, -1))


class TestThresholdWall:
    """The threshold wall is the line through the root at the sample,
    accepted only when the volume vanishes on it identically."""

    @pytest.mark.parametrize("vol, v_cur, root, wall", [
        ((1 + U) * (AFF(2, -1) - V), Q(0), Q(3, 2), AFF(2, -1)),
        ((V - AFF(1, 1)) * (V - AFF(3, -1)), Q(0), Q(3, 2), AFF(1, 1)),
        (-(V - AFF(1, 1)) * (V - AFF(3, -1)), Q(2), Q(5, 2), AFF(3, -1)),
        (2 * (V - AFF(1, 1)) ** 2, Q(0), Q(3, 2), AFF(1, 1)),
    ], ids=["linear-u-dependent-slope", "two-roots-lower",
            "two-roots-above-v-cur", "double-root"])
    def test_affine_wall(self, vol, v_cur, root, wall):
        assert _vol_threshold(vol, Q(1, 2), v_cur, None) == (root, wall)

    def test_rational_root_that_is_not_affine(self):
        # v^2 - u vanishes at v = -1/2 when u = 1/4, on the curve
        # v = -sqrt(u), which is no line.
        with pytest.raises(IrrationalThreshold):
            _vol_threshold(V ** 2 - U, Q(1, 4), Q(-1), None)

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
        vol = (V - 1) ** 2 - 2 * (U - Q(1, 2)) ** 2
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
        fam = {"a": AFF(0, 1, -1), "b": AFF(Q(1, 2), Q(-1, 2), Q(-1, 2))}
        chambers = parametric_surface_zariski(lat, fam, Interval(0, 1))
        assert [(c.u_interval, c.v_lo, c.v_hi) for c in chambers] == [
            (Interval(0, Q(1, 2)), Poly(), U),
            (Interval(Q(1, 2), 1), Poly(), AFF(1, -1))]
        assert all(c.volume == CROSSING for c in chambers)


@pytest.mark.parametrize("entry", [U * U, U * V], ids=["u-squared", "uv"])
def test_parametric_family_must_be_affine(entry):
    fam = {"S": Poly.const(1), "f": AFF(3, -1), "E": AFF(3, -1, -1) + entry}
    with pytest.raises(NonAffineFamily, match="of E is not affine"):
        parametric_surface_zariski(BASE_LATTICE, fam, Interval(0, 1))


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
    # Zero Gram entries are skipped; the result must not change.
    lat = SurfaceLattice(("a", "b", "c", "d"),
                         [[-2, 0, 1, 0], [0, 0, 0, 1], [1, 0, -1, 0],
                          [0, 1, 0, 0]])
    rng = random.Random(105)

    def coeff():
        if rng.random() < 0.5:
            return Q(rng.randint(-4, 4), rng.randint(1, 3))
        return AFF(Q(rng.randint(-4, 4), rng.randint(1, 3)),
                   rng.randint(-2, 2), rng.randint(-2, 2))

    for _ in range(100):
        d1 = {k: coeff() for k in lat.curves if rng.random() < 0.7}
        d2 = {k: coeff() for k in lat.curves if rng.random() < 0.7}
        naive = sum((c1 * c2 * lat.gram[lat.index(k1)][lat.index(k2)]
                     for k1, c1 in d1.items() for k2, c2 in d2.items()),
                    Poly())
        assert lat.dot(d1, d2) == naive
        for name in lat.curves:
            j = lat.index(name)
            assert lat.pairing(d1, name) == sum(
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
        assert sub.pairings == {c: lat.pairing(sub.positive, c)
                                for c in lat.curves}
        assert sub.volume == lat.dot(sub.positive, sub.positive)


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
                d = {c: Poly.affine(rng.randint(-3, 3), rng.randint(-2, 2),
                                    rng.randint(-2, 2))
                     for c in lat.curves}
                rhs = [lat.pairing(d, t) for t in support]
                expected = dict(zip(support, _linalg.solve(rows, rhs)))
                # The first call fills the cache, the second reads it.
                for _ in range(2):
                    got = _support_solve(lat, d, support)
                    assert {s: Poly.const(c) for s, c in got.items()} == \
                        {s: Poly.const(c) for s, c in expected.items()}


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
            _support_solve(lat, {"a": Q(1), "b": Q(2)}, ["a"])
    assert len(inverses) == 2
    assert ("a",) not in lat._inverses
