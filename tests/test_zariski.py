import random
from fractions import Fraction as Q

import pytest

from kstab.exactcore import Interval, Poly
from kstab.runner import flag_case, model, volume_fixture
from kstab.zariski import (DiscontinuousVolume, DecompositionMismatch,
                           NefViolation, SurfaceLattice, ThreefoldChamber,
                           Unbounded, parametric_surface_zariski,
                           pseudoeffective_threshold, surface_zariski,
                           threefold_chamber_volume)

AFF = Poly.affine
U = Poly.var("u")
V = Poly.var("v")

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
        assert HIRZEBRUCH.square(p) == 1

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
    def test_constant_nef_family(self):
        fam = {"e": Poly.const(1), "f": Poly.const(2)}
        chambers = parametric_surface_zariski(
            HIRZEBRUCH, fam, Interval(0, 1), v_max=Poly.const(1))
        assert len(chambers) == 1
        assert chambers[0].negative == {}

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
    from kstab.zariski import IrrationalThreshold, _vol_threshold
    with pytest.raises(IrrationalThreshold):
        _vol_threshold(2 - V ** 2, Q(0), Q(0), None)


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
