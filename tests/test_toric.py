import itertools
import random
from fractions import Fraction as Q

import pytest

from kstab import _linalg
from kstab.runner import model
from kstab.toric import (DegeneratePolytope, GradingMismatch, IndexOutOfRange,
                         ToricModel, divisor, polytope_barycenter)

VERTICES_42 = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
               (1, 1, 0), (-1, 1, 0), (-1, -1, 0), (1, -1, 0),
               (0, 0, -1), (-1, 0, -1), (-1, -1, -1), (0, -1, -1)]

ALL_MODELS = ("F0tilde-A2", "Y0-A1", "Y0-A2", "Y1-A1", "Y1-A2", "Y2-A2",
              "Ytilde-A2")


class TestTripleDistinct:
    def test_unimodular_cone(self):
        m = model("Y0-A1")
        # {1,2,4} lies inside the subdivided cone: the blown-up point sits
        # on ray 0, so the three old rays no longer span a cone.
        assert m.triple_intersection_distinct(1, 2, 4) == 0
        assert m.triple_intersection_distinct(0, 1, 2) == 1

    def test_irrelevant_pair(self):
        m = model("Y0-A1")
        for k in (1, 2, 4, 5):
            assert m.triple_intersection_distinct(0, 3, k) == 0

    def test_weighted_cone(self):
        m = model("Y0-A2")
        assert m.triple_intersection_distinct(0, 1, 2) == Q(1, 3)

    def test_index_error(self):
        with pytest.raises(IndexOutOfRange):
            model("Y0-A1").triple_intersection_distinct(0, 1, 9)

    def test_permutation_invariance(self):
        m = model("Y0-A2")
        for perm in itertools.permutations((0, 1, 4)):
            assert m.triple_intersection_distinct(*perm) == \
                m.triple_intersection_distinct(0, 1, 4)


class TestIntersectionProduct:
    def test_printed_anchor_values(self):
        F0, F1, F5 = divisor({0: 1}), divisor({1: 1}), divisor({5: 1})
        assert model("Y0-A1").intersection_product(F5, F5, F5) == 4
        assert model("Y0-A2").intersection_product(F0, F0, F0) == Q(1, 18)
        assert model("Y2-A2").intersection_product(F5, F5, F5) == 3

    def test_trilinear_combination(self):
        m = model("Y2-A2")
        d = divisor({0: 1, 1: 1, 5: Q(1, 3)})
        assert m.intersection_product(d, d, d) == Q(1, 9)

    def test_symmetry_and_trilinearity(self):
        m = model("Y1-A2")
        rng = random.Random(7)
        for _ in range(25):
            ds = [divisor({i: Q(rng.randint(-3, 3)) for i in range(6)})
                  for _ in range(3)]
            base = m.intersection_product(*ds)
            for perm in itertools.permutations(ds):
                assert m.intersection_product(*perm) == base
            scale = Q(rng.randint(1, 5), rng.randint(1, 5))
            scaled = dict(ds[0])
            scaled = {k: scale * v for k, v in scaled.items()}
            assert m.intersection_product(scaled, ds[1], ds[2]) == \
                scale * base

    def test_linear_equivalence_rewriting(self):
        # Adding any degree-zero combination never changes the product.
        rng = random.Random(11)
        for name in ALL_MODELS:
            m = model(name)
            kernel = _linalg.kernel([list(row) for row in m.grading])
            for _ in range(10):
                ds = [divisor({i: Q(rng.randint(-2, 2))
                               for i in range(len(m.rays))})
                      for _ in range(m.dim)]
                base = m.intersection_product(*ds)
                combo = dict(ds[0])
                for vec in kernel:
                    c = Q(rng.randint(-2, 2))
                    for i, x in enumerate(vec):
                        combo[i] = combo.get(i, Q(0)) + c * x
                assert m.degree(combo) == m.degree(ds[0])
                assert m.intersection_product(combo, *ds[1:]) == base

    def test_rewrite_independent_of_cone(self):
        # Products use the first maximal cone containing their support;
        # rewriting any repeated ray through any such cone must agree.  In
        # a complete fan every ray and edge lies in at least two cones.
        for name in ALL_MODELS:
            m = model(name)
            for ms in itertools.combinations_with_replacement(
                    range(len(m.rays)), m.dim):
                cones = [c for c in m.max_cones if set(ms) <= c]
                if len(set(ms)) == m.dim or not cones:
                    continue
                assert len(cones) > 1
                for i in {i for i in ms if ms.count(i) > 1}:
                    rest = list(ms)
                    rest.remove(i)
                    for cone in cones:
                        via = sum(c * m._monomial(tuple(sorted(rest + [k])))
                                  for k, c in m._relation_rep(i, cone).items())
                        assert via == m._monomial(ms), (name, ms, set(cone))


class TestCurvesAndCones:
    def test_nodal_curve_pairings(self):
        m = model("Y0-A1")
        assert m.pair_curve_divisor("C12", divisor({1: 1})) == -1
        assert m.pair_curve_divisor("C12", divisor({})) == 0

    def test_cuspidal_middle_pairing(self):
        m = model("Y1-A2")
        assert m.pair_curve_divisor("C05", divisor({0: 1})) == Q(-1, 6)

    def test_nef_wall(self):
        m = model("Y0-A1")
        L1 = divisor({0: 2, 1: 3, 5: 1})
        ok, violated = m.nef_check(L1)
        assert ok and not violated
        assert m.pair_curve_divisor("C12", L1) == 0
        L2 = divisor({0: 1, 1: 3, 5: 1})
        ok, violated = m.nef_check(L2)
        assert not ok and violated == ["C12"]
        assert m.nef_check(divisor({}))[0]

    def test_effective_boundary(self):
        m = model("Y0-A1")
        assert m.effective_check(divisor({0: 0, 1: 3, 5: 1}))
        assert not m.effective_check(divisor({0: -1, 1: 3, 5: 1}))
        assert m.effective_check(divisor({0: 1}))


class TestBarycenter:
    def test_torus_invariant_degeneration(self):
        assert polytope_barycenter(VERTICES_42) == (0, 0, 0)

    def test_unit_cube(self):
        cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        assert polytope_barycenter(cube) == (Q(1, 2), Q(1, 2), Q(1, 2))

    def test_translation_equivariance(self):
        rng = random.Random(13)
        for _ in range(10):
            shift = tuple(Q(rng.randint(-5, 5), rng.randint(1, 3))
                          for _ in range(3))
            moved = [tuple(v[k] + shift[k] for k in range(3))
                     for v in VERTICES_42]
            assert polytope_barycenter(moved) == shift

    def test_relabeling_invariance(self):
        rng = random.Random(17)
        for _ in range(5):
            shuffled = list(VERTICES_42)
            rng.shuffle(shuffled)
            assert polytope_barycenter(shuffled) == (0, 0, 0)

    def test_degenerate(self):
        with pytest.raises(DegeneratePolytope):
            polytope_barycenter([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])


class TestErrors:
    def test_grading_mismatch(self):
        # P^2 with its class-group grading, then a grading that breaks the
        # fan's relations and one that keeps them but has rank 0, not 1.
        p2 = ([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [2, 0]])
        h = divisor({0: 1})
        p2_model = ToricModel("P2", *p2, [[1, 1, 1]])
        assert p2_model.intersection_product(h, h) == 1
        for grading in ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, 0]]):
            with pytest.raises(GradingMismatch):
                ToricModel("fake", *p2, grading)

    def test_singular_effective_basis(self):
        from kstab.toric import SingularBasis
        m = model("Y0-A1")
        with pytest.raises(SingularBasis):
            m.effective_check(divisor({0: 1}), generators=("F1", "F2"))
