import itertools
import random
from fractions import Fraction as Q

import pytest

from kstab import _linalg
from kstab.runner import load_fixture, model
from kstab.toric import (DegeneratePolytope, GradingMismatch, IndexOutOfRange,
                         ToricError, ToricModel, parse_model,
                         polytope_barycenter)

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
        F0, F1, F5 = {0: 1}, {1: 1}, {5: 1}
        assert model("Y0-A1").intersection_product(F5, F5, F5) == 4
        assert model("Y0-A2").intersection_product(F0, F0, F0) == Q(1, 18)
        assert model("Y2-A2").intersection_product(F5, F5, F5) == 3

    def test_trilinear_combination(self):
        m = model("Y2-A2")
        d = {0: 1, 1: 1, 5: Q(1, 3)}
        assert m.intersection_product(d, d, d) == Q(1, 9)

    def test_symmetry_and_trilinearity(self):
        m = model("Y1-A2")
        rng = random.Random(7)
        for _ in range(25):
            ds = [{i: Q(rng.randint(-3, 3)) for i in range(6)}
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
        # The lattice relations sum_k v_k[a] F_k span the degree-zero
        # divisors: ToricModel checks that they span the grading's kernel.
        rng = random.Random(11)
        for name in ALL_MODELS:
            m = model(name)
            relations = [[v[a] for v in m.rays] for a in range(m.dim)]
            for _ in range(10):
                ds = [{i: Q(rng.randint(-2, 2)) for i in range(len(m.rays))}
                      for _ in range(m.dim)]
                base = m.intersection_product(*ds)
                combo = dict(ds[0])
                for vec in relations:
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
                        # The relation's numerators are over the cone's det.
                        via = sum(c * m._monomial(tuple(sorted(rest + [k])))
                                  for k, c in m._relation_rep(i, cone).items())
                        det = m._cone_adj[cone][0]
                        assert via == det * m._monomial(ms), (
                            name, ms, set(cone))


class TestConeData:
    def test_adjugate_matches_linalg(self):
        # Each cone's integer adjugate must give the relation representatives
        # and multiplicities that a Fraction solve and determinant give.
        for name in ALL_MODELS:
            m = model(name)
            for cone in m.max_cones:
                basis = sorted(cone)
                rows = [m.rays[j] for j in basis]
                det = _linalg.det(rows)
                # The integer table holds L^dim times each product.
                assert Q(m._monomial(tuple(basis)), m._scale) == 1 / abs(det)
                for i in basis:
                    sol = _linalg.solve(rows, [Q(j == i) for j in basis])
                    want = {k: -sum(x * y for x, y in zip(sol, v))
                            for k, v in enumerate(m.rays) if k not in cone}
                    want = {k: c for k, c in want.items() if c}
                    rep = m._relation_rep(i, cone)
                    assert {k: Q(c, det) for k, c in rep.items()} == want, (
                        name, i, set(cone))
                    assert all(type(c) is int for c in rep.values())


class TestCurvesAndCones:
    def test_nodal_curve_pairings(self):
        m = model("Y0-A1")
        assert m.pair_curve_divisor("C12", {1: 1}) == -1
        assert m.pair_curve_divisor("C12", {}) == 0

    def test_curve_is_its_pairing_vector(self):
        m = model("Y0-A1")
        assert m.curve("C12") == (1, -1, -1, 0, 0, 1)
        assert all(type(x) is Q for x in m.curve("C12"))
        assert m.pair_curve_divisor("C12", {1: 1}) == m.curve("C12")[1]

    def test_cuspidal_middle_pairing(self):
        m = model("Y1-A2")
        assert m.pair_curve_divisor("C05", {0: 1}) == Q(-1, 6)

    def test_nef_wall(self):
        m = model("Y0-A1")
        L1 = {0: 2, 1: 3, 5: 1}
        ok, violated = m.nef_check(L1)
        assert ok and not violated
        assert m.pair_curve_divisor("C12", L1) == 0
        L2 = {0: 1, 1: 3, 5: 1}
        ok, violated = m.nef_check(L2)
        assert not ok and violated == ["C12"]
        assert m.nef_check({})[0]

    def test_effective_boundary(self):
        m = model("Y0-A1")
        assert m.effective_check({0: 0, 1: 3, 5: 1})
        assert not m.effective_check({0: -1, 1: 3, 5: 1})
        assert m.effective_check({0: 1})


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

    def test_facet_normal_with_zero_leading_coordinate(self):
        # The base lies in y = 0, so its normal (0, -1, 0) starts with a
        # zero; every triple of it must key the same facet.  A pyramid's
        # centroid is 3/4 of its base-area centroid plus 1/4 of its apex.
        base = [(0, 0, 0), (2, 0, 0), (0, 0, 1), (3, 0, 3)]
        assert polytope_barycenter(base + [(1, 1, 1)]) == \
            (Q(4, 3), Q(1, 4), Q(13, 12))

    def test_points_inside_a_facet_are_ignored(self):
        cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        assert polytope_barycenter(cube + [(Q(1, 2), Q(1, 2), 1)]) == \
            (Q(1, 2), Q(1, 2), Q(1, 2))

    def test_degenerate(self):
        with pytest.raises(DegeneratePolytope):
            polytope_barycenter([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])


class TestErrors:
    def test_grading_mismatch(self):
        # P^2 with its class-group grading, then a grading that breaks the
        # fan's relations and one that keeps them but has rank 0, not 1.
        p2 = ([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [2, 0]])
        h = {0: 1}
        p2_model = ToricModel("P2", *p2, [[1, 1, 1]])
        assert p2_model.intersection_product(h, h) == 1
        for grading in ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, 0]]):
            with pytest.raises(GradingMismatch):
                ToricModel("fake", *p2, grading)

    def test_singular_effective_basis(self):
        from kstab.toric import SingularBasis
        y0 = model("Y0-A1")
        m = ToricModel("Y0-A1", y0.rays, y0.max_cones, y0.grading,
                       effective_generators=("F1", "F2"))
        with pytest.raises(SingularBasis):
            m.effective_check({0: 1})

    @pytest.mark.parametrize("name, field, entry, value", [
        ("F0tilde-A2", "aliases", "C1", 2.7),
        ("F0tilde-A2", "aliases", "C1", "x"),
        ("Y0-A1", "curves", "C12", [1.9, 2]),
        ("Y0-A1", "curves", "C12", [True, 2]),
    ])
    def test_model_integers_are_exact(self, name, field, entry, value):
        # A float is not truncated, nor a bool or string read as an int.
        data = dict(load_fixture("models", name))
        data[field] = {**data[field], entry: value}
        with pytest.raises(ToricError, match=repr(entry)):
            parse_model(data)

    @pytest.mark.parametrize("name, field, value", [
        ("Y0-A1", "mori_generators", "C12"),
        ("Y0-A1", "mori_generators", ["C12", 15]),
        ("Y0-A1", "effective_generators", "F0"),
        ("Y0-A1", "curves", [[1, 2]]),
        ("F0tilde-A2", "aliases", ["x"]),
        ("Y0-A1", "rays", []),
        ("Y0-A1", "rays", 5),
        ("Y0-A1", "max_cones", 5),
        ("Y0-A1", "grading", 5),
    ])
    def test_model_fields_are_read_by_shape(self, name, field, value):
        # A string is not read character by character as generator names,
        # and curves and aliases must be objects.
        data = {**load_fixture("models", name), field: value}
        with pytest.raises(ToricError, match=field):
            parse_model(data)

    @pytest.mark.parametrize("name, field, value, error", [
        ("Y0-A1", "curves", {"C12": [1, 99]}, IndexOutOfRange),
        ("Y0-A1", "curves", {"C12": [1, 1]}, ToricError),
        ("Y0-A1", "curves", {"C12": [0, 3]}, ToricError),
        ("F0tilde-A2", "curves", {"C12": [0, 1]}, ToricError),
        ("Y0-A1", "mori_generators", ["C12", "C99"], ToricError),
        ("Y0-A1", "effective_generators", ["F0", "F99"], IndexOutOfRange),
        ("Y0-A1", "effective_generators", ["F0", "E1"], ToricError),
        ("F0tilde-A2", "aliases", {"C1": 99}, IndexOutOfRange),
        ("Y0-A1", "max_cones", [[0, 1, 99]], IndexOutOfRange),
    ])
    def test_model_references_are_checked_on_build(self, name, field, value,
                                                   error):
        # A curve out of range, on a repeated ray or on two rays of no
        # common cone, or on a surface, is no 1-stratum; a generator, alias
        # or cone naming nothing fails when the model is built, not at its
        # first use.  An object value is merged into the fixture's.
        data = dict(load_fixture("models", name))
        data[field] = ({**data[field], **value} if isinstance(value, dict)
                       else value)
        with pytest.raises(error, match=field):
            parse_model(data)
