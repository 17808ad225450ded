import itertools
import random
from fractions import Fraction as Q
from math import comb

import pytest

from invariant_oracles import (_matrix, act, char_poly, compose,
                               verify_invariance)
from kstab.invariants import (_WEIGHTS, BoundExceeded, GroupElement,
                              InvariantError, _weight_table, coeffs,
                              hilbert_prefix, independence_rank,
                              invariance_trials, invariant_dimension,
                              peano_invariants, random_coeffs,
                              random_group_element, swap_transpose)

GENERIC = coeffs({"00": "1", "01": "2", "02": "1/2", "10": "-1",
                  "11": "3/2", "12": "5", "20": "-2", "21": "7/3",
                  "22": "4"})


class TestDimensions:
    def test_low_degrees(self):
        assert invariant_dimension(0) == 1
        assert invariant_dimension(1) == 0

    def test_matches_series(self):
        series = hilbert_prefix(8)
        assert series == [1, 0, 1, 1, 2, 1, 3, 2, 4]
        assert [invariant_dimension(k) for k in range(9)] == series

    def test_series_small(self):
        assert hilbert_prefix(4) == [1, 0, 1, 1, 2]
        assert hilbert_prefix(0) == [1]
        assert hilbert_prefix(8)[-1] == 4

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            invariant_dimension(13)

    @staticmethod
    def _brute_force_count(k, target):
        # Reference counter: enumerate every degree-k multiset of weights.
        count = 0
        for combo in itertools.combinations_with_replacement(_WEIGHTS, k):
            if (sum(w[0] for w in combo), sum(w[1] for w in combo)) == target:
                count += 1
        return count

    @pytest.mark.parametrize("k", range(9))
    def test_weight_table_matches_enumeration(self, k):
        table = _weight_table(k)
        assert len(table) == k + 1
        for target in ((0, 0), (2, 0), (0, 2), (2, 2)):
            assert table[k].get(target, 0) == \
                self._brute_force_count(k, target)
        # Every degree-d multiset of the 9 weight types is counted once.
        for d, row in enumerate(table):
            assert sum(row.values()) == comb(d + 8, 8)

    def test_matches_series_up_to_bound(self):
        assert [invariant_dimension(k) for k in range(13)] == \
            hilbert_prefix(12)

    def test_negative_degree(self):
        with pytest.raises(InvariantError):
            invariant_dimension(-1)


class TestPeano:
    def test_diagonal(self):
        assert peano_invariants({"11": 1}) == (Q(-1, 2), 0, Q(1, 16))

    def test_zero(self):
        assert peano_invariants({}) == (0, 0, 0)

    def test_corners_against_determinant_oracle(self):
        # Independent route: char_poly interpolates det(tI - M) from exact
        # 4x4 determinants at five sample points and checks that the
        # interpolant is monic.  Three hand-picked forms,
        # the nine unit forms e_ij and 20 seeded random forms; no sympy or
        # hypothesis, so the core-only job runs it.
        rng = random.Random(38)
        forms = [{"00": 1, "22": 1}, GENERIC, {"11": 1}]
        forms += [{(i, j): 1} for i in range(3) for j in range(3)]
        forms += [random_coeffs(rng) for _ in range(20)]
        for c in forms:
            c1, *cs = char_poly(_matrix(coeffs(c)))
            assert c1 == 0 and tuple(cs) == peano_invariants(c)

    def test_homogeneity_degrees(self):
        # J2, J3, J4 are homogeneous of degrees 2, 3 and 4.
        rng = random.Random(83)
        for _ in range(20):
            c = random_coeffs(rng)
            t = Q(rng.randint(1, 7), rng.randint(1, 5))
            scaled = {k: t * v for k, v in c.items()}
            j = peano_invariants(c)
            js = peano_invariants(scaled)
            assert js == (t ** 2 * j[0], t ** 3 * j[1], t ** 4 * j[2])


class TestAction:
    def test_identity(self):
        g = GroupElement.of(((1, 0), (0, 1)), ((1, 0), (0, 1)))
        assert act(g, GENERIC) == GENERIC

    def test_swap_like(self):
        g = GroupElement.of(((0, 1), (-1, 0)), ((1, 0), (0, 1)))
        assert act(g, {"00": 1}) == {(2, 0): 1}

    def test_functoriality(self):
        rng = random.Random(89)
        for _ in range(20):
            g = random_group_element(rng)
            h = random_group_element(rng)
            c = random_coeffs(rng)
            assert act(compose(g, h), c) == act(g, act(h, c))

    def test_determinant_enforced(self):
        with pytest.raises(Exception):
            GroupElement.of(((2, 0), (0, 1)), ((1, 0), (0, 1)))


class TestInvariance:
    def test_shear(self):
        g = GroupElement.of(((1, 1), (0, 1)), ((1, 0), (0, 1)))
        assert verify_invariance(GENERIC, g)

    def test_rotation_like(self):
        g = GroupElement.of(((Q(3, 5), Q(4, 5)), (Q(-4, 5), Q(3, 5))),
                            ((1, 0), (0, 1)))
        assert verify_invariance(GENERIC, g)

    def test_seeded_trials(self):
        assert all(invariance_trials(20, 20230413))

    def test_swap_transpose(self):
        assert peano_invariants(swap_transpose(GENERIC)) == \
            peano_invariants(GENERIC)


class TestIndependence:
    def test_generic_rank(self):
        assert independence_rank(GENERIC) == 3

    def test_origin(self):
        assert independence_rank({}) == 0

    def test_single_coefficient_recorded(self):
        # No a-priori claim: the rank at the single middle coefficient is
        # whatever the exact Jacobian says.
        assert independence_rank({"11": 1}) in (1, 2, 3)


class TestCharPoly:
    def test_trace_free(self):
        c1 = char_poly(_matrix(GENERIC))[0]
        assert c1 == 0

    def test_small_sizes(self):
        assert char_poly([]) == []
        assert char_poly([[Q(3, 2)]]) == [Q(-3, 2)]
        assert char_poly([[1, 2], [3, 4]]) == [-5, -2]
        for c in char_poly([[1, 2], [3, 4]]):
            assert type(c) is Q


class TestCoeffsValidation:
    def test_accepts_strings_and_pairs(self):
        assert coeffs({"12": "1/2", (2, 0): 3, "00": 0}) == \
            {(1, 2): Q(1, 2), (2, 0): Q(3)}

    @pytest.mark.parametrize("data", [
        [1], "00", {"0": 1}, {"ab": 1}, {"000": 1}, {(0,): 1},
        {(0, "1"): 1}, {"00": "x"}, {"00": 1.5}, {"00": "1/0"}, {"33": 1},
    ])
    def test_rejects(self, data):
        with pytest.raises(InvariantError):
            coeffs(data)

    @pytest.mark.parametrize("data", [[1], [], {"0": 1}, {"00": "x"},
                                      {(0, 0): 0.5}, {(5, 5): 1}])
    def test_peano_rejects(self, data):
        with pytest.raises(InvariantError):
            peano_invariants(data)

    def test_act_rejects_index_out_of_range(self):
        g = random_group_element(random.Random(0))
        with pytest.raises(InvariantError):
            act(g, {(5, 5): 1})
