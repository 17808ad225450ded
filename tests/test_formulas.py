import random
from fractions import Fraction as Q

import pytest

from kstab.formulas import (FamilyParams, FormulaError, HypothesisViolated,
                            UnsortedInput, euler_char_tangent, fano_signature,
                            gamma_criterion, gamma_entries, k3, k_general,
                            lambda_n, res_n,
                            s_sminus, s_vertical, double_cover_check,
                            vol_Da)

P39 = FamilyParams(3, Q(3, 2), 4, Q(1, 2), Q(3, 2))


def rand_params(rng, n=None):
    return FamilyParams(
        n=n or rng.randint(2, 6),
        a=1 + Q(rng.randint(1, 12), rng.randint(1, 8)),
        d=Q(rng.randint(1, 30), rng.randint(1, 4)),
        mu=Q(rng.randint(1, 6), rng.randint(1, 6)),
    )


class TestClosedForms:
    def test_vol(self):
        assert vol_Da(FamilyParams(3, 2, 2)) == 14
        assert vol_Da(P39) == 13
        assert vol_Da(FamilyParams(4, 1, 7)) == 7

    def test_s_sminus(self):
        assert s_sminus(P39) == Q(17, 26)
        assert s_sminus(FamilyParams(2, 2, 1)) == Q(5, 9)
        # Direct substitution gives 17/28 at (3, 2); an integral oracle:
        # (a^3 - (a^4 - (a-1)^4)/4) / (a^3 - (a-1)^3) at a = 2.
        assert s_sminus(FamilyParams(3, 2, 1)) == Q(17, 28)

    def test_s_sminus_integral_oracle(self):
        rng = random.Random(37)
        for _ in range(30):
            p = rand_params(rng, n=3)
            a = p.a
            oracle = (a ** 3 - (a ** 4 - (a - 1) ** 4) / 4) / \
                (a ** 3 - (a - 1) ** 3)
            assert s_sminus(p) == oracle

    def test_s_vertical(self):
        assert s_vertical(P39) == Q(10, 13)
        assert s_vertical(FamilyParams(3, Q(3, 2), 4, 1)) == Q(5, 13)

    def test_s_vertical_expanded_identity(self):
        rng = random.Random(41)
        for _ in range(50):
            p = rand_params(rng, n=3)
            a, mu = p.a, p.mu
            expanded = (2 * a - 1) * (2 * a ** 2 - 2 * a + 1) / \
                (4 * mu * (3 * a ** 2 - 3 * a + 1))
            assert s_vertical(p) == expanded

    def test_residual(self):
        assert res_n(P39) == Q(9, 52)
        assert lambda_n(P39) == Q(9, 52)
        assert res_n(FamilyParams(3, 1, 1)) == Q(1, 8)
        # a = 2 by direct substitution of the shared closed form.
        assert res_n(FamilyParams(3, 2, 1)) == Q(11, 56)

    def test_residual_positive_grid(self):
        for n in range(2, 9):
            for num in range(5, 17):
                a = Q(num, 4)
                p = FamilyParams(n, a, 1)
                assert res_n(p) > 0

    def test_residual_equals_lambda_random(self):
        rng = random.Random(43)
        for _ in range(50):
            p = rand_params(rng)
            assert res_n(p) == lambda_n(p)

    def test_k3_anchor(self):
        assert k3(Q(3, 2), 4, Q(1, 2)) == Q(49, 52)
        assert k3(Q(3, 2), 2, 1) == Q(49, 52)
        assert k_general(P39) == Q(49, 52)

    def test_k_general_dim4(self):
        p = FamilyParams(4, Q(4, 3), 27, Q(1, 3))
        assert k_general(p) == Q(397, 425)

    def test_k3_equals_k_general_random(self):
        rng = random.Random(47)
        for _ in range(100):
            p = rand_params(rng, n=3)
            assert k3(p.a, p.d, p.mu) == k_general(p)

    def test_decomposition_identity_random(self):
        rng = random.Random(53)
        for _ in range(100):
            p = rand_params(rng)
            assert k_general(p) == \
                s_vertical(p) * p.d * p.mu ** (p.n - 1) + res_n(p)

    def test_gamma_entries_match_expanded_forms(self):
        # The entries as closed forms of their own, written out in full.
        rng = random.Random(61)
        for _ in range(100):
            p = rand_params(rng)
            n, a, d, mu = p.n, p.a, p.d, p.mu
            gap_n = a ** n - (a - 1) ** n
            gap_n1 = a ** (n + 1) - (a - 1) ** (n + 1)
            k = gap_n1 / ((n + 1) * gap_n) * d * mu ** (n - 2) + \
                (a ** (n + 1) - (a + n) * (a - 1) ** n) / \
                (2 * (n + 1) * gap_n)
            assert gamma_entries(p) == (
                1 / k,
                (n + 1) * gap_n / ((n + 1 - a) * a ** n
                                   + (a - 1) ** (n + 1)),
                a * p.delta_v * (n + 1) * gap_n / (n * gap_n1))

    def test_tail_inequality_sampled(self):
        # The vertical bound strictly dominates the slope whenever a > 1.
        rng = random.Random(59)
        for _ in range(60):
            p = rand_params(rng)
            n, a = p.n, p.a
            lhs = n * (a ** (n + 1) - (a - 1) ** (n + 1))
            rhs = a * ((n + 1 - a) * a ** n + (a - 1) ** (n + 1))
            assert lhs > rhs


class TestGamma:
    def test_anchor_entries(self):
        v = gamma_criterion(P39)
        assert v.entries == (Q(52, 49), Q(26, 17), Q(39, 20))
        assert v.gamma == Q(52, 49)
        assert v.polystable_certified

    def test_small_product_not_certified(self):
        p = FamilyParams(3, Q(3, 2), 1, 1)
        v = gamma_criterion(p)
        assert not v.polystable_certified

    def test_double_cover_cases(self):
        v43 = double_cover_check(4, 3)
        assert v43.gamma == Q(425, 397)
        assert v43.entries == (Q(425, 397), Q(425, 313), Q(425, 341))
        assert v43.polystable_certified
        assert double_cover_check(6, 4).polystable_certified
        assert double_cover_check(5, 3).polystable_certified

    def test_double_cover_hypotheses(self):
        with pytest.raises(HypothesisViolated):
            double_cover_check(4, 2)
        with pytest.raises(HypothesisViolated):
            double_cover_check(3, 3)

    @pytest.mark.parametrize("n", [5.0, True], ids=["float", "bool"])
    def test_double_cover_n_must_be_an_int(self, n):
        # A float n used to fail with an untyped TypeError.
        with pytest.raises(HypothesisViolated, match="are not ints"):
            double_cover_check(n, 3)

    @pytest.mark.parametrize("r", [3.0, True], ids=["float", "bool"])
    def test_double_cover_r_must_be_an_int(self, r):
        with pytest.raises(HypothesisViolated, match="are not ints"):
            double_cover_check(5, r)


class TestSignatures:
    def test_fano_cases(self):
        assert fano_signature(2, 1, 1) == fano_signature(2, 1, 1)
        s = fano_signature(2, 1, 1)
        assert s.is_fano and not s.k_unstable
        s = fano_signature(2, Q(3, 2), 1)
        assert s.is_fano and s.k_unstable
        s = fano_signature(1, 1, 1)
        assert not s.is_fano and not s.k_unstable

    def test_unsorted(self):
        with pytest.raises(UnsortedInput):
            fano_signature(2, 1, Q(3, 2))

    def test_euler_char(self):
        assert euler_char_tangent(28, 4, 2) == -1
        assert euler_char_tangent(64, 1, 0) == 15
        assert euler_char_tangent(0, 0, 0) == -18


class TestParamValidation:
    def test_bad_dimension(self):
        with pytest.raises(FormulaError):
            FamilyParams(1, 2, 1)

    @pytest.mark.parametrize("n", [3.0, True], ids=["float", "bool"])
    def test_dimension_must_be_an_int(self, n):
        # n = 3.0 used to give a float k_general, 0.7321428571428571.
        with pytest.raises(FormulaError, match="must be an int"):
            FamilyParams(n=n, a=2, d=1)

    def test_bad_slope(self):
        with pytest.raises(FormulaError):
            FamilyParams(3, Q(1, 2), 1)
