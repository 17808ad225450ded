import itertools
import random
from math import gcd

import pytest

from invariant_oracles import FULL_SUPPORT
from kstab.githm import (Destabilizer, EmptySupport, GitError,
                         OneParamSubgroup, find_destabilizer,
                         fixed_point_singularity, hm_weight, support)

UNSTABLE = support(["02", "12", "21", "22"])
SINGULAR = frozenset(FULL_SUPPORT - support(["00", "10", "01"]))


def rand_support(rng):
    pairs = [(i, j) for i in range(3) for j in range(3)]
    k = rng.randint(1, 9)
    return support(rng.sample(pairs, k))


def rand_subgroup(rng):
    r1 = rng.randint(1, 6)
    return OneParamSubgroup(rng.randint(0, r1), r1)


class TestSupport:
    def test_keys_follow_the_coefficient_rule(self):
        assert support(["02", (1, 2), [2, 0]]) == {(0, 2), (1, 2), (2, 0)}

    @pytest.mark.parametrize("entry", [
        "x0y2", "-12", "1/2", [0.9, 2], [True, 2], (0, 2, 7), (0, 3)],
        ids=["letters", "sign", "slash", "float", "bool", "triple",
             "out-of-range"])
    def test_other_keys_are_git_errors(self, entry):
        with pytest.raises(GitError):
            support(["00", entry])


class TestWeight:
    def test_proof_values(self):
        lam = OneParamSubgroup(1, 1)
        assert hm_weight(FULL_SUPPORT, lam) == 4
        assert hm_weight(SINGULAR, lam) == 0
        assert hm_weight(UNSTABLE, OneParamSubgroup(1, 2)) == -2

    def test_empty(self):
        with pytest.raises(EmptySupport):
            hm_weight(support([]), OneParamSubgroup(1, 1))

    def test_admissibility(self):
        with pytest.raises(Exception):
            OneParamSubgroup(2, 1)
        with pytest.raises(Exception):
            OneParamSubgroup(0, 0)

    @pytest.mark.parametrize("r0", [0.5, False], ids=["float", "bool"])
    def test_r0_must_be_an_int(self, r0):
        # r0 = 0.5 used to give the float weight 3.0 on the full support.
        with pytest.raises(GitError, match="need integers"):
            OneParamSubgroup(r0, 1)

    @pytest.mark.parametrize("r1", [1.5, True], ids=["float", "bool"])
    def test_r1_must_be_an_int(self, r1):
        with pytest.raises(GitError, match="need integers"):
            OneParamSubgroup(0, r1)

    def test_monotone_in_support_200(self):
        rng = random.Random(61)
        for _ in range(200):
            s = rand_support(rng)
            lam = rand_subgroup(rng)
            extra = [(i, j) for i in range(3) for j in range(3)
                     if (i, j) not in s]
            if not extra:
                continue
            bigger = frozenset(s | {rng.choice(extra)})
            assert hm_weight(bigger, lam) >= hm_weight(s, lam)

    def test_scaling_200(self):
        rng = random.Random(67)
        for _ in range(200):
            s = rand_support(rng)
            lam = rand_subgroup(rng)
            k = rng.randint(2, 5)
            scaled = OneParamSubgroup(k * lam.r0, k * lam.r1)
            assert hm_weight(s, scaled) == k * hm_weight(s, lam)

    def test_swap_symmetry_200(self):
        # Exchanging the two factors and transposing the support fixes
        # the weight.
        rng = random.Random(71)
        for _ in range(200):
            s = rand_support(rng)
            lam = rand_subgroup(rng)
            if lam.r0 == 0:
                continue
            swapped = OneParamSubgroup(min(lam.r0, lam.r1),
                                       max(lam.r0, lam.r1))
            transposed = support((j, i) for i, j in s)
            lhs = hm_weight(s, OneParamSubgroup(lam.r0, lam.r1))
            # swap (r0, r1) and (i, j) together
            rhs = max(lam.r1 * (2 - 2 * i) + lam.r0 * (2 - 2 * j)
                      for (i, j) in transposed)
            assert lhs == rhs


class TestDestabilizer:
    def test_unstable_family(self):
        cert = find_destabilizer(UNSTABLE)
        assert cert == Destabilizer(OneParamSubgroup(1, 2), -2)
        assert not cert.strictly_semistable_direction

    def test_full_support(self):
        assert find_destabilizer(FULL_SUPPORT) is None

    def test_strictly_semistable(self):
        cert = find_destabilizer(SINGULAR)
        assert cert == Destabilizer(OneParamSubgroup(1, 1), 0)
        assert cert.strictly_semistable_direction

    def test_three_subgroups_decide_every_support(self):
        # Brute force over the coprime subgroups with r1 <= 20, in order
        # of increasing r1, then r0: the first negative weight, else the
        # first zero weight, else no certificate.
        cone = [OneParamSubgroup(r0, r1) for r1 in range(1, 21)
                for r0 in range(r1 + 1) if gcd(r0, r1) == 1]

        def brute(s):
            certs = [Destabilizer(lam, hm_weight(s, lam)) for lam in cone]
            return (next((c for c in certs if c.weight < 0), None)
                    or next((c for c in certs if c.weight == 0), None))

        pairs = [(i, j) for i in range(3) for j in range(3)]
        verdicts = {"none": 0, "zero": 0, "negative": 0}
        for k in range(1, 10):
            for s in itertools.combinations(pairs, k):
                cert = find_destabilizer(frozenset(s))
                assert cert == brute(frozenset(s)), s
                verdicts["none" if cert is None else
                         "zero" if cert.weight == 0 else "negative"] += 1
        assert verdicts == {"none": 416, "zero": 80, "negative": 15}

    def test_verdict_scale_invariant(self):
        # Certificates are searched over coprime subgroups only, so the
        # verdict cannot depend on a scaling of lambda.
        rng = random.Random(79)
        for _ in range(100):
            s = rand_support(rng)
            cert = find_destabilizer(s)
            if cert is None:
                continue
            lam = cert.subgroup
            scaled = OneParamSubgroup(3 * lam.r0, 3 * lam.r1)
            assert hm_weight(s, scaled) == 3 * cert.weight


class TestFixedPoint:
    def test_cases(self):
        assert not fixed_point_singularity({"00": 1, "11": 2})
        assert fixed_point_singularity({"11": 1})
        assert not fixed_point_singularity({"01": 1})
        assert fixed_point_singularity({"22": "7/3"})
