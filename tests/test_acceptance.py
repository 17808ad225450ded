"""Acceptance criteria, one test per criterion, all at exact rational
equality (tolerance zero).

Each test prints a single pass line on success; a failure prints through
pytest as usual.  Criterion 4 contains one recorded misprint: the local
correction of the weighted flag at the fiber point is printed as 3/4 but
the printed chamber tables integrate exactly to 31/52 (and the value is
confirmed by the closed-form tangential base case); the printed value is
kept as a strict expected failure right below the recomputed assertion.
"""

import itertools
import random
from fractions import Fraction as Q

import pytest

import toric_surfaces
from invariant_oracles import FULL_SUPPORT
from kstab import runner
from kstab.exactcore import (Interval, PiecewisePolynomial, Poly,
                             definite_integral, double_integral,
                             piecewise_integral)
from kstab.formulas import (FamilyParams, HypothesisViolated, k3, k_general,
                            lambda_n, res_n, s_sminus, s_vertical,
                            double_cover_check)
from kstab.functionals import (beta_divisor, delta_bound_report, f_q_term,
                               s_flag_point, s_flag_surface, s_from_volume)
from kstab.githm import (OneParamSubgroup, find_destabilizer, hm_weight,
                         support)
from kstab.invariants import (hilbert_prefix, independence_rank,
                              invariance_trials, invariant_dimension)
from kstab.runner import flag_case, model, volume_fixture
from kstab.toric import polytope_barycenter
from kstab.zariski import surface_zariski
from lattice_oracles import pairing


def _done(k, message):
    print(f"[criterion {k:>2}] pass: {message}")


TRIPLES = list(itertools.combinations_with_replacement(("F0", "F1", "F5"), 3))


def _triple_table(name):
    m = model(name)
    return [m.intersection_product(*({m.divisor_index(x): Q(1)} for x in t))
            for t in TRIPLES]


def _curve_table(name, curves):
    m = model(name)
    return {c: [m.pair_curve_divisor(c, {m.divisor_index(f): 1})
                for f in ("F0", "F1", "F5")] for c in curves}


def test_criterion_01_toric_tables():
    assert _triple_table("Y0-A1") == [1, -1, 0, 1, 0, 0, -1, 1, -2, 4]
    assert _curve_table("Y0-A1", ("C12", "C15", "C01")) == {
        "C12": [1, -1, 1], "C15": [0, 1, -2], "C01": [-1, 1, 0]}
    assert _triple_table("Y1-A1") == [0, 0, -1, 0, 1, -1, 0, 0, -1, 3]
    assert _curve_table("Y1-A1", ("C05", "C15", "C01")) == {
        "C05": [-1, 1, -1], "C15": [1, 0, -1], "C01": [0, 0, 1]}
    assert _triple_table("Y0-A2") == \
        [Q(1, 18), Q(-1, 6), 0, Q(1, 2), 0, 0, Q(-3, 2), 1, -2, 4]
    assert _curve_table("Y0-A2", ("C12", "C15", "C01")) == {
        "C12": [Q(1, 3), -1, 1], "C15": [0, 1, -2],
        "C01": [Q(-1, 6), Q(1, 2), 0]}
    assert _triple_table("Y1-A2") == \
        [0, 0, Q(-1, 6), 0, Q(1, 2), Q(-1, 2), 0, Q(-1, 2), Q(-1, 2),
         Q(5, 2)]
    assert _curve_table("Y1-A2", ("C05", "C15", "C01")) == {
        "C05": [Q(-1, 6), Q(1, 2), Q(-1, 2)],
        "C15": [Q(1, 2), Q(-1, 2), Q(-1, 2)],
        "C01": [0, 0, Q(1, 2)]}
    assert _triple_table("Y2-A2") == \
        [Q(-1, 2), Q(1, 2), Q(1, 3), Q(-1, 2), 0, -1, Q(1, 2), 0, 0, 3]
    # The printed C03.F0 entry -2/3 contradicts flop orthogonality; the
    # recomputed value -1 pairs the flopped curve to zero at the wall.
    y2 = _curve_table("Y2-A2", ("C05", "C03", "C01"))
    assert y2 == {"C05": [Q(1, 3), 0, -1], "C03": [-1, 1, 1],
                  "C01": [Q(1, 2), Q(-1, 2), 0]}
    wall = {0: 4, 1: 3, 5: 1}  # the family at u = 5
    assert model("Y2-A2").pair_curve_divisor("C03", wall) == 0
    m = model("F0tilde-A2")
    pairs = {t: m.intersection_product(*({m.divisor_index(x): Q(1)}
                                         for x in t))
             for t in itertools.combinations_with_replacement(
                 ("C1", "C4", "C5"), 2)}
    assert pairs == {("C1", "C1"): Q(-1, 2), ("C1", "C4"): 0,
                     ("C1", "C5"): 1, ("C4", "C4"): -1,
                     ("C4", "C5"): 1, ("C5", "C5"): -2}
    _done(1, "all printed intersection tables reproduce entry-for-entry")


def test_criterion_02_volume_functions():
    a1 = volume_fixture("a1-volume").volume()
    assert [p.poly for p in a1] == [
        Poly.from_coeffs([13, 0, 0, -1]),
        Poly.from_coeffs([12, 3, -3]),
        Poly.from_coeffs([0, 27, -18, 3])]
    a2fx = volume_fixture("a2-volume")
    a2 = a2fx.volume()
    assert piecewise_integral(a2) == Q(127, 2)
    assert s_from_volume(a2, 13) == Q(127, 26)
    assert a2fx.flag_log_discrepancy / s_from_volume(a2, 13) == Q(130, 127)
    rows = {r.label: r for r in runner.run_suite().results}
    assert rows["volume/a2-pieces"].status == "discrepancy-noted"
    _done(2, "vol pieces exact; the misprinted pieces are flagged")


def test_criterion_03_beta_values():
    vol42 = PiecewisePolynomial([
        (Interval(0, 1), Poly.from_coeffs([28, 0, -24, 8])),
        (Interval(1, 2), Poly.from_coeffs([48, -48, 12]))])
    assert beta_divisor(1, vol42, 28) == Q(1, 14)
    vol39 = PiecewisePolynomial([
        (Interval(0, 1), Poly.from_coeffs([26, 0, -36, 16])),
        (Interval(1, Q(3, 2)), Poly.from_coeffs([54, -72, 24]))])
    assert beta_divisor(1, vol39, 26) == Q(7, 26)
    _done(3, "beta values 1/14 and 7/26 exact")


def test_criterion_04_flag_functionals():
    assert s_from_volume(PiecewisePolynomial([
        (Interval(0, 1), Poly.from_coeffs([13, 0, -18, 8])),
        (Interval(1, Q(3, 2)), Poly.from_coeffs([27, -36, 12]))]),
        13) == Q(19, 26)
    assert s_flag_surface(flag_case("mm39-flag-s")) == Q(5, 13)
    assert s_flag_surface(flag_case("a1-flag-e")) == Q(20, 13)
    ordinary = flag_case("a1-flag-C-ordinary")
    assert s_flag_surface(ordinary) == Q(29, 26)
    assert s_flag_point(ordinary, "Qgen") == Q(9, 26)
    assert f_q_term(ordinary, "Qf") == Q(11, 26)
    weighted = flag_case("a1-flag-C-weighted")
    assert s_flag_surface(weighted) == Q(49, 26)
    assert s_flag_point(weighted, "Qgen") == Q(9, 52)
    # Recomputed correction; the printed 3/4 is asserted (and expected to
    # fail) in the companion test below.
    assert f_q_term(weighted, "Qf") == Q(31, 52)
    assert s_flag_point(weighted, "Qf") == Q(9, 52) + f_q_term(weighted, "Qf")
    c1 = flag_case("a2-flag-C1")
    assert s_flag_surface(c1) == Q(10, 13)
    assert f_q_term(c1, "Q13") == Q(1, 12)
    assert s_flag_point(c1, "Q13") == Q(9, 52) + Q(1, 12) == Q(10, 39)
    assert s_flag_surface(flag_case("a2-flag-C3")) == Q(10, 39)
    assert s_flag_point(flag_case("a2-flag-C3"), "Qgen") == Q(9, 26)
    assert s_flag_point(flag_case("a2-flag-pencil"), "Qgen") == Q(10, 39)
    _done(4, "flag functionals exact (weighted fiber correction recomputed "
             "as 31/52; printed 3/4 tracked separately)")


@pytest.mark.xfail(
    strict=True,
    reason="printed value 3/4 is inconsistent with the printed chamber "
           "tables, which integrate exactly to 31/52; the closed-form "
           "tangential base case confirms the recomputation")
def test_criterion_04_weighted_fq_printed_value():
    assert f_q_term(flag_case("a1-flag-C-weighted"), "Qf") == Q(3, 4)


def test_criterion_05_delta_bounds():
    on_section = delta_bound_report([
        ("negative section", 1, Q(17, 26)),
        ("base flags", Q(3, 2), Q(15, 13))])
    assert on_section.value == Q(13, 10) and on_section.exceeds_one
    off_section = delta_bound_report([
        ("vertical surface", 1, Q(10, 13)),
        ("transversal flag", Q(3, 2), Q(29, 26)),
        ("transversal fiber point", 1, Q(10, 13)),
        ("transversal branch point", Q(1, 2), Q(9, 26)),
        ("tangential flag", 2, Q(49, 26)),
        ("tangential fiber point", 1, Q(10, 13)),
        ("tangential branch point", Q(1, 2), Q(9, 52))])
    assert off_section.value == Q(52, 49) and off_section.exceeds_one
    _done(5, "delta bounds 13/10 and 52/49 assembled exactly")


def test_criterion_06_closed_forms():
    p = FamilyParams(3, Q(3, 2), 4, Q(1, 2))
    assert k3(Q(3, 2), 4, Q(1, 2)) == Q(49, 52) == k_general(p)
    assert res_n(p) == lambda_n(p) == Q(9, 52)
    assert s_sminus(p) == Q(17, 26)
    rng = random.Random(20230413)
    for _ in range(100):
        q = FamilyParams(
            n=rng.randint(2, 6),
            a=1 + Q(rng.randint(1, 12), rng.randint(1, 8)),
            d=Q(rng.randint(1, 30), rng.randint(1, 4)),
            mu=Q(rng.randint(1, 6), rng.randint(1, 6)))
        assert k_general(q) == \
            s_vertical(q) * q.d * q.mu ** (q.n - 1) + res_n(q)
    for n in range(2, 9):
        for num in range(5, 17):
            assert res_n(FamilyParams(n, Q(num, 4), 1)) > 0
    _done(6, "closed forms, the decomposition identity and residual "
             "positivity hold exactly")


def test_criterion_07_double_cover_checker():
    v = double_cover_check(4, 3)
    assert v.gamma == Q(425, 397) and v.polystable_certified
    assert double_cover_check(6, 4).polystable_certified
    assert double_cover_check(5, 3).polystable_certified
    with pytest.raises(HypothesisViolated):
        double_cover_check(4, 2)
    _done(7, "(4,3) certifies with gamma 425/397; (6,4), (5,3) certify; "
             "(4,2) rejected on hypothesis")


def test_criterion_08_git_weights():
    assert hm_weight(FULL_SUPPORT, OneParamSubgroup(1, 1)) == 4
    singular = frozenset(FULL_SUPPORT - support(["00", "10", "01"]))
    assert hm_weight(singular, OneParamSubgroup(1, 1)) == 0
    unstable = support(["02", "12", "21", "22"])
    assert hm_weight(unstable, OneParamSubgroup(1, 2)) == -2
    cert = find_destabilizer(unstable)
    assert (cert.subgroup.r0, cert.subgroup.r1, cert.weight) == (1, 2, -2)
    rng = random.Random(20230413)
    pairs = [(i, j) for i in range(3) for j in range(3)]
    for _ in range(200):
        s = support(rng.sample(pairs, rng.randint(1, 9)))
        r1 = rng.randint(1, 6)
        lam = OneParamSubgroup(rng.randint(0, r1), r1)
        extra = [p for p in pairs if p not in s]
        if extra:
            bigger = frozenset(s | {rng.choice(extra)})
            assert hm_weight(bigger, lam) >= hm_weight(s, lam)
        transposed = support((j, i) for i, j in s)
        swapped_weight = max(lam.r1 * (2 - 2 * i) + lam.r0 * (2 - 2 * j)
                             for (i, j) in transposed)
        assert swapped_weight == hm_weight(s, lam)
    _done(8, "GIT weights 4, 0, -2; destabilizer (1,2); 200-sample "
             "property suite passes")


def test_criterion_09_barycenter():
    verts = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
             (1, 1, 0), (-1, 1, 0), (-1, -1, 0), (1, -1, 0),
             (0, 0, -1), (-1, 0, -1), (-1, -1, -1), (0, -1, -1)]
    assert polytope_barycenter(verts) == (0, 0, 0)
    rng = random.Random(20230413)
    for _ in range(20):
        shift = tuple(Q(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(3))
        moved = [tuple(v[k] + shift[k] for k in range(3)) for v in verts]
        assert polytope_barycenter(moved) == shift
    _done(9, "moment polytope barycenter is the origin; translation "
             "equivariance holds")


def test_criterion_10_invariant_ring():
    series = hilbert_prefix(8)
    assert series == [1, 0, 1, 1, 2, 1, 3, 2, 4]
    assert [invariant_dimension(k) for k in range(9)] == series
    assert all(invariance_trials(20, runner.DEFAULT_SEED))
    generic = {"00": "1", "01": "2", "02": "1/2", "10": "-1", "11": "3/2",
               "12": "5", "20": "-2", "21": "7/3", "22": "4"}
    assert independence_rank(generic) == 3
    from kstab.formulas import euler_char_tangent
    assert euler_char_tangent(28, 4, 2) == -1
    assert euler_char_tangent(64, 1, 0) == 15
    _done(10, "invariant dimensions match the series; invariance and "
              "independence certified; Euler characteristics reproduce")


def test_criterion_11_property_suites():
    rng = random.Random(20230413)

    def rand_poly():
        return Poly.from_coeffs(
            [Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(5)])

    def rand_rat():
        return Q(rng.randint(-6, 6), rng.randint(1, 6))

    def in_v(terms):
        """sum c u^i v^j of {(i, j): c} as its coefficients in v."""
        return [Poly.from_coeffs([terms.get((i, j), 0) for i in range(3)])
                for j in range(3)]

    for _ in range(500):
        p = rand_poly()
        a, b, c = sorted(rand_rat() for _ in range(3))
        assert definite_integral(p, Interval(a, c)) == \
            definite_integral(p, Interval(a, b)) + \
            definite_integral(p, Interval(b, c))
    for _ in range(500):
        p, q = rand_poly(), rand_poly()
        al, be = rand_rat(), rand_rat()
        iv = Interval(*sorted((rand_rat(), rand_rat())))
        assert definite_integral(al * p + be * q, iv) == \
            al * definite_integral(p, iv) + be * definite_integral(q, iv)
    for _ in range(500):
        f = {(rng.randint(0, 2), rng.randint(0, 2)): rand_rat()
             for _ in range(4)}
        a, b = sorted((rand_rat(), rand_rat()))
        c, d = sorted((rand_rat(), rand_rat()))
        lhs = double_integral(in_v(f), Poly.const(c), Poly.const(d),
                              Interval(a, b))
        swapped = {(j, i): co for (i, j), co in f.items()}
        rhs = double_integral(in_v(swapped), Poly.const(a), Poly.const(b),
                              Interval(c, d))
        assert lhs == rhs

    # Zariski orthogonality and permutation invariance on every bundled
    # surface case, at exact sample points of every inner chamber.
    for name in ("a1-flag-e", "a1-flag-C-ordinary", "a1-flag-C-weighted",
                 "mm39-flag-s", "a2-flag-C1", "a2-flag-C3", "a2-flag-pencil",
                 "base-transversal", "base-tangential"):
        case = flag_case(name)
        lat = case.lattice
        order = list(lat.curves)
        shuffled = sorted(order, key=lambda c: c[::-1])
        perm_lat = type(lat)(
            tuple(shuffled),
            [[lat.gram[lat.index(a)][lat.index(b)] for b in shuffled]
             for a in shuffled])
        for ch, subs in case.inner():
            for sub in subs:
                u = sub.u_interval.midpoint()
                v = (sub.v_lo.eval(u) + sub.v_hi.eval(u)) / 2
                d = {}
                for k, poly in ch.family.items():
                    d[k] = poly.eval(u)
                d[case.flag] = d.get(case.flag, Q(0)) - v
                p1, n1 = surface_zariski(lat, d)
                p2, n2 = surface_zariski(perm_lat, d)
                assert p1 == p2 and n1 == n2
                for c in n1:
                    assert pairing(lat, p1, c) == 0
                sym_p = {k: toric_surfaces.value(t, u, v) for k, t in
                         toric_surfaces.chamber_forms(sub).positive.items()}
                assert {k: x for k, x in sym_p.items() if x} == \
                    {k: x for k, x in p1.items() if x}

    # Volume continuity across all bundled flops.
    for name in ("a1-volume", "a2-volume", "a2-volume-resolution"):
        vol = volume_fixture(name).volume()
        for a, b in zip(vol.pieces, vol.pieces[1:]):
            x = a.interval.hi
            assert a.poly.eval(x) == b.poly.eval(x)
    _done(11, "500-sample integral properties, Zariski orthogonality/"
              "permutation invariance, and flop continuity all hold")
