import random
from fractions import Fraction as Q

import pytest

from kstab.exactcore import (ContinuityWarning, InconsistentSamples, Interval,
                             InvertedBounds, MalformedInput, NotARational,
                             OverlappingPieces,
                             PiecewisePolynomial, Poly, definite_integral,
                             double_integral, interpolate, piecewise_integral,
                             rat, rat_str, sqrt_rat)

U = Poly.var("u")
V = Poly.var("v")


def rand_poly(rng, deg=4):
    coeffs = [Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(deg + 1)]
    return Poly.from_coeffs(coeffs)


def rand_rat(rng, lo=-6, hi=6):
    return Q(rng.randint(lo, hi), rng.randint(1, 6))


class TestRationals:
    def test_parse_and_print(self):
        assert rat("49/26") == Q(49, 26)
        assert rat_str(Q(49, 26)) == "49/26"
        assert rat_str(Q(4, 2)) == "2"
        assert rat(3) == 3

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_is_not_a_rational(self, value):
        with pytest.raises(NotARational):
            rat(value)

    def test_sqrt(self):
        assert sqrt_rat(Q(9, 4)) == Q(3, 2)
        assert sqrt_rat(Q(2)) is None
        assert sqrt_rat(Q(-1)) is None


class TestPoly:
    def test_arithmetic(self):
        p = (U + 1) * (U - 1)
        assert p == U ** 2 - 1
        assert p.eval(u=3, v=0) == 8

    @pytest.mark.parametrize("text", ["abc", "1", "u", ""])
    def test_a_string_is_never_equal(self, text):
        # == does not parse a string: it neither raises NotARational nor
        # equates a Poly with a str that hashes differently.
        assert U != text and Poly.const(1) != text
        assert text not in [U, Poly.const(1)]

    def test_zero_terms_dropped(self):
        p = U - U
        assert not p.terms
        assert p == 0

    @pytest.mark.parametrize("value", [0, 3, -2, Q(7, 3), Q(-1, 2)])
    def test_constant_hashes_like_its_value(self, value):
        c = Poly.const(value)
        assert c == value and hash(c) == hash(value)
        assert len({c, value, Q(value)}) == 1
        assert len({c, value + 1}) == 2


class TestDefiniteIntegral:
    def test_zero_integrand(self):
        assert definite_integral(Poly(), Interval(0, 5)) == 0

    def test_quartic_blowdown_piece(self):
        p = Poly.from_coeffs([28, 0, -24, 8])
        assert definite_integral(p, Interval(0, 1)) == 22

    def test_second_piece(self):
        p = Poly.from_coeffs([48, -48, 12])
        assert definite_integral(p, Interval(1, 2)) == 4

    def test_additivity_500(self):
        rng = random.Random(101)
        for _ in range(500):
            p = rand_poly(rng)
            ends = sorted(rand_rat(rng) for _ in range(3))
            a, b, c = ends
            whole = definite_integral(p, Interval(a, c))
            split = definite_integral(p, Interval(a, b)) + \
                definite_integral(p, Interval(b, c))
            assert whole == split

    def test_linearity_500(self):
        rng = random.Random(102)
        for _ in range(500):
            p, q = rand_poly(rng), rand_poly(rng)
            alpha, beta = rand_rat(rng), rand_rat(rng)
            iv = Interval(*sorted((rand_rat(rng), rand_rat(rng))))
            assert definite_integral(alpha * p + beta * q, iv) == \
                alpha * definite_integral(p, iv) + \
                beta * definite_integral(q, iv)


class TestPiecewise:
    def test_nodal_volume_pieces(self):
        pw = PiecewisePolynomial([
            (Interval(0, 1), Poly.from_coeffs([13, 0, 0, -1])),
            (Interval(1, 2), Poly.from_coeffs([12, 3, -3])),
            (Interval(2, 3), Poly.from_coeffs([0, 27, -18, 3])),
        ])
        assert piecewise_integral(pw) == Q(49, 2)

    def test_empty(self):
        assert piecewise_integral(PiecewisePolynomial([])) == 0

    def test_symmetric_pair_pieces(self):
        pw = PiecewisePolynomial([
            (Interval(0, 1), Poly.from_coeffs([26, 0, -36, 16])),
            (Interval(1, Q(3, 2)), Poly.from_coeffs([54, -72, 24])),
        ])
        assert piecewise_integral(pw) == 19

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingPieces):
            PiecewisePolynomial([
                (Interval(0, 2), Poly.const(1)),
                (Interval(1, 3), Poly.const(1)),
            ])

    def test_discontinuity_warns_not_raises(self):
        with pytest.warns(ContinuityWarning):
            pw = PiecewisePolynomial([
                (Interval(0, 1), Poly.const(1)),
                (Interval(1, 2), Poly.const(2)),
            ])
        assert piecewise_integral(pw) == 3

    def test_printed_misprint_pieces_warn(self):
        # The misprinted pieces are discontinuous; building them must warn.
        with pytest.warns(ContinuityWarning):
            PiecewisePolynomial([
                (Interval(0, 3), Poly.from_coeffs([13, 0, 0, Q(-1, 18)])),
                (Interval(3, 5), Poly.from_coeffs([13, 0, Q(-1, 2)])),
                (Interval(5, 6), Poly.from_coeffs([0, Q(3, 2), -8, Q(1, 2)])),
                (Interval(6, 9), Poly.from_coeffs([81, -27, 3, Q(-1, 9)])),
            ])


class TestDoubleIntegral:
    def test_triangle_area(self):
        assert double_integral(Poly.const(1), Poly(), U, Interval(0, 1)) == \
            Q(1, 2)

    def test_section_flag_inner_piece(self):
        f = 2 * (6 - 4 * U) * (U - V)
        assert double_integral(f, Poly(), U, Interval(0, 1)) == 1

    def test_hand_antidifferentiated(self):
        assert double_integral(U * U - V * V, Poly(), U, Interval(0, 1)) == \
            Q(1, 6)

    def test_inverted_bounds(self):
        with pytest.raises(InvertedBounds):
            double_integral(Poly.const(1), U, Poly(), Interval(0, 1))

    def test_inverted_bounds_at_interior_vertex(self):
        # The width 16u^2 - 8u + 1/2 is positive at 0, 1/2 and 1 but
        # dips to -1/2 at its vertex u = 1/4.
        hi = Poly.from_coeffs([Q(1, 2), -8, 16])
        with pytest.raises(InvertedBounds):
            double_integral(Poly.const(1), Poly(), hi, Interval(0, 1))

    def test_quadratic_width_touching_zero(self):
        # (2u - 1)^2 vanishes at its vertex but never goes negative.
        hi = Poly.from_coeffs([1, -4, 4])
        assert double_integral(Poly.const(1), Poly(), hi,
                               Interval(0, 1)) == Q(1, 3)

    def test_bounds_not_univariate(self):
        with pytest.raises(MalformedInput):
            double_integral(Poly.const(1), Poly(), U + V, Interval(0, 1))

    def test_cubic_width_is_refused(self):
        # u^3 + 1 is positive on [0, 1], but a width of degree 3 cannot
        # be certified by endpoint and vertex checks, so it is refused
        # rather than probed.
        with pytest.raises(MalformedInput, match="degree 3"):
            double_integral(Poly.const(1), Poly(), U ** 3 + 1,
                            Interval(0, 1))

    def test_zero_width_chamber(self):
        wall = Poly.affine(1, 1)
        assert double_integral(1 + U * V, wall, wall, Interval(0, 1)) == 0

    def test_point_outer_interval(self):
        assert double_integral(1 + V * V, Poly(), U,
                               Interval(Q(2, 3), Q(2, 3))) == 0

    def test_v_squared_between_slanted_walls(self):
        # int_0^1 ((1 - u/3)^3 - (u/2)^3) / 3 du
        #   = (3/4 (1 - (2/3)^4) - 1/32) / 3 = (65/108 - 1/32) / 3.
        lo, hi = Poly.affine(0, Q(1, 2)), Poly.affine(1, Q(-1, 3))
        assert double_integral(V * V, lo, hi, Interval(0, 1)) == \
            Q(493, 2592)

    def test_walls_crossing_at_one_end_only(self):
        # The width 1 - 2u is 1 at u = 0 and -1 at u = 1.
        with pytest.raises(InvertedBounds):
            double_integral(Poly.const(1), U, 1 - U, Interval(0, 1))

    def test_quadratic_width(self):
        # The width u^2 - u + 1 is at least 3/4; the integral of v is
        # int_0^2 ((u^2 + 1)^2 - u^2) / 2 du = (32/5 + 8/3 + 2) / 2.
        assert double_integral(V, U, U * U + 1, Interval(0, 2)) == \
            Q(83, 15)

    def test_fubini_500(self):
        rng = random.Random(103)
        for _ in range(500):
            f = Poly({(rng.randint(0, 2), rng.randint(0, 2)):
                      rand_rat(rng) for _ in range(4)})
            a, b = sorted((rand_rat(rng), rand_rat(rng)))
            c, d = sorted((rand_rat(rng), rand_rat(rng)))
            one = double_integral(f, Poly.const(c), Poly.const(d),
                                  Interval(a, b))
            swapped = Poly({(j, i): co for (i, j), co in f.terms.items()})
            other = double_integral(swapped, Poly.const(a), Poly.const(b),
                                    Interval(c, d))
            assert one == other


class TestInterpolate:
    def test_constant(self):
        assert interpolate([(0, 1), (1, 1)], 0) == Poly.const(1)

    def test_cubic_monomial(self):
        assert interpolate([(0, 0), (1, 1), (2, 8), (3, 27)], 3) == U ** 3

    def test_chamber_piece_reconstruction(self):
        piece = Poly.from_coeffs([13, 0, 0, -1])
        samples = [(x, piece.eval(u=x, v=0)) for x in (0, 1, 2, 3)]
        assert interpolate(samples, 3) == piece

    def test_inconsistent(self):
        with pytest.raises(InconsistentSamples):
            interpolate([(0, 1), (1, 2)], 0)

    def test_repeated_abscissae(self):
        with pytest.raises(MalformedInput):
            interpolate([(0, 1), (0, 1), (1, 2)], 1)

    def test_too_few_samples(self):
        with pytest.raises(MalformedInput):
            interpolate([(0, 1), (1, 2)], 2)

    def test_roundtrip_identity(self):
        rng = random.Random(104)
        for _ in range(50):
            deg = rng.randint(0, 5)
            p = rand_poly(rng, deg)
            xs = []
            while len(xs) < deg + 2:
                x = rand_rat(rng, -20, 20)
                if x not in xs:
                    xs.append(x)
            samples = [(x, p.eval(u=x, v=0)) for x in xs]
            assert interpolate(samples, deg) == p


class TestMalformedInput:
    def test_reversed_interval(self):
        with pytest.raises(MalformedInput, match="out of order"):
            Interval(1, 0)

    def test_definite_integral_not_univariate(self):
        with pytest.raises(MalformedInput):
            definite_integral(U * V, Interval(0, 1))

    def test_piece_not_univariate(self):
        with pytest.raises(MalformedInput):
            PiecewisePolynomial([(Interval(0, 1), U + V)])

    def test_unknown_variable(self):
        with pytest.raises(MalformedInput, match="unknown variable"):
            Poly.var("w")

    def test_negative_power(self):
        with pytest.raises(MalformedInput, match="negative powers"):
            U ** -1

    def test_coeffs_not_univariate(self):
        with pytest.raises(MalformedInput, match="not univariate"):
            (U * V).coeffs()

    def test_coefficient_string_is_not_a_list(self):
        # A string is a sequence, but "12" is not the list [1, 2].
        with pytest.raises(MalformedInput, match="must be a list"):
            Poly.from_coeffs("12")
        assert Poly.from_coeffs((1, 2)) == Poly.from_coeffs([1, 2])

    @pytest.mark.parametrize("entry", [
        "+2", " 3 ", "0.5", "1e2", "1_0", "-0", "-3/6", "007/014", "1/-2",
        "1/0", "1/00", "3/", "/3", "-", "", True, None, 2.5, Q(3, 4), 12])
    def test_coefficient_entries_read_as_rat_reads_them(self, entry):
        # The oracle is Fraction's own parser on a string and the value
        # itself for an int or a Fraction, not rat's direct reading of
        # plain "p" and "p/q" strings; None stands for NotARational.
        if isinstance(entry, str):
            try:
                want = Q(entry.strip())
            except (ValueError, ZeroDivisionError):
                want = None
        else:
            want = entry if type(entry) in (int, Q) else None
        if want is None:
            with pytest.raises(NotARational):
                rat(entry)
            with pytest.raises(NotARational):
                Poly.from_coeffs([1, entry])
        else:
            assert rat(entry) == want and type(rat(entry)) is Q
            assert Poly.from_coeffs([1, entry]) == Poly.const(1) + want * U

    def test_piecewise_eval_outside_domain(self):
        pw = PiecewisePolynomial([(Interval(0, 1), U)])
        assert pw.eval(1) == 1
        with pytest.raises(MalformedInput, match="outside"):
            pw.eval(2)
