"""Property tests of the intersection expansion.

``ToricModel._expand`` sums, over every choice of one term per argument,
the integer monomial of the chosen rays times their coefficients, and
divides by L^dim once.  On every bundled model it must agree with the
reference written out below, which divides each monomial by L^dim as a
Fraction before it multiplies, for Fraction and affine Poly
coefficients, for every pattern of repeated arguments, and for equal
arguments passed as distinct dict objects or keyed by name.

On every bundled threefold model, the threefold verifier's integer facet
products w_k = P^2 . F_k and their volume sum_k P_k w_k must equal the
intersection form, and ``nef_check``'s integer signs must list exactly
the named curves, the Mori generators, with a negative
``pair_curve_divisor``.
"""

import itertools
from fractions import Fraction as Q

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from kstab.exactcore import Poly  # noqa: E402
from kstab.runner import _fixture_root, model  # noqa: E402

MODELS = sorted(p.name[:-len(".json")]
                for p in (_fixture_root() / "models").iterdir()
                if p.name.endswith(".json"))

# Which of the drawn divisors A, B, C fills each argument slot.
PATTERNS = {3: [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 2)],
            2: [(0, 0), (0, 1)]}

rationals = st.builds(Q, st.integers(-6, 6), st.integers(1, 4))
coefficients = st.one_of(
    rationals,
    st.lists(rationals, min_size=2, max_size=2).map(Poly.from_coeffs))

THREEFOLDS = [n for n in MODELS if model(n).dim == 3]

SETTINGS = settings(max_examples=40, deadline=None)


def ordered_expansion(m, divisors):
    """The reference: every ordered choice of one term per argument, each
    monomial read from the integer table over L^dim."""
    total = Q(0)
    for combo in itertools.product(
            *(m.normalize_divisor(d).items() for d in divisors)):
        term = Q(m._monomial(tuple(sorted(i for i, _ in combo))), m._scale)
        for _, c in combo:
            term = c * term
        total = term + total
    return total


@st.composite
def arguments(draw, m):
    """Arguments following one pattern of A, B, C.  With ``shared`` all
    three have A's support, so only their coefficients tell them apart;
    with ``copies`` every slot gets its own dict, and slots may key the
    same divisor by ray index or by ``F<i>`` name."""
    rays = range(len(m.rays))
    shared, copies = draw(st.booleans()), draw(st.booleans())
    keys = draw(st.lists(st.sampled_from(rays), min_size=1, unique=True))
    divs = []
    for _ in range(3):
        if not shared:
            keys = draw(st.lists(st.sampled_from(rays), min_size=1,
                                 unique=True))
        divs.append({k: draw(coefficients) for k in keys})
    pattern = draw(st.sampled_from(PATTERNS[m.dim]))
    args = []
    for slot in pattern:
        d = divs[slot]
        if copies:
            d = ({f"F{k}": c for k, c in d.items()} if draw(st.booleans())
                 else dict(d))
        args.append(d)
    return args


@pytest.mark.parametrize("name", MODELS)
def test_grouped_expansion_matches_ordered_expansion(name):
    m = model(name)

    @SETTINGS
    @given(arguments(m))
    def check(args):
        want = ordered_expansion(m, args)
        assert m._expand(args) == want
        assert m.intersection_form(*args) == want

    check()


@pytest.mark.parametrize("name", THREEFOLDS)
def test_integer_cube_matches_the_intersection_form(name):
    # The threefold verifier's cube of an affine P, sum_k P_k w_k from its
    # integer facet products w_k = P^2 . F_k over one scale, against the
    # Poly-valued intersection form; and each w_k, ray by ray.
    m = model(name)
    rays = range(len(m.rays))

    @SETTINGS
    @given(st.dictionaries(st.sampled_from(rays),
                           st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
                           min_size=1),
           st.integers(1, 6))
    def check(vec, den):
        p = {k: Poly.from_coeffs([Q(a, den), Q(b, den)])
             for k, (a, b) in vec.items()}
        w, scale = m.facet_products(den, vec, rays)
        cube = Poly.const(0)
        for k in rays:
            wk = Poly.from_coeffs([Q(c, scale) for c in w[k]])
            assert wk == Poly.const(m.intersection_form(p, p, {k: 1}))
            if k in p:
                cube = cube + p[k] * wk
        assert cube == Poly.const(m.intersection_form(p, p, p))

    check()


@pytest.mark.parametrize("name", THREEFOLDS)
def test_nef_check_reads_the_sign_of_each_curve_pairing(name):
    m = model(name)

    @SETTINGS
    @given(st.dictionaries(st.sampled_from(range(len(m.rays))),
                           st.one_of(st.integers(-9, 9), rationals)))
    def check(d):
        violated = [n for n in m.curve_specs
                    if m.pair_curve_divisor(n, d) < 0]
        assert m.nef_check(d) == (not violated, violated)

    check()
