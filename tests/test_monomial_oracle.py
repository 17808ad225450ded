"""The integer monomial table against an independent oracle.

The Chow ring of a complete simplicial toric variety is
Q[x_0..x_{n-1}] modulo the Stanley-Reisner ideal and the ``dim`` linear
relations sum_k <e_a, v_k> x_k (Fulton, Introduction to Toric Varieties,
Sec. 5.2).  Its degree-``dim`` part is one-dimensional, so the grevlex
normal form of every degree-``dim`` monomial is a rational multiple of one
standard monomial; a maximal cone's product, 1/|det|, fixes the scale.
Nothing here calls the recursion in ``kstab.toric``.
"""

import itertools
from fractions import Fraction as Q

import pytest

sp = pytest.importorskip("sympy")

from kstab.runner import _fixture_root, model  # noqa: E402

MODELS = sorted(p.name[:-len(".json")]
                for p in (_fixture_root() / "models").iterdir()
                if p.name.endswith(".json"))


def chow_ring_products(rays, max_cones):
    """{sorted multiset: intersection number} for every degree-dim
    monomial, from Groebner normal forms alone."""
    n, dim = len(rays), len(rays[0])
    xs = sp.symbols(f"x0:{n}")
    cones = [set(c) for c in max_cones]
    # Every minimal non-face of a simplicial fan has at most dim + 1 rays.
    ideal = [sp.Mul(*(xs[i] for i in s))
             for size in range(2, dim + 2)
             for s in itertools.combinations(range(n), size)
             if not any(set(s) <= c for c in cones)]
    ideal += [sum(v[a] * x for v, x in zip(rays, xs)) for a in range(dim)]
    basis = sp.groebner(ideal, *xs, order="grevlex")

    def normal_form(ms):
        return basis.reduce(sp.Mul(*(xs[i] for i in ms)))[1]

    cone = sorted(max_cones[0])
    unit = normal_form(cone)
    det = abs(sp.Matrix([rays[i] for i in cone]).det())
    out = {}
    for ms in itertools.combinations_with_replacement(range(n), dim):
        ratio = normal_form(ms) / unit
        assert ratio.is_Rational, (ms, ratio)
        out[ms] = Q(int(ratio.p), int(ratio.q) * int(det))
    return out


@pytest.mark.parametrize("name", MODELS)
def test_monomial_table_matches_the_chow_ring(name):
    m = model(name)
    want = chow_ring_products(m.rays, [tuple(c) for c in m.max_cones])
    for ms, value in want.items():
        got = m._monomial(ms)
        assert type(got) is int, (name, ms)
        assert Q(got, m._scale) == value, (name, ms)
