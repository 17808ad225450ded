"""Dense Fraction pairings on a surface lattice, for tests.

``kstab.zariski`` pairs on integers: the scan reads the lattice's sparse
integer Gram rows over one denominator, and the flag order term squares a
family through the same kernel.  The oracles here sum the lattice's
Fraction ``gram`` table densely, so tests can check the integer kernels
against the plain definition: ``pairing`` is a divisor's intersection
with one basis curve, ``dot`` the intersection of two divisors.  Both
take Fraction or Poly coefficients, and an unknown curve raises
``ZariskiError`` through ``SurfaceLattice.index``.
"""

from fractions import Fraction

from kstab.zariski import SurfaceLattice


def pairing(lat: SurfaceLattice, d: dict, name: str):
    """Intersection of a divisor (coefficient map) with a basis curve,
    the sum of c * (k . name) over ``d``.

    Coefficients may be Fractions or parameter polynomials.
    """
    j = lat.index(name)
    return sum((c * lat.gram[lat.index(k)][j] for k, c in d.items()),
               Fraction(0))


def dot(lat: SurfaceLattice, d1: dict, d2: dict):
    """Intersection of two divisors: sum of c1 * (d2 . k1) over d1."""
    for k in d2:
        lat.index(k)  # an unknown curve raises, even with d1 empty
    return sum((c * pairing(lat, d2, k) for k, c in d1.items()),
               Fraction(0))
