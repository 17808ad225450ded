"""Machine-speed references for the kstab benchmark.

The benchmark runs on shared machines whose speed drifts by up to 1.8x
over minutes, slowly enough that a whole run can sit in a slow phase.  So
run.py times two fixed references next to its own measurements and
reports each time scaled to a fixed machine speed:

- ``fraction_probe`` repeats exact rational elimination, the kind of
  work kstab does, in the benchmark process.  Pass times and
  layer self times are scaled by ``FRACTION_PROBE_S`` over its time.
- A bare interpreter start (``python -c pass``) is a fresh process like
  a cold set-up; set-up times are scaled by ``BARE_START_S`` over its
  time.

Neither reference runs kstab code, so a change to kstab moves the scaled
times in the same proportion as the raw ones.  The two constants are
round figures for the references' times on the 2-core Xeon VM that
defined this benchmark, in its faster phases.  They and this module's
code are part of the benchmark's definition: changing either rescales
every reported time.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

FRACTION_PROBE_S = 0.015
BARE_START_S = 0.045


def _eliminate(rng: random.Random, n: int) -> Fraction:
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
         for _ in range(n)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[c], m[pivot] = m[pivot], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return sum(row[-1] for row in m)


def fraction_probe() -> float:
    """Seconds taken by a fixed batch of 7x7 rational eliminations."""
    rng = random.Random(12345)
    t0 = time.perf_counter()
    for _ in range(12):
        _eliminate(rng, 7)
    return time.perf_counter() - t0
