"""kstab: exact-arithmetic K-stability computations.

A library and CLI that replays volume integrals, Zariski chamber
decompositions, toric intersection numbers, flag functionals, GIT weights
and invariant-ring dimensions as a machine-checked regression suite of
exact rational values.
"""

__version__ = "0.1.0"


class KstabError(Exception):
    """Base class of every error the library raises on bad input or an
    unprovable claim; the CLI reports these as exit code 2."""
