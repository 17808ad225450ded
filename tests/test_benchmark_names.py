"""The kstab names that the benchmark's tracer wraps or counts by name.

``perfbench/layertrace.py`` wraps kstab functions from outside the
package, and ``perfbench/run.py`` sums their calls into per-layer
metrics.  A renamed function would not fail the benchmark: its counter
would silently read 0.  This test reads the tracer's tables (the file is
only read, never imported as a module, so no bytecode is written beside
it) and checks that every name in them still resolves.
"""

import importlib
import inspect
import types
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"

# Spans that perfbench/run.py sums into its per-layer call counts.
RUN_PY_SPANS = (
    "_linalg.solve", "_linalg.det", "_linalg.rank",
    "toric.intersection_product", "toric.intersection_form",
    "toric.triple_intersection_distinct", "toric.polytope_barycenter",
    "toric.parse_model", "exactcore.definite_integral",
    "exactcore.double_integral", "exactcore.piecewise_integral",
    "exactcore.interpolate", "zariski.parametric_surface_zariski",
    "zariski.surface_zariski", "zariski.threefold_chamber_volume",
    "functionals.s_flag_surface_report", "functionals.s_flag_point",
    "functionals.f_q_term", "invariants.invariant_dimension",
    "invariants.peano_invariants", "runner.load_fixture",
)


def _layertrace():
    module = types.ModuleType("layertrace")
    code = compile(LAYERTRACE.read_text(), str(LAYERTRACE), "exec")
    exec(code, module.__dict__)
    return module


def _resolve(qualname: str):
    """Follow ``module.attr...`` the way the tracer does: an attribute of
    a class must be defined on that class itself."""
    mname, *path = qualname.split(".")
    obj = importlib.import_module(f"kstab.{mname}")
    for part in path:
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def _spanned(lt) -> set[str]:
    """The span names the tracer gives: public functions defined in each
    module, plus the listed methods under their module's name."""
    names = set()
    for mname in lt.MODULES:
        mod = importlib.import_module(f"kstab.{mname}")
        for fname, fn in inspect.getmembers(mod, inspect.isfunction):
            if not fname.startswith("_") and fn.__module__ == mod.__name__:
                names.add(f"{mname}.{fname}")
    for qual, methods in lt.METHODS.items():
        cls = _resolve(qual)
        for meth in methods:
            assert callable(vars(cls)[meth]), f"{qual}.{meth}"
            names.add(f"{qual.split('.')[0]}.{meth}")
    return names


LT = _layertrace()


@pytest.mark.parametrize("qualname", sorted(LT.COUNTED))
def test_counted_internals_resolve(qualname):
    assert callable(_resolve(qualname))


@pytest.mark.parametrize("qualname", sorted(
    set(LT.SPLIT_SOURCES) | set(LT.OUTCOMES) | {LT.ITEM_ENTRY}
    | set(RUN_PY_SPANS)))
def test_traced_names_are_spanned(qualname):
    assert qualname in _spanned(LT) or qualname in LT.COUNTED


def test_split_request_keeps_its_name():
    # The tracer counts a split by the exception's class name.
    assert _resolve("zariski._SplitRequest").__name__ == "_SplitRequest"
