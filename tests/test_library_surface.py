"""The library keeps only what it runs.

Every public module-level ``def``, ``class`` or assignment in
``src/kstab``, and every public method of a class there, must be named
somewhere in ``src/`` outside its own definition: as a name read in
code, as an attribute, or as a string constant (so a ``getattr``
dispatch over a tuple of names counts).  A helper that only tests call
belongs in ``tests/``, next to the tests that use it as an oracle.  The
exceptions are the names the benchmark's tracer pins: the spans of
``test_benchmark_names.RUN_PY_SPANS`` and the methods of
``perfbench/layertrace.py``'s ``METHODS``, read as
``test_benchmark_names`` reads that file.  Deleting one of those is a
change to the benchmark.
"""

import ast
from collections import Counter
from pathlib import Path

from test_benchmark_names import LT, RUN_PY_SPANS

SRC = Path(__file__).resolve().parents[1] / "src" / "kstab"


def _uses(node) -> Counter:
    """The names ``node`` reads: loaded names, attributes and strings."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out[n.value] += 1
    return out


def _defined(stmt) -> list[str]:
    """The public names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                        ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [n for n in names if not n.startswith("_")]


def _parsed() -> tuple[dict, Counter]:
    """Each module's tree, by module name, and the names all of
    ``src/kstab`` reads."""
    modules = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    return modules, sum((_uses(tree) for tree in modules.values()),
                        Counter())


def unused_public_names() -> list[str]:
    """``module.name`` for each public definition that nothing else in
    ``src/kstab`` names."""
    modules, total = _parsed()
    pinned = set(RUN_PY_SPANS)
    unused = []
    for mname, tree in sorted(modules.items()):
        for stmt in tree.body:
            own = _uses(stmt)
            for name in _defined(stmt):
                if total[name] - own[name] == 0 and \
                        f"{mname}.{name}" not in pinned:
                    unused.append(f"{mname}.{name}")
    return unused


def unused_public_methods() -> list[str]:
    """``module.Class.method`` for each public method, pinned or not,
    that nothing in ``src/kstab`` outside its own body names."""
    modules, total = _parsed()
    unused = []
    for mname, tree in sorted(modules.items()):
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for meth in cls.body:
                if isinstance(meth, ast.FunctionDef) and \
                        not meth.name.startswith("_") and \
                        total[meth.name] == _uses(meth)[meth.name]:
                    unused.append(f"{mname}.{cls.name}.{meth.name}")
    return unused


def test_every_public_name_is_used_in_src():
    assert unused_public_names() == []


def test_every_public_method_is_used_in_src():
    pinned = {f"{qual}.{meth}" for qual, methods in LT.METHODS.items()
              for meth in methods}
    assert [m for m in unused_public_methods() if m not in pinned] == []
