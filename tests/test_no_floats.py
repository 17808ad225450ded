"""Aim 1's "no floats in the core", checked on the source.

Every value in kstab is an int or a Fraction.  An integer kernel where
``/`` slips in for ``//`` gives a float that ``==`` against a Fraction may
still accept, so the source itself is read: no float literal, no use of
the name ``float`` and no floating-point ``math`` function.
"""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "kstab")
             .glob("*.py"))
FLOAT_MATH = frozenset({"sqrt", "exp", "log", "pow", "fsum"})


def float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"line {node.lineno}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"line {node.lineno}: the name float")
        elif (isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH
              and isinstance(node.value, ast.Name)
              and node.value.id == "math"):
            found.append(f"line {node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"line {node.lineno}: from math import {a.name}"
                      for a in node.names if a.name in FLOAT_MATH]
    return found


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_core_has_no_floats(path):
    assert float_uses(ast.parse(path.read_text())) == []


def test_the_check_sees_each_kind():
    source = ("x = 0.5\ny = float(1)\nimport math\nz = math.sqrt(2)\n"
              "from math import fsum\n")
    assert len(float_uses(ast.parse(source))) == 4
