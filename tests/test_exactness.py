"""No floating point in the library: every asserted result is exact."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ternaryforms"


def float_uses(source: str):
    """(line, what) for each float literal (so also `** 0.5`), call of
    float( or round(, and use or import of math.sqrt in the source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("float", "round"):
            yield node.lineno, f"{node.func.id}("
        elif isinstance(node, ast.Attribute) and node.attr == "sqrt" and getattr(node.value, "id", None) == "math":
            yield node.lineno, "math.sqrt"
        elif isinstance(node, ast.ImportFrom) and node.module == "math" and "sqrt" in (a.name for a in node.names):
            yield node.lineno, "from math import sqrt"


def test_the_scan_sees_each_float_use():
    source = "import math\nfrom math import sqrt, isqrt\nx = 2 ** 0.5\ny = float(3)\nz = round(7, 1)\nw = math.sqrt(2)\n"
    assert sorted(float_uses(source)) == [
        (2, "from math import sqrt"),
        (3, "float literal 0.5"),
        (4, "float("),
        (5, "round("),
        (6, "math.sqrt"),
    ]
    assert list(float_uses("from math import isqrt\nq = isqrt(10) // 3\n")) == []


def test_the_library_uses_no_floats():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    found = [(path.name, *use) for path in modules for use in float_uses(path.read_text(encoding="utf-8"))]
    assert found == []
