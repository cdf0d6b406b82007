"""No statement of the package can bring floating point into a verdict.

Every exact check raises rather than asserts (``python -O`` strips
asserts), and no source file holds a float literal or calls ``float``,
``round``, ``math.sqrt``, ``math.log`` or ``math.exp``.  Report columns
that show a decimal are rendered from integers.
"""

import ast
from pathlib import Path

import torifan

SOURCES = sorted(Path(torifan.__file__).parent.glob("*.py"))
BUILTINS = {"float", "round"}
MATH = {"sqrt", "log", "exp"}


def offences(tree):
    """``(line, what)`` for each forbidden node of a module's AST."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id in BUILTINS:
                yield node.lineno, f"call to {f.id}"
            elif (
                isinstance(f, ast.Attribute)
                and isinstance(f.value, ast.Name)
                and f.value.id == "math"
                and f.attr in MATH
            ):
                yield node.lineno, f"call to math.{f.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name in MATH:
                    yield node.lineno, f"import of math.{alias.name}"


def test_the_guard_sees_each_forbidden_form():
    code = (
        "import math\nfrom math import sqrt\nassert x\ny = 0.5\n"
        "float(1)\nround(2)\nmath.log(3)\nmath.exp(4)\n"
    )
    assert sorted(line for line, _ in offences(ast.parse(code))) == list(range(2, 9))


def test_no_assert_float_or_float_math_in_the_package():
    assert len(SOURCES) > 10
    found = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in offences(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
