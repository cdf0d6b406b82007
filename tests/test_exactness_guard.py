"""No statement of the package can bring floating point into a verdict,
and no code in it is reached by tests alone.

Every exact check raises rather than asserts (``python -O`` strips
asserts), and no source file holds a float literal or calls ``float``,
``round``, ``math.sqrt``, ``math.log`` or ``math.exp``.  Report columns
that show a decimal are rendered from integers.  Every function, class
and non-dunder method is named by the package, by a script in
``perfbench/`` or ``benchmarks/`` or by the README's Python API block,
and every module reads each name it imports.
"""

import ast
from pathlib import Path

from test_readme import python_api_block

import torifan

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(Path(torifan.__file__).parent.glob("*.py"))
SCRIPTS = [*ROOT.glob("perfbench/*.py"), *ROOT.glob("benchmarks/*.py")]
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


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def pieces(tree):
    """``(owner, node)`` per top-level statement, a class split into its
    parts: the owner is the qualified name of the function, class or method
    the node defines or belongs to; dunders own nothing."""

    def owns(node):
        defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        return isinstance(node, defs) and not node.name.endswith("__")

    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or not owns(node):
            yield node.name if owns(node) else None, node
            continue
        for item in (*node.bases, *node.keywords, *node.decorator_list, *node.body):
            yield f"{node.name}.{item.name}" if owns(item) else node.name, item


def references(nodes, strings=False):
    """``(names, attributes)`` read: ``ast.Name`` ids and ``ImportFrom``
    aliases, and ``ast.Attribute`` attrs; with ``strings``, string constants
    count as names, as a script may reach a function by its name."""
    names, attributes = set(), set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and type(node.value) is str:
            names.add(node.value)
    return names, attributes


def unnamed(sources, outside):
    """``module.qualified name`` per definition in ``sources``, pairs of a
    module name and its AST, that nothing names.

    ``outside`` holds the ``(names, attributes)`` read outside the package.
    A method is named by an attribute only, anything else by either.  Its
    own body names nothing, nor does an unnamed definition, so the unnamed
    set grows to a fixed point."""
    reads = [
        (f"{module}.{owner}" if owner else None, *references([node]))
        for module, tree in sources
        for owner, node in pieces(tree)
    ]
    defs = list(dict.fromkeys(owner for owner, _, _ in reads if owner))
    dead = set()
    while True:
        found = {
            d
            for d in defs
            if not any(
                d.split(".")[-1] in (attrs if d.count(".") > 1 else names | attrs)
                for owner, names, attrs in [(None, *outside), *reads]
                if owner != d and owner not in dead
            )
        }
        if found == dead:
            return [d for d in defs if d in dead]
        dead = found


def unused_imports(tree):
    """``(line, name)`` per imported name that the module never reads."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        (node.lineno, bound)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if (bound := alias.asname or alias.name.split(".")[0]) not in read
    ]


def test_the_usage_guard_sees_each_form():
    code = ast.parse(
        "import os\nfrom math import gcd, lcm as l\ndef f(): return g.used + l\n"
        "def used(): pass\ndef unused(): helper()\ndef helper(): pass\n"
        "def loop(): loop()\nclass C:\n    def __eq__(self, o): pass\n"
        "    def used(self): pass\n    def f(self): pass\nf()\n"
    )
    expected = ["m.unused", "m.helper", "m.loop", "m.C", "m.C.f"]
    assert unnamed([("m", code)], (set(), set())) == expected
    assert unused_imports(code) == [(1, "os"), (2, "gcd")]
    strings = references([ast.parse("x = ('unused', 'C', 'used')")], strings=True)
    assert unnamed([("m", code)], strings) == ["m.loop", "m.C.f"]


def test_every_definition_has_a_caller_outside_the_tests():
    names, attributes = references(map(_parse, SCRIPTS), strings=True)
    api_names, api_attributes = references([ast.parse(python_api_block())])
    assert len(SCRIPTS) > 5 and "hirzebruch_one" in api_attributes
    outside = (names | api_names, attributes | api_attributes)
    sources = [(path.stem, _parse(path)) for path in SOURCES]
    assert unnamed(sources, outside) == []


def test_every_import_is_read():
    found = [
        f"{path.name}:{line}: {name}"
        for path in SOURCES
        if path.name != "__init__.py"  # it imports what it exports
        for line, name in unused_imports(_parse(path))
    ]
    assert found == []
