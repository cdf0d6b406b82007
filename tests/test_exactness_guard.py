"""No statement of the package can bring floating point into a verdict,
and no code in it is reached by tests alone.

Every exact check raises rather than asserts (``python -O`` strips
asserts), and no source file holds a float literal or calls ``float``,
``round``, ``math.sqrt``, ``math.log`` or ``math.exp``.  Report columns
that show a decimal are rendered from integers.  Every function, class
and non-dunder method is named by the package, by a script in
``perfbench/`` or ``benchmarks/`` or by the README's Python API block,
and every module reads each name it imports, none of them ``dataclasses``.
The AST cannot see where an operator is applied, so the package defines
no dunder but the three that construction and ``repr`` use.  ``Polytope``
is built only at the sites whose boundedness the ``ratgeom`` module
docstring proves.
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


# The dunders the package may define, all used by construction or repr.  An
# operator is applied where the AST cannot see it, so the usage guard above
# could not tell whether only tests apply one.
ALLOWED_DUNDERS = {"__init__", "__repr__", "__slots__"}


def dunders(tree):
    """``(line, name)`` per ``def``, or assignment in a class body, named by
    a dunder outside ``ALLOWED_DUNDERS``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            named = [(node.lineno, node.name)]
        elif isinstance(node, ast.ClassDef):
            named = [
                (item.lineno, target.id)
                for item in node.body
                if isinstance(item, (ast.Assign, ast.AnnAssign))
                for target in getattr(item, "targets", [getattr(item, "target", None)])
                if isinstance(target, ast.Name)
            ]
        else:
            continue
        for line, name in named:
            if name[:2] == name[-2:] == "__" and name not in ALLOWED_DUNDERS:
                yield line, name


def test_the_dunder_guard_sees_each_form():
    code = ast.parse(
        "__all__ = []\nclass C:\n    __slots__ = ()\n    def __init__(self): pass\n"
        "    def __add__(self, o): pass\n    __rmul__ = __mul__\n    x: int = 1\n"
        "    def __repr__(self): pass\n    def _f(self): pass\n"
    )
    assert sorted(dunders(code)) == [(5, "__add__"), (6, "__rmul__")]


def test_the_package_defines_no_operator():
    found = [
        f"{path.name}:{line}: {name}"
        for path in SOURCES
        for line, name in dunders(_parse(path))
    ]
    assert found == []


def test_every_import_is_read():
    found = [
        f"{path.name}:{line}: {name}"
        for path in SOURCES
        if path.name != "__init__.py"  # it imports what it exports
        for line, name in unused_imports(_parse(path))
    ]
    assert found == []


def imported_modules(tree):
    """The top-level package of each absolute ``import`` and ``from``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_the_package_never_imports_dataclasses():
    # it imports inspect, ast, dis and tokenize: several milliseconds of
    # every fresh process, more than the work of most commands
    code = ast.parse(
        "import os, dataclasses\ndef f():\n    from dataclasses import field\n"
    )
    assert list(imported_modules(code)) == ["os", "dataclasses", "dataclasses"]
    found = [
        path.name for path in SOURCES if "dataclasses" in imported_modules(_parse(path))
    ]
    assert found == []


# The sites that build a ``Polytope``, each proven bounded in the ratgeom
# module docstring; a new site fails here until its proof is written there.
PROVEN_POLYTOPE_SITES = [
    "ratgeom.affine_image",
    "ratgeom.truncate",
    "sweep.sweep_ample_cone",
    "toric.TDivisor.section_polytope",
]


def polytope_sites(sources):
    """``module.owner`` per call of ``Polytope`` or ``x.Polytope``, sorted."""
    return sorted(
        f"{module}.{owner}"
        for module, tree in sources
        for owner, top in pieces(tree)
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and "Polytope" in (getattr(node.func, a, None) for a in ("id", "attr"))
    )


def test_polytopes_are_built_only_at_the_proven_sites():
    code = ast.parse(
        "def f(): return ratgeom.Polytope(1, [])\n"
        "class C:\n    def g(self): return [Polytope(1, []), Polytope(2, [])]\n"
    )
    assert polytope_sites([("m", code)]) == ["m.C.g", "m.C.g", "m.f"]
    sources = [(path.stem, _parse(path)) for path in SOURCES]
    assert polytope_sites(sources) == PROVEN_POLYTOPE_SITES
