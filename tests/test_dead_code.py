"""No dead code in src/: every function and method of qfbounds is
referenced by some code of the package, or exported by qfbounds.__all__.

References are read from the syntax trees of src/qfbounds/*.py: names,
attributes, and strings that spell an identifier (JSON_EXTRA names the
properties a report serializes).  Docstrings are not code, and neither
a function's references to itself nor those of dead functions count.
The check is static: a referenced function on a branch no input takes
is not found here.
"""

import ast
from collections import Counter
from pathlib import Path

import qfbounds

SRC = Path(__file__).resolve().parent.parent / "src" / "qfbounds"

# each entry is reached from outside the package's own code
EXEMPT = {
    # the report serializer the README's library example calls
    "pipeline.py:PipelineReport.json_str",
}


def _docstrings(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                out.add(id(body[0].value))
    return out


def _references(node, skip):
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and id(sub) not in skip:
            if sub.value.isidentifier():
                names[sub.value] += 1
    return names


def _definitions(tree):
    """(qualified name, short name, node) of every module-level function
    and every method."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((prefix + child.name, child.name, child))
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")

    walk(tree, "")
    return out


def unreferenced(src=SRC, exported=frozenset(qfbounds.__all__), exempt=EXEMPT):
    """module:qualname of every function or method that no live code
    references.  Code that only dead functions reference is dead too, so
    the references of each dead function are dropped and the search is
    repeated until nothing more is found."""
    live, candidates = Counter(), []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        skip = _docstrings(tree)
        live += _references(tree, skip)
        for qualname, short, node in _definitions(tree):
            found = "%s:%s" % (path.name, qualname)
            # dunder methods are called by the language, not by name
            if short.startswith("__") and short.endswith("__"):
                continue
            if short in exported or found in exempt:
                continue
            candidates.append((found, short, _references(node, skip)))
    dead = []
    while True:
        new = [c for c in candidates if c[0] not in dead and live[c[1]] == c[2][c[1]]]
        if not new:
            return dead
        for found, _, own in new:
            dead.append(found)
            live -= own


def test_every_function_is_referenced_or_exported():
    assert unreferenced() == []


def test_exemptions_are_still_needed():
    # an exemption whose function is gone, or is now referenced, goes too
    assert EXEMPT <= set(unreferenced(exempt=frozenset()))


def test_detects_an_unreferenced_function(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""only_in_docstring() is named here."""\n'
        "def live():\n    return 1\n\n"
        "def only_in_docstring():\n    return only_dead_callers()\n\n"
        "def only_dead_callers():\n    return live()\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "class C:\n    def method(self):\n        pass\n\n"
        "    def __repr__(self):\n        return 'C'\n\n"
        "VALUE = live()\n"
    )
    assert unreferenced(tmp_path, frozenset()) == [
        "mod.py:only_in_docstring",
        "mod.py:recursive",
        "mod.py:C.method",
        "mod.py:only_dead_callers",
    ]
