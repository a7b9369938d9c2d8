"""The library holds no code that only tests use: checks and fixtures live
in tests/support.py."""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIBRARY = os.path.join(ROOT, "src", "mqsp")
# where a mention makes a caller; bench/spans.py names its targets as strings
CALLER_DIRS = (LIBRARY, os.path.join(ROOT, "scripts"), os.path.join(ROOT, "bench"))
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _parse_dir(directory):
    trees = {}
    for dirpath, _, files in os.walk(directory):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path) as handle:
                    trees[path] = ast.parse(handle.read(), path)
    return trees


def _definitions(trees):
    """{name: (path, first line, last line)} for every module-level function,
    class and assigned name, dunders skipped."""
    found = {}
    for path, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, ast.Assign):
                names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                names = [stmt.target.id]
            else:
                continue
            first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    found[name] = (path, first, stmt.end_lineno)
    return found


def _mentions(tree):
    """(word, line) for every Name, Attribute, import alias and identifier
    in a string other than a docstring."""
    docstrings = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            words = [node.id]
        elif isinstance(node, ast.Attribute):
            words = [node.attr]
        elif isinstance(node, ast.alias):
            words = node.name.split(".")
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            words = IDENTIFIER.findall(node.value)
        else:
            continue
        for word in words:
            yield word, node.lineno


def test_every_library_name_has_a_caller_outside_tests():
    trees = {}
    for directory in CALLER_DIRS:
        trees.update(_parse_dir(directory))
    definitions = _definitions({p: t for p, t in trees.items() if p.startswith(LIBRARY)})
    called = set()
    for path, tree in trees.items():
        for word, line in _mentions(tree):
            if word in definitions:
                where, first, last = definitions[word]
                if not (path == where and first <= line <= last):
                    called.add(word)
    uncalled = sorted(
        "%s.%s" % (os.path.basename(definitions[name][0])[:-3], name)
        for name in set(definitions) - called
    )
    assert uncalled == [], "only tests call these; move them to tests/support.py: %s" % uncalled
