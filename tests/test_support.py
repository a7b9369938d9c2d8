"""The library holds no code that only tests use: checks and fixtures live
in tests/support.py, and a class keeps no member that only tests call."""

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


def _names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        return []
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _span(stmt):
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    return first, stmt.end_lineno


def _definitions(trees):
    """[(qualified name, name, path, first line, last line)] for every
    module-level function, class and assigned name, and for every function
    in the body of a module-level class (methods, properties, classmethods);
    dunders are skipped, and so are class-body assignments such as dataclass
    fields, which are report data."""
    found = []
    for path, tree in trees.items():
        module = os.path.basename(path)[:-3]
        for stmt in tree.body:
            for name in _names(stmt):
                found.append(("%s.%s" % (module, name), name, path) + _span(stmt))
            if isinstance(stmt, ast.ClassDef):
                for member in stmt.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        for name in _names(member):
                            qualified = "%s.%s.%s" % (module, stmt.name, name)
                            found.append((qualified, name, path) + _span(member))
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
    """Every library name, class members included, is mentioned in src/mqsp,
    scripts/ or bench/ outside its own definition.

    The check goes by name, so a mention of the same word anywhere counts:
    it would not have flagged LaurentPoly2.constant, whose word is in
    factor2d's "verification failed: constant coefficient ..." message, nor
    FourierTable.coeff, since fejer_riesz calls LaurentPoly2.coeff."""
    trees = {}
    for directory in CALLER_DIRS:
        trees.update(_parse_dir(directory))
    definitions = _definitions({p: t for p, t in trees.items() if p.startswith(LIBRARY)})
    by_name = {}
    for definition in definitions:
        by_name.setdefault(definition[1], []).append(definition)
    called = set()
    for path, tree in trees.items():
        for word, line in _mentions(tree):
            for qualified, _, where, first, last in by_name.get(word, ()):
                if not (path == where and first <= line <= last):
                    called.add(qualified)
    uncalled = sorted({d[0] for d in definitions} - called)
    assert uncalled == [], "only tests call these; move them to tests/support.py: %s" % uncalled
