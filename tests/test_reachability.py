"""Guards: every public top-level function and class serves the library,
and every imported name is read.

A public name that only tests call is a second code path that production
never exercises; delete it, or use it from the library.  An import that
nothing reads is left over from deleted code.
"""

import ast
import pathlib

import fracsteer

PACKAGE = pathlib.Path(fracsteer.__file__).parent
TESTS = pathlib.Path(__file__).parent
# public names kept although no library code references them, with the reason
ALLOWED = {
    "mild_residual": "the oracle of acceptance criterion 8 (mild-solution defect)",
}


def _definitions_and_references():
    """Public top-level defs per module, and every name referenced outside
    its own definition (``__init__`` re-exports do not count)."""
    defined, referenced = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if not own.startswith("_"):
                    defined[own] = path.name
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    referenced.add(name)
    return defined, referenced


def test_no_public_name_is_reachable_only_from_tests():
    defined, referenced = _definitions_and_references()
    unused = sorted(f"{module}: {name}" for name, module in defined.items()
                    if name not in referenced and name not in ALLOWED)
    assert unused == []
    # an allowlisted name that the library starts to use leaves the list
    assert all(name in defined and name not in referenced for name in ALLOWED)


def _unread_imports(path):
    """``file:line: name`` for each name the module imports and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # ``__init__`` imports to re-export
    paths = [p for p in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
             if p.name != "__init__.py"]
    assert [u for p in paths for u in _unread_imports(p)] == []
