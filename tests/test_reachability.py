"""Guards: every public top-level function and class, and every public
method and property of a public class, serves the library; and every
imported name is read.

A public name that only tests call is a second code path that production
never exercises; delete it, or use it from the library.  An import that
nothing reads is left over from deleted code.
"""

import ast
import pathlib
from collections import Counter

import fracsteer

PACKAGE = pathlib.Path(fracsteer.__file__).parent
TESTS = pathlib.Path(__file__).parent
# public names kept although no library code references them, with the reason
ALLOWED = {
    "mild_residual": "the oracle of acceptance criterion 8 (mild-solution defect)",
}


def _public_definitions(tree):
    """(name, node) of each public top-level function and class, and of each
    public method and property of a public class, named ``Class.method``."""
    for stmt in tree.body:
        if (not isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                or stmt.name.startswith("_")):
            continue
        yield stmt.name, stmt
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{stmt.name}.{item.name}", item


def _references(node) -> Counter:
    """How often each name or attribute is spelled under ``node``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def _definitions_and_references():
    """Public definitions per module, and those referenced outside their own
    definition (``__init__`` re-exports do not count).  A method counts as
    referenced where any attribute of its name is read: the guard matches
    spelling, not types."""
    trees = [(path.name, ast.parse(path.read_text(), filename=str(path)))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    total = sum((_references(tree) for _, tree in trees), Counter())
    defined, referenced = {}, set()
    for module, tree in trees:
        for name, node in _public_definitions(tree):
            defined[name] = module
            spelled = name.rsplit(".", 1)[-1]
            if total[spelled] > _references(node)[spelled]:
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
