import ast
from pathlib import Path

import membranes

SRC = Path(membranes.__file__).parent

# Public names that only the unit tests call, each with its reason; at most five.
ALLOWED = {
    "energy": "the discrete Dirichlet energy, which the tests use to check that no sweep raises it",
}


def _names(node):
    """Every name ``node`` uses, as an ast Name or Attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_private_definition_is_named_elsewhere():
    # A private function or class that no other line of the package names has no caller.
    defined, named = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append((node.name, f"{path.name}:{node.lineno}"))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    assert [f"{where}: {name}" for name, where in defined if name not in named] == []


def test_every_public_definition_has_a_caller():
    # A public top-level function or class must be named by the package outside
    # its own definition, or by the acceptance suite; the package's exports
    # and the unit tests do not count.
    acceptance = _names(ast.parse((Path(__file__).parent / "test_acceptance.py").read_text()))
    statements = [
        (path.name, node, _names(node))
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text()).body
    ]
    orphans = []
    for module, node, _ in statements:
        if module == "__init__.py" or not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        elsewhere = set().union(*(names for _, other, names in statements if other is not node))
        if node.name not in elsewhere | acceptance:
            orphans.append((node.name, f"{module}:{node.lineno}"))
    assert len(ALLOWED) <= 5
    unexplained = [f"{where}: {name}" for name, where in orphans if name not in ALLOWED]
    stale = sorted(set(ALLOWED) - {name for name, _ in orphans})
    assert (unexplained, stale) == ([], [])
