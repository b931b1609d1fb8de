import ast
from pathlib import Path

import membranes


def test_every_private_definition_is_named_elsewhere():
    # A private function or class that no other line of the package names has no caller.
    src = Path(membranes.__file__).parent
    defined, named = [], set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append((node.name, f"{path.name}:{node.lineno}"))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    assert [f"{where}: {name}" for name, where in defined if name not in named] == []
