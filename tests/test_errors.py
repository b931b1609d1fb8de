import ast
from pathlib import Path

from membranes import errors
from membranes.errors import InvalidInput, MembraneError

OWN = {
    name: obj
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == errors.__name__
}
OUTCOMES = {"AsymptoticMismatch", "NoRegionFound", "OrderingViolation", "TwoRayViolation",
            "NotConverged", "EmptyFreeBoundary", "NotRegular", "ScenarioError"}


def test_every_raise_names_a_package_error():
    # A bare ``raise`` re-raises and names nothing.
    src = Path(errors.__file__).parent
    foreign = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if ast.unparse(exc) not in OWN:
                    foreign.append(f"{path.name}:{node.lineno}: raise {ast.unparse(exc)}")
    assert foreign == []


def test_input_and_outcome_families():
    for name, cls in OWN.items():
        if name in ("MembraneError", "InvalidInput"):
            continue
        assert issubclass(cls, MembraneError)
        assert issubclass(cls, InvalidInput) == (name not in OUTCOMES), name
    assert issubclass(InvalidInput, ValueError)
