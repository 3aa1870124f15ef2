import ast
from pathlib import Path

import btangent


def test_library_raises_no_bare_value_error():
    # argument checks raise InvalidArgumentError, which is still a ValueError
    # but also a BTangentError, so the CLI reports it as "error:" with exit 1
    offenders = []
    for path in sorted(Path(btangent.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "ValueError"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_every_error_class_is_raised():
    # an error class no code raises documents a failure that cannot happen
    package = Path(btangent.__file__).parent
    errors = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert {"BTangentError", "InconsistentGluingError"} <= defined
    assert defined - raised == set()
