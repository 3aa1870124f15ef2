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
