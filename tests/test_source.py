"""Source-level rules for the package itself."""

import ast
from pathlib import Path

import frieze_mod

SRC = Path(frieze_mod.__file__).parent


def test_no_assert_in_library_code():
    # python -O strips assert statements, so none may carry a check
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
