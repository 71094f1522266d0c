"""Rules about the package source itself."""

import ast
from pathlib import Path

import scms


def test_no_assert_statements_in_package():
    # invariants are raised errors, so they survive python -O
    root = Path(scms.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
