"""Rules about the package source itself."""

import ast
from pathlib import Path

import scms

ROOT = Path(scms.__file__).parent


def _nodes():
    for path in sorted(ROOT.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield f"{path.relative_to(ROOT)}:{getattr(node, 'lineno', 0)}", node


def test_no_assert_statements_in_package():
    # invariants are raised errors, so they survive python -O
    found = [where for where, node in _nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_one_message_dispatcher():
    # Component.handle is the only place that turns a type into a handler
    found = [
        where for where, node in _nodes()
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
        and isinstance(node.left, ast.Constant) and node.left.value == "on_"
    ]
    assert len(found) == 1 and found[0].startswith("authorities/base.py:"), found


def test_no_unchecked_payload_subscripts():
    # handlers read payloads through encoding.fields, never env.payload[...]
    found = [
        where for where, node in _nodes()
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "payload"
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "env"
    ]
    assert found == []
