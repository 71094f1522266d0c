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


def test_components_are_built_in_one_step():
    # identity and settings go to the constructor, never to a later step
    found = [
        where for where, node in _nodes()
        if isinstance(node, ast.FunctionDef)
        and node.name in {"configure", "install_identity", "init_generator"}
    ]
    assert found == []


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


def test_one_openssl_key_adapter():
    # every backend key is built in crypto/group.py, behind one key cache
    names = {"derive_private_key", "from_encoded_point",
             "EllipticCurvePublicNumbers", "SECP256R1"}
    found = [
        where for where, node in _nodes()
        if (isinstance(node, ast.Attribute) and node.attr in names)
        or (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.alias) and node.name in names)
    ]
    assert found and all(w.startswith("crypto/group.py:") for w in found), found


def test_one_trust_model():
    # roots, known certificates and CRLs live in rootmgmt.TrustState only
    found = [
        f"{where.split(':')[0]}:{node.name}" for where, node in _nodes()
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == "root_trusted"
                for item in node.body)
    ]
    assert found == ["rootmgmt.py:TrustState"], found


def _decorator_name(node) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def test_memos_live_in_crypto():
    # a memo is a pure function of bytes in the crypto layer; no layer above
    # keeps a verdict that later trust or CRL state could make stale
    found = [
        where for where, node in _nodes()
        if isinstance(node, ast.FunctionDef)
        and any(_decorator_name(d) in {"lru_cache", "cache"}
                for d in node.decorator_list)
    ]
    assert found and all(w.startswith("crypto/") for w in found), found
    # and signature verdicts have exactly one
    assert sum(w.startswith("crypto/signing.py:") for w in found) == 1, found


def test_one_revocation_entry_type():
    # the CRL, the MA and the device's expansion share one linkage entry
    found = [
        f"{where.split(':')[0]}:{node.name}" for where, node in _nodes()
        if isinstance(node, ast.ClassDef)
        and {"ls1", "ls2"} <= {
            item.target.id for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        }
    ]
    assert found == ["linkage.py:LinkageRevocation"], found
