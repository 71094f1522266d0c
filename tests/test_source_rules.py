"""Rules about the package source itself."""

import ast
import builtins
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


# Every memo in the package, by file and function. Each is a pure function
# of bytes, so no entry can go stale: no layer keeps a verdict that later
# trust or CRL state could change. The certificate decoder is the one memo
# above the crypto layer.
MEMOS = {
    "certmodel.py:_decode_certificate",
    "crypto/group.py:_affine",
    "crypto/group.py:backend_public",
    "crypto/prf.py:_cipher",
    "crypto/signing.py:backend_verify",
}


def test_every_memo_is_listed_and_bounded():
    bounds, constants = {}, set()  # memo -> its maxsize name, if a name
    for path in sorted(ROOT.rglob("*.py")):
        file = str(path.relative_to(ROOT))
        tree = ast.parse(path.read_text(), str(path))
        constants |= {
            f"{file}:{target.id}" for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            and type(node.value.value) is int for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            for d in node.decorator_list:
                if _decorator_name(d) in {"lru_cache", "cache"}:
                    size = ({k.arg: k.value for k in d.keywords}.get("maxsize")
                            if isinstance(d, ast.Call) else None)
                    bounds[f"{file}:{node.name}"] = (
                        f"{file}:{size.id}" if isinstance(size, ast.Name) else None)
    assert set(bounds) == MEMOS, set(bounds) ^ MEMOS
    # signature verdicts have exactly one
    assert sum(m.startswith("crypto/signing.py:") for m in bounds) == 1, bounds
    # each bounded by an integer constant of its own module, *_MEMO_SIZE
    unbounded = {memo: bound for memo, bound in bounds.items()
                 if bound is None or not bound.endswith("_MEMO_SIZE")
                 or bound not in constants}
    assert unbounded == {}, unbounded


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


def test_one_scenario_schema():
    # each scenario action and ballot kind is a row of harness.EVENTS or
    # harness.BALLOTS, so no code compares an event with one by name
    from scms.harness import BALLOTS, EVENTS

    rows = {*EVENTS, *BALLOTS}
    found = [
        where for where, node in _nodes()
        if isinstance(node, ast.Compare) and any(
            isinstance(side, ast.Constant) and side.value in rows
            for side in [node.left, *node.comparators])
    ]
    assert found == []


def test_one_place_declares_each_separation_class():
    # each content class's label is in one string constant of the package,
    # its declaration in harness.py, so no check can report a class beside
    # the SEPARATION table (docstrings emit nothing and are not counted)
    from scms.harness import SEPARATION

    labels = {content.label for row in SEPARATION.values() for content in row}
    nodes = list(_nodes())
    docstrings = {id(node.value) for _, node in nodes if isinstance(node, ast.Expr)}
    found = sorted(
        (label, where) for where, node in nodes
        if isinstance(node, ast.Constant) and type(node.value) is str
        and id(node) not in docstrings
        for label in labels if label in node.value
    )
    assert [label for label, _ in found] == sorted(labels), found
    assert all(where.startswith("harness.py:") for _, where in found), found


REPO = Path(__file__).resolve().parent.parent
# public names no run or CLI path calls yet, each with the ROADMAP item
# that gives it a caller or removes it
UNCALLED = {
    "Device.request_app_certs": "item 4",
    "Device.fetch_policy": "item 4",
    "Device.reenroll_reestablish": "item 4",
    "Device.rebootstrap": "item 4",
    "Ma.request_same_device": "item 4",
}


def _public_defs(body, prefix=""):
    for node in body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield prefix + node.name, node.name
        elif isinstance(node, ast.ClassDef):
            yield from _public_defs(node.body, f"{prefix}{node.name}.")


def test_every_public_function_has_a_caller():
    # src holds only what a run, the CLI or the benchmark calls: a public
    # function or method is named somewhere in src/scms or perfbench/ (a
    # bare builtin name such as open(...) is not; an import is not), or a
    # perfbench string names it exactly, as the tracer's targets do
    # ("Certificate.decode", "scalar_mult"). Handlers are reached through
    # the dispatcher, so on_* is exempt.
    defined, named, targets = [], set(), set()
    bench = sorted((REPO / "perfbench").rglob("*.py"))
    for path in sorted(ROOT.rglob("*.py")) + bench:
        tree = ast.parse(path.read_text(), str(path))
        if path.is_relative_to(ROOT):
            defined += _public_defs(tree.body)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id not in vars(builtins):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif (isinstance(node, ast.Constant) and type(node.value) is str
                  and not path.is_relative_to(ROOT)):
                targets.add(node.value)
    uncalled = {qualified for qualified, name in defined
                if not name.startswith("on_") and name not in named
                and qualified not in targets}
    assert uncalled == set(UNCALLED), uncalled ^ set(UNCALLED)


def _scoped_nodes():
    """(file, enclosing class and function names, node) for every node of
    the package."""
    def walk(node, names):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                yield from walk(child, names + (child.name,))
            else:
                yield names, child
                yield from walk(child, names)

    for path in sorted(ROOT.rglob("*.py")):
        for names, node in walk(ast.parse(path.read_text(), str(path)), ()):
            yield str(path.relative_to(ROOT)), names, node


def _is_registry(value) -> bool:
    if isinstance(value, ast.Call):
        value = value.func
    return (isinstance(value, ast.Name) and value.id in {"registry", "StoreRegistry"}
            or isinstance(value, ast.Attribute) and value.attr == "registry")


def test_stores_are_isolated_by_construction():
    # a component holds only the namespace its constructor creates, only
    # the post-run audits read across namespaces, and the one registry is
    # World.registry, so no component can reach another's records
    creates, views, holders = [], [], []
    for file, names, node in _scoped_nodes():
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "create":
                creates.append(f"{file}:{'.'.join(names)}")
            elif node.func.attr == "audit_view":
                views.append(file)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_registry(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            # an attribute set in a method belongs to the method's class
            holders += [f"{file}:{names[0]}.{t.attr}" for t in targets
                        if isinstance(t, ast.Attribute)]
    assert creates == ["authorities/base.py:Component.__init__"], creates
    assert views and set(views) == {"harness.py"}, views
    assert holders == ["harness.py:World.registry"], holders


def test_no_handler_catches_lookup_or_type_errors():
    # input is read through encoding.fields and the decoders, which raise
    # ParseError, so a KeyError, IndexError or TypeError is a bug to see,
    # not one to catch; the one catch is of the codec's documented
    # TypeError for a value it cannot encode
    names = {"KeyError", "IndexError", "LookupError", "TypeError"}
    found = []
    for file, scope, node in _scoped_nodes():
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = getattr(node.type, "elts", [node.type])
            found += [f"{file}:{'.'.join(scope)}:{name.id}" for name in caught
                      if isinstance(name, ast.Name) and name.id in names]
    assert found == ["harness.py:_check_inject:TypeError"], found


def test_vector_oracle_is_standalone():
    # the tests compare the package against scripts/make_vectors.py, so the
    # script must not reach the package by any import
    tree = ast.parse((REPO / "scripts" / "make_vectors.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert modules and all(m.split(".")[0] not in {"", "scms"} for m in modules), modules
