"""Rules about the package source itself."""

import ast
import builtins
import os
import subprocess
import sys
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


# methods that change a dict or a list in place
_MUTATORS = {"clear", "pop", "popitem", "setdefault", "update",
             "append", "extend", "insert", "remove", "reverse", "sort"}


def _root(node):
    """``node`` without its subscripts, and ``fields(x, ...)`` as ``x``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "fields" and node.args):
        node = node.args[0]
    return node


def _is_payload(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "payload"


def test_no_code_mutates_a_payload():
    # the bus hashes a payload shared by consecutive envelopes once, so no
    # code changes a delivered payload or a part of it, whether through
    # env.payload or through a name that a function bound to it
    found = set()
    for where, node in _nodes():
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        file = where.split(":")[0]
        bound = {
            name.id for n in ast.walk(node)
            if isinstance(n, ast.Assign) and _is_payload(_root(n.value))
            for target in n.targets
            for name in (target.elts if isinstance(target, ast.Tuple)
                         else [target])
            if isinstance(name, ast.Name)
        }

        def is_payload(expr):
            expr = _root(expr)
            return (_is_payload(expr)
                    or isinstance(expr, ast.Name) and expr.id in bound)

        for n in ast.walk(node):
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
                hit = n.func.attr in _MUTATORS and is_payload(n.func.value)
            elif isinstance(n, (ast.Assign, ast.Delete)):
                hit = any(isinstance(t, ast.Subscript) and is_payload(t)
                          for t in n.targets)
            elif isinstance(n, ast.AugAssign):
                hit = is_payload(n.target)
            else:
                continue
            if hit:
                found.add(f"{file}:{n.lineno}")
    assert found == set(), sorted(found)


def _is_decode_call(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "decode")


def test_no_unchecked_decoded_subscripts():
    # a decoded value is outside input like a payload: it is read through
    # encoding.fields, never subscripted, whether directly or by a name
    # that a function bound to it
    found = set()
    for where, node in _nodes():
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        file = where.split(":")[0]
        decoded = {
            target.id for n in ast.walk(node)
            if isinstance(n, ast.Assign) and _is_decode_call(n.value)
            for target in n.targets if isinstance(target, ast.Name)
        }
        found |= {
            f"{file}:{n.lineno}" for n in ast.walk(node)
            if isinstance(n, ast.Subscript) and (
                _is_decode_call(n.value)
                or isinstance(n.value, ast.Name) and n.value.id in decoded)
        }
    assert found == set(), sorted(found)


def _mentions(node, names) -> bool:
    return ((isinstance(node, ast.Attribute) and node.attr in names)
            or (isinstance(node, ast.Name) and node.id in names)
            or (isinstance(node, ast.alias) and node.name in names))


def _imported_packages(node) -> set[str]:
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.module:
        return {node.module.split(".")[0]}
    return set()


def test_one_openssl_key_adapter():
    # every native key and cipher context is built in crypto/group.py,
    # the keys behind one key cache, and only that module loads libcrypto
    # and calls it
    names = {"EC_KEY_new_by_curve_name", "ECDSA_do_verify", "ECDSA_SIG_new",
             "EVP_CIPHER_CTX_new", "EVP_aes_128_gcm", "EVP_aes_128_ecb",
             "CDLL", "_lib"}
    found = [
        where for where, node in _nodes() if _mentions(node, names)
        or "ctypes" in _imported_packages(node)
    ]
    assert found and all(w.startswith("crypto/group.py:") for w in found), found
    assert not any(_mentions(node, {"derive_private_key", "exchange"})
                   for _, node in _nodes())
    assert _undeclared_native_calls(ROOT / "crypto" / "group.py") == set()


def test_no_module_imports_cryptography():
    # libcrypto through crypto/group.py is the one crypto backend; the
    # cryptography package is a test-side oracle only
    found = [where for where, node in _nodes()
             if "cryptography" in _imported_packages(node)]
    assert found == [], found


def _undeclared_native_calls(path: Path) -> set[str]:
    """Each ``_lib.<name>`` of ``path`` that is not a key of its
    ``_SIGNATURES`` table, which sets every native function's argtypes
    and restype; an undeclared call returns a C int, which truncates a
    64-bit pointer."""
    tree = ast.parse(path.read_text(), str(path))
    (table,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["_SIGNATURES"]]
    declared = {key.value for key in table.keys}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "_lib"} - declared


def test_an_undeclared_native_call_breaks_the_adapter_rule(tmp_path):
    # the rule above sees a call that its signature table does not declare
    source = (ROOT / "crypto" / "group.py").read_text()
    anchor = "\n_local = threading.local()\n"
    assert anchor in source
    planted = tmp_path / "group.py"
    planted.write_text(source.replace(
        anchor, "\n_lib.EC_POINT_is_at_infinity(_GROUP, None)" + anchor))
    assert _undeclared_native_calls(planted) == {"EC_POINT_is_at_infinity"}


def _python(code: str, timeout: float = 60) -> str:
    """The stdout of ``code`` run in a fresh interpreter that imports this
    package."""
    pythonpath = os.pathsep.join(
        filter(None, [str(ROOT.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": pythonpath},
    ).stdout


def test_start_up_loads_no_subprocess_machinery():
    # ctypes.util.find_library would import subprocess and run ldconfig on
    # every start-up; the adapter reaches libcrypto through hashlib instead,
    # and it loads no second OpenSSL (the one linked into cryptography)
    out = _python(
        "import sys, scms.harness; print(sorted(name for name in sys.modules"
        " if name in {'subprocess', 'ctypes.util'}"
        " or name.split('.')[0] == 'cryptography'))")
    assert out.strip() == "[]"


def test_a_run_needs_no_cryptography_package():
    # with the package unimportable, a scenario replays to its digest
    scenario = ROOT.parent.parent / "scenarios" / "revocation_demo.json"
    out = _python(
        "import sys; sys.modules['cryptography'] = None\n"
        "from scms.harness import ScenarioConfig, run_scenario\n"
        f"config = ScenarioConfig.from_json(open({str(scenario)!r}).read())\n"
        "print(run_scenario(config).trace_digest[:16])", timeout=300)
    assert out.strip() == "fd6dbf1d1ff0a145"


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
# of bytes or text, so no entry can go stale: no layer keeps a verdict that
# later trust or CRL state could change. Above the crypto layer, the memos
# are the certificate and CRL decoders, the checks of a BSM's bytes and the
# encodings of the strings of an envelope.
MEMOS = {
    "bus.py:_text",
    "certmodel.py:_decode_certificate",
    "certmodel.py:_decode_crl",
    "crypto/group.py:backend_public",
    "crypto/signing.py:backend_verify",
    "device.py:_signed_bsm",
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
