"""In-memory span tracer that wraps the program's functions from outside.

The program imports functions by name (`from .crypto import verify`), so
a wrapper placed only on the defining module would miss most calls.
`Tracer.install` therefore replaces every attribute of every `scms.*`
module that is the original object, and wraps methods on the class that
defines them. After installing it checks that no reference to an
original is left.

A span is (name, parent span, start, end). Spans are kept in four flat
arrays in start order and are only summarised after the run: a span's
self time is its duration minus the durations of its direct children,
and a name's total time counts only spans with no ancestor of the same
name, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from array import array

# (defining module, attribute or Class.attribute, span name)
TARGETS = [
    ("scms.crypto.group", "mul_g", "crypto.mul_g"),
    ("scms.crypto.group", "scalar_mult", "crypto.scalar_mult"),
    ("scms.crypto.group", "GroupElement.__add__", "crypto.point_add"),
    ("scms.crypto.group", "GroupElement.decode", "crypto.point_decode"),
    ("scms.crypto.signing", "sign", "crypto.sign"),
    ("scms.crypto.signing", "verify", "crypto.verify"),
    ("scms.crypto.hybrid", "hybrid_encrypt", "crypto.hybrid_encrypt"),
    ("scms.crypto.hybrid", "hybrid_decrypt", "crypto.hybrid_decrypt"),
    ("scms.crypto.prf", "prf_blocks", "crypto.prf_blocks"),
    ("scms.butterfly", "cocoon_expand", "butterfly.cocoon_expand"),
    ("scms.butterfly", "butterfly_finalize", "butterfly.butterfly_finalize"),
    ("scms.butterfly", "reconstruct_private", "butterfly.reconstruct_private"),
    ("scms.butterfly", "cocoon_private", "butterfly.cocoon_private"),
    ("scms.linkage", "seed_at", "linkage.seed_at"),
    ("scms.linkage", "pre_linkage_values", "linkage.pre_linkage_values"),
    ("scms.linkage", "expand_revocation_entry",
     "linkage.expand_revocation_entry"),
    ("scms.certmodel", "Certificate.decode", "certmodel.Certificate.decode"),
    ("scms.certmodel", "Certificate.tbs_bytes",
     "certmodel.Certificate.tbs_bytes"),
    ("scms.certmodel", "Certificate.cert_id", "certmodel.Certificate.cert_id"),
    ("scms.certmodel", "SignedMessage.decode",
     "certmodel.SignedMessage.decode"),
    ("scms.certmodel", "sign_message", "certmodel.sign_message"),
    ("scms.certmodel", "verify_message", "certmodel.verify_message"),
    ("scms.certmodel", "verify_chain", "certmodel.verify_chain"),
    ("scms.certmodel", "crl_check", "certmodel.crl_check"),
    ("scms.certmodel", "check_crl_signature", "certmodel.check_crl_signature"),
    ("scms.certmodel", "decode_composite", "certmodel.decode_composite"),
    ("scms.encoding", "encode", "encoding.encode"),
    ("scms.encoding", "decode", "encoding.decode"),
    ("scms.persistence", "Namespace.put", "persistence.Namespace.put"),
    ("scms.persistence", "Namespace.scan", "persistence.Namespace.scan"),
    ("scms.persistence", "Namespace.first", "persistence.Namespace.first"),
    ("scms.persistence", "Namespace.where", "persistence.Namespace.where"),
    ("scms.bus", "Trace.record", "bus.Trace.record"),
    ("scms.misbehavior", "Ma.publish_crl", "misbehavior.Ma.publish_crl"),
    ("scms.device", "Device.validate_bsm", "device.validate_bsm"),
    ("scms.device", "DeviceCrlStore.revoked_lvs",
     "device.DeviceCrlStore.revoked_lvs"),
    ("scms.rootmgmt", "TrustState.process_ballot",
     "rootmgmt.TrustState.process_ballot"),
    ("scms.harness", "run_audits", "harness.run_audits"),
]

# message dispatchers; their spans are named per component and message type
HANDLERS = [
    ("scms.authorities.base", "Component.handle"),
    ("scms.authorities.lop", "Lop.handle"),
    ("scms.device", "Device.handle"),
]

SEND = ("scms.bus", "MessageBus.send", "bus.MessageBus.send")

# refusals an authority sends back; the proxy's relay is not counted again
DENIALS = {"provision.deny", "cert.reject", "ma.refused"}


def handler_span(component_id: str, mtype: str) -> str:
    """`<layer>.<component>.<mtype>`, keyed by component, never by device."""
    if component_id.startswith(("obe", "rse")):
        return f"device.{mtype}"
    if component_id == "ma":
        return f"misbehavior.ma.{mtype}"
    if component_id == "lop":
        return "authorities.lop." + ("fwd" if mtype == "lop.fwd" else "reply")
    component = "la" if component_id in ("la1", "la2") else component_id
    return f"authorities.{component}.{mtype}"


def _scms_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "scms" or name.startswith("scms."))]


def import_all() -> None:
    """Import every `scms` submodule, so that every binding exists before
    the sweep."""
    package = importlib.import_module("scms")
    for info in pkgutil.walk_packages(package.__path__, "scms."):
        importlib.import_module(info.name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("I")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.queue_max = 0
        self.denials = 0
        self.bindings: dict[str, int] = {}

    def reset(self) -> None:
        """Drop every span and count; call only outside any span."""
        for series in (self.name_of, self.parent, self.start, self.end):
            del series[:]
        self.queue_max = 0
        self.denials = 0

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _call(self, nid: int, fn, args, kwargs):
        index = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        nid = self._id(name)
        call = self._call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(nid, fn, args, kwargs)

        return traced

    def wrap_handler(self, fn):
        ids: dict[tuple[str, str], int] = {}
        call = self._call

        @functools.wraps(fn)
        def traced(component, env):
            key = (component.id, env.mtype)
            nid = ids.get(key)
            if nid is None:
                nid = ids[key] = self._id(handler_span(*key))
            return call(nid, fn, (component, env), {})

        return traced

    def wrap_send(self, fn, name: str):
        nid = self._id(name)
        call = self._call

        @functools.wraps(fn)
        def traced(bus, env):
            call(nid, fn, (bus, env), {})
            depth = len(bus._queue)
            if depth > self.queue_max:
                self.queue_max = depth
            if env.mtype in DENIALS and env.src != "lop":
                self.denials += 1

        return traced

    # --- installation ---

    def install(self) -> None:
        import_all()
        modules = _scms_modules()
        plan = [(m, a, lambda fn, s=s: self.wrap(fn, s)) for m, a, s in TARGETS]
        plan += [(m, a, self.wrap_handler) for m, a in HANDLERS]
        plan.append((SEND[0], SEND[1], lambda fn: self.wrap_send(fn, SEND[2])))
        originals = [self._install_one(modules, *step) for step in plan]
        self._check_complete(modules, originals)

    def _install_one(self, modules, module_name: str, attr: str, make):
        owner = sys.modules[module_name]
        if "." in attr:
            class_name, attr = attr.split(".")
            owner = getattr(owner, class_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            original = raw.__func__
            replacement = type(raw)(make(original))
        else:
            original, replacement = raw, make(raw)
        bound = 0
        # class members: the defining class and any alias inside it;
        # functions: every scms module that bound the object by name
        scopes = [owner] if isinstance(owner, type) else modules
        for scope in scopes:
            for name, value in list(vars(scope).items()):
                if value is raw:
                    setattr(scope, name, replacement)
                    bound += 1
        self.bindings[f"{owner.__name__}.{attr}"] = bound
        return raw, original

    @staticmethod
    def _check_complete(modules, originals) -> None:
        targets = {id(obj) for pair in originals for obj in pair}
        scopes = list(modules)
        for module in modules:
            scopes += [v for v in vars(module).values()
                       if isinstance(v, type) and v.__module__.startswith("scms")]
        for scope in scopes:
            for name, value in vars(scope).items():
                if id(value) in targets:
                    raise RuntimeError(
                        f"tracer left an unwrapped binding {scope.__name__}.{name}")

    # --- summary ---

    def summary(self, percentiles: tuple[str, ...] = ()) -> dict:
        """Per span name: calls, self_s, total_s; p50/p99 in microseconds
        for the names in `percentiles`; and counts of direct children by
        (parent name, child name)."""
        n = len(self.start)
        names, parent = self.name_of, self.parent
        durations = [e - s for s, e in zip(self.start, self.end)]
        child_time = [0.0] * n
        edges: dict[tuple[int, int], int] = {}
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_time[p] += durations[i]
                key = (names[p], names[i])
                edges[key] = edges.get(key, 0) + 1
        stats = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
                 for name in self.names}
        open_names = [0] * len(self.names)
        stack: list[int] = []
        wanted = {self._ids[name]: [] for name in percentiles
                  if name in self._ids}
        for i in range(n):
            while stack and stack[-1] != parent[i]:
                open_names[names[stack.pop()]] -= 1
            nid = names[i]
            entry = stats[self.names[nid]]
            entry["calls"] += 1
            entry["self_s"] += durations[i] - child_time[i]
            if open_names[nid] == 0:
                entry["total_s"] += durations[i]
            open_names[nid] += 1
            stack.append(i)
            if nid in wanted:
                wanted[nid].append(durations[i])
        for nid, values in wanted.items():
            values.sort()
            entry = stats[self.names[nid]]
            entry["p50_us"] = _rank(values, 0.50) * 1e6
            entry["p99_us"] = _rank(values, 0.99) * 1e6
        return {
            "spans": n,
            "stats": stats,
            "children": {f"{self.names[p]}>{self.names[c]}": k
                         for (p, c), k in sorted(edges.items())},
            "queue_max": self.queue_max,
            "denials": self.denials,
            "bindings": self.bindings,
        }


def _rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile of sorted values."""
    if not values:
        return 0.0
    return values[min(len(values) - 1, max(0, int(q * len(values) + 0.5) - 1))]
