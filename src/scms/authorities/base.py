"""Common machinery for SCMS components.

Each component is a single-threaded state machine with a private store
namespace and its own deterministic random stream, built whole in one
constructor call. An ``Authority`` also holds its own certificate and
keys (an ``Identity``), and an ``MaQueryServer`` also answers the
misbehavior authority's signed queries. ``Component.handle`` is the one
message dispatcher: an envelope goes to the ``on_<message_type>`` method
(dots become underscores), and an unknown type is refused with
``ScmsError``, which the bus turns into a dead letter. Devices bind the
same function; the proxy routes by its own rule. Each handler reads its
payload through ``encoding.fields`` before it writes or sends anything,
so a malformed envelope is refused whole.

``ma_query`` is the one server side of the misbehavior authority's
signed-query protocol: signature check, quota, audit log and reply, for
every PCA, RA and LA query handler.
"""

from __future__ import annotations

import functools
import hashlib
from typing import NamedTuple

from ..bus import Envelope, MessageBus
from ..certmodel import Certificate, SignedMessage, verify_message
from ..crypto import DeterministicRandom, KeyPair
from ..encoding import decode, fields
from ..errors import ScmsError
from ..persistence import StoreRegistry


class Identity(NamedTuple):
    """An authority's signing key, its certificate and, for an authority
    that receives encrypted traffic, its encryption key."""

    keypair: KeyPair
    cert: Certificate
    enc_keypair: KeyPair | None


class Component:
    def __init__(
        self,
        component_id: str,
        bus: MessageBus,
        registry: StoreRegistry,
        rng: DeterministicRandom,
    ):
        self.id = component_id
        self.bus = bus
        self.clock = bus.clock
        self.store = registry.create(component_id)
        self.rng = rng.child(component_id)
        bus.register(component_id, self)

    def send(self, dst: str, mtype: str, payload: dict) -> None:
        self.bus.send(Envelope(self.id, dst, mtype, payload))

    def handle(self, env: Envelope) -> None:
        handler = getattr(self, "on_" + env.mtype.replace(".", "_"), None)
        if handler is None:
            raise ScmsError(
                f"component {self.id} cannot handle message type {env.mtype!r}"
            )
        handler(env)

    def audit_log(self, requester: str, op: str, obj: bytes | str) -> None:
        """Append-only record of a served sensitive request."""
        self.store.put(
            "audit",
            {
                "period": self.clock.period,
                "requester": requester,
                "op": op,
                "object": obj.hex() if isinstance(obj, bytes) else obj,
            },
        )


class Authority(Component):
    """A component that signs with its own certificate."""

    def __init__(self, component_id: str, bus: MessageBus,
                 registry: StoreRegistry, rng: DeterministicRandom,
                 identity: Identity):
        super().__init__(component_id, bus, registry, rng)
        self.keypair, self.cert, self.enc_keypair = identity


class MaQueryServer(Authority):
    """An authority that serves the MA's signed queries (``ma_query``):
    it checks each against the MA's certificate and serves at most
    ``ma_query_limit`` of them per period."""

    def __init__(self, component_id: str, bus: MessageBus,
                 registry: StoreRegistry, rng: DeterministicRandom,
                 identity: Identity, ma_cert: Certificate,
                 ma_query_limit: int):
        super().__init__(component_id, bus, registry, rng, identity)
        self.ma_cert = ma_cert
        self.ma_query_limit = ma_query_limit
        # queries served in the current period, the only one the quota reads
        self._ma_queries: dict[int, int] = {}


def ma_query(answer):
    """Serve one signed MA query type with ``answer(self, request)``, whose
    returned body goes back as ``<op>.resp``. A query with a bad signature
    or over the quota is logged as ``<op>.refused`` and gets ``ma.refused``;
    both replies echo the digest of the signed payload."""

    @functools.wraps(answer)
    def serve(self, env) -> None:
        (q,) = fields(env.payload, q=bytes)
        msg = SignedMessage.decode(q)
        digest = hashlib.sha256(msg.payload).hexdigest()
        period = self.clock.period
        served = self._ma_queries.get(period, 0)
        if not verify_message(msg, self.ma_cert):
            logged, reason = b"bad-signature", "bad signature"
        elif served >= self.ma_query_limit:
            logged, reason = b"over-quota", "rate limited"
        else:
            self._ma_queries = {period: served + 1}
            self.audit_log(env.src, env.mtype, digest)
            reply = answer(self, decode(msg.payload))
            self.send(env.src, env.mtype + ".resp", {**reply, "echo": digest})
            return
        self.audit_log(env.src, env.mtype + ".refused", logged)
        self.send(env.src, "ma.refused", {
            "op": env.mtype, "reason": reason, "echo": digest,
        })

    return serve
