"""Common machinery for SCMS components.

Each component is a single-threaded state machine with a private store
namespace, its own deterministic random stream and a signing identity.
``Component.handle`` is the one message dispatcher: an envelope goes to
the ``on_<message_type>`` method (dots become underscores), and an unknown
type is refused with ``ScmsError``, which the bus turns into a dead letter.
Devices bind the same function; the proxy routes by its own rule. Each
handler reads its payload through ``encoding.fields`` before it writes or
sends anything, so a malformed envelope is refused whole.

``ma_query`` is the one server side of the misbehavior authority's
signed-query protocol: signature check, quota, audit log and reply, for
every PCA, RA and LA query handler.
"""

from __future__ import annotations

import functools
import hashlib

from ..bus import Envelope, MessageBus
from ..certmodel import Certificate, SignedMessage, verify_message
from ..crypto import DeterministicRandom, KeyPair
from ..encoding import decode, fields
from ..errors import ScmsError
from ..persistence import StoreRegistry


class Component:
    # set by configure() on the authorities that answer MA queries; a
    # component without a limit serves them without a per-period quota
    ma_cert: Certificate | None = None
    ma_query_limit: int | None = None

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
        self.keypair: KeyPair | None = None
        self.enc_keypair: KeyPair | None = None
        self.cert: Certificate | None = None
        self._ma_queries: dict[int, int] = {}
        bus.register(component_id, self)

    def install_identity(
        self,
        keypair: KeyPair,
        cert: Certificate,
        enc_keypair: KeyPair | None = None,
    ) -> None:
        self.keypair = keypair
        self.cert = cert
        self.enc_keypair = enc_keypair

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
        if self.ma_cert is None or not verify_message(msg, self.ma_cert):
            logged, reason = b"bad-signature", "bad signature"
        elif (self.ma_query_limit is not None
              and self._ma_queries.get(period, 0) >= self.ma_query_limit):
            logged, reason = b"over-quota", "rate limited"
        else:
            self._ma_queries[period] = self._ma_queries.get(period, 0) + 1
            self.audit_log(env.src, env.mtype, digest)
            reply = answer(self, decode(msg.payload))
            self.send(env.src, env.mtype + ".resp", {**reply, "echo": digest})
            return
        self.audit_log(env.src, env.mtype + ".refused", logged)
        self.send(env.src, "ma.refused", {
            "op": env.mtype, "reason": reason, "echo": digest,
        })

    return serve
