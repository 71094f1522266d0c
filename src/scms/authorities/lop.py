"""Location obscurer proxy.

Forwards end-entity messages with the source identifier replaced by the
proxy's own id, leaving the payload byte-identical, so the registration
and misbehavior authorities never observe which device a request came
from. Replies are routed back through per-message reply references chosen
freshly by the device, never a stable device identifier.
"""

from __future__ import annotations

from ..bus import _PROXIED, Envelope
from ..encoding import fields
from ..errors import ScmsError
from .base import Component


class Lop(Component):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._sessions: dict[bytes, str] = {}

    def handle(self, env: Envelope) -> None:
        # a router, not a dispatcher: one forward type, every other type
        # is a reply on its way back to a device
        if env.mtype == "lop.fwd":
            self._forward(env)
        else:
            self._reply(env)

    def _forward(self, env: Envelope) -> None:
        dst, mtype, body = fields(env.payload, dst=str, mtype=str, body=dict)
        if dst not in _PROXIED:
            raise ScmsError(f"the proxy does not forward to {dst!r}")
        ref = body.get("reply_ref")
        if type(ref) is bytes:
            self._sessions[ref] = env.src
        self.bus.send(Envelope(self.id, dst, mtype, body))

    def _reply(self, env: Envelope) -> None:
        (ref,) = fields(env.payload, reply_ref=bytes)
        device = self._sessions.get(ref)
        if device is None:
            raise ScmsError("reply for unknown proxy session")
        self.bus.send(Envelope(self.id, device, env.mtype, env.payload))
