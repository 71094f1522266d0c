"""Location obscurer proxy.

Forwards end-entity messages with the source identifier replaced by the
proxy's own id, leaving the payload byte-identical, so the registration
and misbehavior authorities never observe which device a request came
from. Replies are routed back through per-message reply references chosen
freshly by the device, never a stable device identifier.

A session lives from its forward until its reply, or until a forward in a
period two or more after the one it was opened in: a reply comes within
the bus run of its request, so an older session is one whose request was
refused, and it is dropped.
"""

from __future__ import annotations

from ..bus import _PROXIED, Envelope
from ..encoding import fields
from ..errors import ScmsError
from .base import Component


class Lop(Component):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # reply reference -> (device, period opened); the clock never
        # moves back across periods, so the table is in period order
        self._sessions: dict[bytes, tuple[str, int]] = {}

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
        period = self.clock.period
        while self._sessions:
            oldest = next(iter(self._sessions))
            if self._sessions[oldest][1] >= period - 1:
                break
            del self._sessions[oldest]
        ref = body.get("reply_ref")
        if type(ref) is bytes:
            # a reused reference moves to the end, keeping the period order
            self._sessions.pop(ref, None)
            self._sessions[ref] = (env.src, period)
        self.bus.send(Envelope(self.id, dst, mtype, body))

    def _reply(self, env: Envelope) -> None:
        (ref,) = fields(env.payload, reply_ref=bytes)
        session = self._sessions.pop(ref, None)
        if session is None:
            raise ScmsError("reply for unknown proxy session")
        self.bus.send(Envelope(self.id, session[0], env.mtype, env.payload))
