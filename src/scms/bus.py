"""In-process message bus, simulated clock and event trace.

Components register under string ids and exchange envelopes: {source,
destination, message type, payload}. A single FIFO queue is drained in
order, so a fixed seed replays the exact same delivery sequence.

The bus enforces the proxy rule: end entities may not address the
registration or misbehavior authority directly, those paths must go
through the location obscurer proxy.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass

from .encoding import encode
from .errors import InvariantViolation

MINUTES_PER_DAY = 24 * 60
MINUTES_PER_PERIOD = 7 * MINUTES_PER_DAY  # one period = one week

# destinations a device must reach via the LOP
_PROXIED = {"ra", "ma"}
_EE_PREFIXES = ("obe", "rse")


class Clock:
    """Simulated time: week-period index plus minutes within the period."""

    def __init__(self):
        self.period = 0
        self.minute = 0

    @property
    def day(self) -> int:
        return self.period * 7 + self.minute // MINUTES_PER_DAY

    def set(self, period: int, minute: int = 0) -> None:
        if (period, minute) < (self.period, self.minute) and period < self.period:
            raise ValueError("clock cannot move backward across periods")
        self.period = period
        self.minute = minute

    def advance_minutes(self, minutes: int) -> None:
        total = self.minute + minutes
        self.period += total // MINUTES_PER_PERIOD
        self.minute = total % MINUTES_PER_PERIOD


@dataclass(frozen=True)
class Envelope:
    src: str
    dst: str
    mtype: str
    payload: dict

    def encode(self) -> bytes:
        return encode(
            {"src": self.src, "dst": self.dst, "type": self.mtype,
             "payload": self.payload}
        )


class Trace:
    """Append-only event log with a stable digest."""

    def __init__(self, keep_events: bool = True):
        self.keep_events = keep_events
        self.events: list[dict] = []
        self._hash = hashlib.sha256()
        self.count = 0

    def record(self, kind: str, **fields) -> None:
        event = {"n": self.count, "kind": kind, **fields}
        line = json.dumps(event, sort_keys=True, separators=(",", ":"))
        self._hash.update(line.encode())
        self._hash.update(b"\n")
        if self.keep_events:
            self.events.append(event)
        self.count += 1

    def digest(self) -> str:
        return self._hash.hexdigest()

    def write_ndjson(self, path) -> None:
        with open(path, "w") as fh:
            for event in self.events:
                fh.write(json.dumps(event, sort_keys=True, separators=(",", ":")))
                fh.write("\n")


def _is_end_entity(component_id: str) -> bool:
    return component_id.startswith(_EE_PREFIXES)


class MessageBus:
    def __init__(self, clock: Clock | None = None, trace: Trace | None = None):
        self.clock = clock or Clock()
        self.trace = trace
        self._components: dict[str, object] = {}
        self._queue: deque[Envelope] = deque()
        self.delivered = 0

    def register(self, component_id: str, component) -> None:
        if component_id in self._components:
            raise ValueError(f"component id {component_id!r} already registered")
        self._components[component_id] = component

    def send(self, env: Envelope) -> None:
        if env.dst in _PROXIED and _is_end_entity(env.src):
            raise InvariantViolation(
                f"{env.src} must reach {env.dst} through the LOP"
            )
        if env.dst not in self._components:
            raise InvariantViolation(f"no component {env.dst!r} registered")
        self._queue.append(env)

    def run(self) -> int:
        """Drain the queue in FIFO order; returns deliveries made."""
        n = 0
        while self._queue:
            env = self._queue.popleft()
            self._deliver(env)
            n += 1
        return n

    def _deliver(self, env: Envelope) -> None:
        if self.trace is not None:
            self.trace.record(
                "deliver",
                p=self.clock.period,
                src=env.src,
                dst=env.dst,
                t=env.mtype,
                h=hashlib.sha256(env.encode()).hexdigest()[:16],
            )
        self._components[env.dst].handle(env)
        self.delivered += 1
