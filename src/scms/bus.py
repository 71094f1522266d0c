"""In-process message bus, simulated clock and event trace.

Components register under string ids and exchange envelopes: {source,
destination, message type, payload}. A single FIFO queue is drained in
order, so a fixed seed replays the exact same delivery sequence.

The bus enforces the proxy rule: end entities may not address the
registration or misbehavior authority directly, those paths must go
through the location obscurer proxy.

Delivery is the one fault boundary. A handler that refuses its envelope
with a ``ScmsError`` (a malformed payload, an unknown message type) turns
it into a dead letter: a ``dead_letter`` trace event naming the error
class, never the payload, and one more ``dead_letters``; the run goes on.
An ``InvariantViolation`` or any other exception is a bug and aborts it.

A handler may split its work into three parts so that the expensive
crypto of many deliveries runs on every core (``MessageBus.defer``):

- the *handler* proper checks the payload and refuses a bad envelope with
  ``ScmsError`` at its own place in the trace;
- a *kernel* is a module-level pure function of picklable arguments
  (bytes, ints, frozen values) that does the expensive work and returns a
  picklable result; it never raises ``ScmsError`` but returns an outcome;
- a *commit* takes the kernel's result and does every write and every
  send of the delivery, in delivery order.

A handler's RNG draws are all made in the handler, or all in its commits:
either way they come in delivery order. A handler that drew while an
earlier delivery's commit still had to draw would reorder the stream.

The bus collects the jobs of consecutive deliveries with one
``(dst, mtype)`` and runs their kernels on every CPU. It deals them by
index in chunks of ``POOL_CHUNK``, in turn to each worker of a pool of
one process per CPU but one and to this process. A worker gets its chunks
while the handlers go on: each time it deals a chunk, the bus takes in
the replies that have come and sends each worker its next chunks, and
between deals it leaves the pool alone. This process computes its own
chunks when the run of deliveries ends. The deal depends on nothing but
the index, so while no worker fails this process runs the same kernels
on every run. Then the bus runs the commits in delivery order, before
any other send, before a delivery with another ``(dst, mtype)`` and
before ``run()`` returns. A handler that defers makes its deferral its
last act and routes every write and send through a commit, the refusal
branches included, so the queue, the trace digest, every store and every
RNG stream come out as with serial handling. The kernels run inline on
one CPU, outside ``run()`` and for a run of fewer than ``POOL_CHUNK``
jobs, where the hand-off would cost about what it saves.

The pool keeps no account of its replies. When a worker's pipe fails, or
a run ends with tasks in flight, the bus closes the pool, computes every
slice dealt to a worker and not answered here, and starts new workers on
next use. Kernels are pure, so who computes a slice changes no result; a
kernel that raises in a live worker is a bug (``InvariantViolation``).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .encoding import dict_layout, encode
from .errors import InvariantViolation, ScmsError

MINUTES_PER_DAY = 24 * 60
MINUTES_PER_PERIOD = 7 * MINUTES_PER_DAY  # one period = one week

# destinations a device must reach via the LOP
_PROXIED = {"ra", "ma"}
_EE_PREFIXES = ("obe", "rse")

# one encoder for every trace line: json.dumps with arguments builds a
# new encoder per call
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

# the bytes before each value in an envelope's encoding, whose keys the
# codec sorts; the trace hashes that encoding spliced from its values
_DST, _PAYLOAD, _SRC, _TYPE = dict_layout("dst", "payload", "src", "type")
# component ids and message types whose encodings the splice keeps; the
# seed-1 benchmark workloads use 40 to 72 distinct strings
TEXT_MEMO_SIZE = 1024

# worker processes of the kernel pool: one per CPU but the one this
# process computes its own share on; with none every kernel runs inline
POOL_WORKERS = len(os.sched_getaffinity(0)) - 1
# jobs per chunk of the deal (on the benchmark workloads with 2 CPUs, 8
# was as fast as 4 and 16 or faster)
POOL_CHUNK = 8
# this process's end of each worker's pipe
_pool: list = []


class Clock:
    """Simulated time: week-period index plus minutes within the period."""

    def __init__(self):
        self.period = 0
        self.minute = 0

    @property
    def day(self) -> int:
        return self.period * 7 + self.minute // MINUTES_PER_DAY

    def set(self, period: int, minute: int = 0) -> None:
        if period < self.period:
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


_UNSET = object()  # no payload hashed yet


@lru_cache(maxsize=TEXT_MEMO_SIZE)
def _text(value: str) -> bytes:
    return encode(value)


class Trace:
    """Append-only event log with a stable digest."""

    def __init__(self, keep_events: bool = True):
        self.keep_events = keep_events
        self.events: list[dict] = []
        self._hash = hashlib.sha256()
        self.count = 0

    def record(self, kind: str, **fields) -> None:
        event = {"n": self.count, "kind": kind, **fields}
        self._hash.update(_JSON.encode(event).encode())
        self._hash.update(b"\n")
        if self.keep_events:
            self.events.append(event)
        self.count += 1

    def digest(self) -> str:
        return self._hash.hexdigest()

    def write_ndjson(self, path) -> None:
        with open(path, "w") as fh:
            for event in self.events:
                fh.write(_JSON.encode(event))
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
        self.dead_letters = 0
        self._running = False
        self._reset()
        # the last payload hashed and its encoding: the copies of one
        # broadcast share one payload and are delivered back to back, and
        # no handler mutates a payload (tests/test_source_rules.py)
        self._payload, self._payload_bytes = _UNSET, b""

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
        if self._jobs:
            self._flush()
        self._queue.append(env)

    def defer(self, kernel, args: tuple, commit) -> None:
        """Run ``kernel(*args)``, or nothing if ``kernel`` is None, then
        ``commit(result)``: at once outside ``run()``, otherwise together
        with the jobs of this run of deliveries (module docstring)."""
        if not self._running:
            commit(None if kernel is None else kernel(*args))
            return
        self._jobs.append((kernel, args, commit))
        self._results.append(None)
        if POOL_WORKERS and len(self._jobs) % POOL_CHUNK == 0:
            self._deal(len(self._jobs) - POOL_CHUNK)
            self._pump()

    def run(self) -> int:
        """Drain the queue in FIFO order; returns deliveries made."""
        n = 0
        self._running = True
        try:
            while self._queue:
                env = self._queue.popleft()
                self._deliver(env)
                n += 1
                if self._jobs and not (
                    self._queue and self._queue[0].dst == env.dst
                    and self._queue[0].mtype == env.mtype
                ):
                    self._flush()
        finally:
            self._running = False
            if any(self._out):  # left busy by a run that aborted
                self._drop()
            self._reset()
            # a caller may change a payload it sent once the run is over
            self._payload, self._payload_bytes = _UNSET, b""
        return n

    def _reset(self) -> None:
        # (kernel, args, commit) and result of each job of the pending run
        # of deliveries; per worker, the slices dealt to it and not sent
        # yet, and those sent and not answered; this process's slices
        self._jobs, self._results, self._own = [], [], []
        self._waiting = [deque() for _ in range(POOL_WORKERS)]
        self._out = [deque() for _ in range(POOL_WORKERS)]

    def _deal(self, start: int) -> None:
        """Deal the slice of jobs from ``start`` to the next chunk boundary
        by its index: in turn to each worker, then to this process."""
        stop = min(start + POOL_CHUNK, len(self._jobs))
        owner = start // POOL_CHUNK % (POOL_WORKERS + 1)
        if owner < POOL_WORKERS:
            self._waiting[owner].append((start, stop))
        else:
            self._own.append((start, stop))

    def _pump(self) -> None:
        """Take in every reply that has come, then send each worker its
        next dealt slices, keeping two in flight."""
        try:
            for conn, waiting, out in zip(_workers(), self._waiting, self._out):
                while out and conn.poll():
                    done, value = conn.recv()
                    start, stop = out.popleft()
                    if not done:  # a kernel that raises is a bug, wherever it runs
                        raise InvariantViolation(
                            f"a kernel in a pool worker raised:\n{value}")
                    self._results[start:stop] = value
                while waiting and len(out) < 2:
                    start, stop = waiting[0]
                    conn.send([job[:2] for job in self._jobs[start:stop]])
                    out.append(waiting.popleft())
        except (EOFError, OSError):
            self._drop()

    def _drop(self) -> None:
        """Close the pool; every slice dealt to a worker and not answered
        becomes this process's to compute."""
        for conn in _pool:
            conn.close()
        _pool.clear()
        for slices in self._out + self._waiting:
            self._own += slices
            slices.clear()

    def _flush(self) -> None:
        """Finish the pending kernels, then run every commit in order."""
        jobs = self._jobs
        try:
            results = self._finish()
            self._reset()
            for (_, _, commit), result in zip(jobs, results):
                commit(result)
        except InvariantViolation:
            raise
        except ScmsError as exc:
            # a deferred job has no envelope of its own to dead-letter
            raise InvariantViolation(
                f"a deferred job raised {type(exc).__name__}: {exc}"
            ) from exc

    def _finish(self) -> list:
        """The results of every pending job."""
        jobs = self._jobs
        if not POOL_WORKERS or len(jobs) < POOL_CHUNK:
            return run_kernels([job[:2] for job in jobs])
        if len(jobs) % POOL_CHUNK:
            self._deal(len(jobs) - len(jobs) % POOL_CHUNK)
        from multiprocessing.connection import wait
        while True:
            self._pump()
            if self._own:
                start, stop = self._own.pop(0)
                self._results[start:stop] = run_kernels(
                    [job[:2] for job in jobs[start:stop]])
            elif any(self._out):
                wait([conn for conn, out in zip(_pool, self._out) if out])
            else:
                return self._results

    def _deliver(self, env: Envelope) -> None:
        if self.trace is not None:
            self.trace.record(
                "deliver",
                p=self.clock.period,
                src=env.src,
                dst=env.dst,
                t=env.mtype,
                h=self._envelope_hash(env),
            )
        self.delivered += 1
        try:
            self._components[env.dst].handle(env)
        except InvariantViolation:
            raise
        except ScmsError as exc:
            self.dead_letters += 1
            if self.trace is not None:
                self.trace.record(
                    "dead_letter",
                    p=self.clock.period,
                    dst=env.dst,
                    t=env.mtype,
                    err=type(exc).__name__,
                )

    def _envelope_hash(self, env: Envelope) -> str:
        """The first 16 hex digits of ``sha256(env.encode())``, with the
        payload encoded once for consecutive envelopes that share it."""
        payload = env.payload
        if payload is not self._payload:
            self._payload, self._payload_bytes = payload, encode(payload)
        return hashlib.sha256(b"".join((
            _DST, _text(env.dst), _PAYLOAD, self._payload_bytes,
            _SRC, _text(env.src), _TYPE, _text(env.mtype),
        ))).hexdigest()[:16]


def run_kernels(jobs: list[tuple]) -> list:
    """``kernel(*args)`` of each (kernel, args) job, None for no kernel;
    what a pool worker runs for one task."""
    return [None if kernel is None else kernel(*args) for kernel, args in jobs]


def _serve(conn, parent_end, modules: list[str]) -> None:
    """A pool worker: import ``modules``, then answer each list of jobs
    with (True, results) or (False, the traceback of the exception a
    kernel raised), until this process's end of its pipe closes."""
    import importlib
    import traceback

    # a forked worker holds copies of this process's pipe ends, which
    # would keep its own pipe open after this process is gone
    for end in [parent_end, *_pool]:
        end.close()
    for name in modules:
        importlib.import_module(name)
    try:
        while True:
            jobs = conn.recv()
            try:
                reply = True, run_kernels(jobs)
            except Exception:
                reply = False, traceback.format_exc()
            conn.send(reply)
    except (EOFError, BrokenPipeError):
        return  # this process's end is closed: it is done, or gone


def _workers() -> list:
    """Connections to the package's one process pool, started on first
    use. A process that runs threads of its own spawns its workers, fresh
    interpreters that import each kernel by name, as forking it would not
    be safe; a task sent to a worker still importing waits in its pipe.
    This process feeds every worker itself, over the worker's own pipe, so
    no helper thread waits for the interpreter lock while handlers run."""
    if len(_pool) < POOL_WORKERS:
        import multiprocessing
        import threading

        # fork when this process runs no other thread: a forked worker
        # starts at once, holding every module already imported
        method = "fork" if threading.active_count() == 1 else "spawn"
        context = multiprocessing.get_context(method)
        modules = sorted(name for name in sys.modules
                         if name.partition(".")[0] == "scms")
        while len(_pool) < POOL_WORKERS:
            here, there = context.Pipe()
            context.Process(target=_serve, args=(there, here, modules),
                            daemon=True).start()
            there.close()
            _pool.append(here)
    return _pool
