"""Bus, clock and trace tests: FIFO determinism, proxy enforcement, the
fault boundary, deferred jobs, the kernel pool."""

import functools
import hashlib
import multiprocessing
import os
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scms import bus as bus_module
from scms.bus import Clock, Envelope, MessageBus, Trace
from scms.crypto import DeterministicRandom
from scms.encoding import fields
from scms.errors import InvariantViolation, ParseError, ScmsError
from scms.harness import ScenarioConfig, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class Echo:
    """Toy component: records the types it is delivered."""

    def __init__(self, bus, own_id):
        self.id = own_id
        self.seen = []
        bus.register(own_id, self)

    def handle(self, env):
        self.seen.append(env.mtype)


def test_fifo_delivery_order():
    bus = MessageBus()
    a = Echo(bus, "a")
    for n in range(5):
        bus.send(Envelope("x", "a", f"m{n}", {}))
    bus.run()
    assert a.seen == ["m0", "m1", "m2", "m3", "m4"]


def test_unknown_destination_rejected():
    bus = MessageBus()
    Echo(bus, "a")
    with pytest.raises(InvariantViolation):
        bus.send(Envelope("a", "ghost", "m", {}))


def test_duplicate_registration_rejected():
    bus = MessageBus()
    Echo(bus, "a")
    with pytest.raises(ValueError):
        Echo(bus, "a")


def test_lop_rule_blocks_direct_device_to_ra():
    bus = MessageBus()
    Echo(bus, "ra")
    Echo(bus, "ma")
    Echo(bus, "crlstore")
    for dst in ("ra", "ma"):
        with pytest.raises(InvariantViolation):
            bus.send(Envelope("obe3", dst, "m", {}))
        with pytest.raises(InvariantViolation):
            bus.send(Envelope("rse1", dst, "m", {}))
    # the CRL store is a public download point, no proxy required
    bus.send(Envelope("obe3", "crlstore", "crl.fetch", {}))
    assert bus.run() == 1


def test_trace_digest_is_order_sensitive():
    t1, t2 = Trace(), Trace()
    t1.record("a", x=1)
    t1.record("b", x=2)
    t2.record("b", x=2)
    t2.record("a", x=1)
    assert t1.digest() != t2.digest()
    t3 = Trace()
    t3.record("a", x=1)
    t3.record("b", x=2)
    assert t3.digest() == t1.digest()


@pytest.mark.parametrize("name", ["revocation_demo", "mitm_drill", "garbage_drill"])
def test_spliced_envelope_hash_is_the_hash_of_the_encoding(name, monkeypatch):
    spliced = MessageBus._envelope_hash
    seen, wrong = [], []

    def checked(bus, env):
        h = spliced(bus, env)
        seen.append(env.mtype)
        if h != hashlib.sha256(env.encode()).hexdigest()[:16]:
            wrong.append(env)
        return h

    monkeypatch.setattr(MessageBus, "_envelope_hash", checked)
    config = ScenarioConfig.from_json((SCENARIOS / f"{name}.json").read_text())
    result = run_scenario(config)
    assert len(seen) == result.world.bus.delivered
    assert "bsm" in seen and wrong == []


# quotes, backslashes, control characters, non-ASCII, astral and lone
# surrogates: every kind of character the JSON escaper treats apart
_AWKWARD = ['q"d', "b\\s", "\x00\x1f\x7f\n\t", "\u00e9\u2028",
            "\U0001f600", "\ud800", ""]
_ANY_TEXT = st.one_of(
    st.sampled_from(_AWKWARD),
    st.lists(st.integers(0, 0x10FFFF).map(chr), max_size=6).map("".join))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(dst=_ANY_TEXT, src=_ANY_TEXT, t=_ANY_TEXT, h=_ANY_TEXT,
       p=st.one_of(st.integers(0, 2**40), st.booleans()))
def test_a_delivery_line_is_the_json_of_its_event(dst, src, t, h, p):
    # a bool period takes the generic line
    trace = Trace(keep_events=False)
    lines = []
    for n in range(2):
        trace.record("deliver", p=p, src=src, dst=dst, t=t, h=h)
        event = {"n": n, "kind": "deliver", "p": p, "src": src, "dst": dst,
                 "t": t, "h": h}
        lines.append(bus_module._JSON.encode(event) + "\n")
    assert trace.digest() == hashlib.sha256("".join(lines).encode()).hexdigest()


def test_an_awkward_inject_type_hashes_as_its_kept_event(tmp_path):
    mtype = "".join(_AWKWARD[:-2])  # a lone surrogate is refused on load
    config = ScenarioConfig(name="awkward", seed=3, devices=2, periods=1,
                            batch_size=1, keep_trace_events=True, events=[
        {"period": 0, "action": "inject", "src": "pg", "dst": "obe0",
         "type": mtype, "payload": {}}])
    kept = run_scenario(config)
    config.keep_trace_events = False
    digest = run_scenario(config).trace_digest
    assert kept.trace_digest == digest
    assert any(e.get("t") == mtype for e in kept.world.trace.events)
    path = tmp_path / "trace.ndjson"
    with open(path, "w") as out:
        kept.world.trace.write_ndjson(out)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_a_payload_changed_between_runs_is_hashed_afresh():
    bus = MessageBus(trace=Trace())
    Echo(bus, "a")
    payload = {"n": 1}
    hashes = []
    for n in (1, 2):
        payload["n"] = n
        bus.send(Envelope("x", "a", "m", payload))
        bus.run()
        env = Envelope("x", "a", "m", dict(payload))
        hashes.append((bus.trace.events[-1]["h"],
                       hashlib.sha256(env.encode()).hexdigest()[:16]))
    assert hashes[0][0] != hashes[1][0]
    assert all(got == want for got, want in hashes)


def test_trace_ndjson(tmp_path):
    trace = Trace()
    trace.record("deliver", src="a", dst="b")
    path = tmp_path / "trace.ndjson"
    with open(path, "w") as out:
        trace.write_ndjson(out)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert '"kind":"deliver"' in lines[0]


def test_clock_period_monotone():
    clock = Clock()
    clock.set(3, 100)
    clock.set(3, 0)  # backward within a period is allowed
    with pytest.raises(ValueError):
        clock.set(2, 0)
    clock.advance_minutes(7 * 24 * 60)
    assert clock.period == 4
    assert clock.day == 4 * 7


class Raiser:
    """Toy component whose handler raises the error it was built with."""

    def __init__(self, bus, own_id, error):
        self.id = own_id
        self.error = error
        bus.register(own_id, self)

    def handle(self, env):
        raise self.error


def test_scms_error_becomes_a_dead_letter_and_the_run_goes_on():
    trace = Trace()
    bus = MessageBus(trace=trace)
    Raiser(bus, "bad", ParseError("missing field 'secret-looking'", 0))
    echo = Echo(bus, "a")
    bus.send(Envelope("a", "bad", "m", {"secret": b"\x01"}))
    bus.send(Envelope("x", "a", "after", {}))
    assert bus.run() == 2
    assert echo.seen == ["after"]
    assert bus.dead_letters == 1 and bus.delivered == 2
    dead = [e for e in trace.events if e["kind"] == "dead_letter"]
    # the error class only: nothing from the payload or the message
    assert dead == [{"n": 1, "kind": "dead_letter", "p": 0, "dst": "bad",
                     "t": "m", "err": "ParseError"}]


@pytest.mark.parametrize("error", [
    InvariantViolation("broken invariant"), KeyError("x"), ValueError("x"),
])
def test_invariant_violations_and_bugs_abort_the_run(error):
    bus = MessageBus(trace=Trace())
    Raiser(bus, "bad", error)
    bus.send(Envelope("a", "bad", "m", {}))
    with pytest.raises(type(error)):
        bus.run()
    assert bus.dead_letters == 0


def test_plain_scms_error_is_contained_too():
    bus = MessageBus()
    Raiser(bus, "bad", ScmsError("unknown message type"))
    bus.send(Envelope("a", "bad", "m", {}))
    assert bus.run() == 1
    assert bus.dead_letters == 1


# --- deferred jobs: handler, kernel, commit ---

def square(x: int) -> int:
    """A kernel: module level, so the pool can pickle it."""
    return x * x


def square_or_die(marker: str, x: int) -> int:
    """``square``, except that its first call in a pool worker, the one
    that makes the file ``marker``, ends the worker."""
    if multiprocessing.parent_process() is not None:
        try:
            open(marker, "x").close()
        except FileExistsError:
            pass
        else:
            os._exit(1)
    return x * x


class Squarer:
    """Toy component that squares ``x`` in a kernel. Its handler draws a
    salt, refuses a negative ``x`` (a ``refused`` reply, written and sent
    by a commit too) and a non-integer one (a dead letter); its commit
    stores and sends the answer. ``deferring=False`` runs kernel and
    commit in the handler, as serial handling would."""

    def __init__(self, bus, own_id, deferring, kernel=square):
        self.id, self.bus, self.deferring = own_id, bus, deferring
        self.kernel = kernel
        self.store = []
        self.rng = DeterministicRandom(7, own_id)
        bus.register(own_id, self)

    def handle(self, env):
        (x,) = fields(env.payload, x=int)
        salt = self.rng.randbelow(1000)
        if x < 0:
            self._job(None, (), lambda _: self._commit(env, "refused", x, salt))
        else:
            self._job(self.kernel, (x,),
                      lambda y: self._commit(env, "square", y, salt))

    def _job(self, kernel, args, commit):
        if self.deferring:
            self.bus.defer(kernel, args, commit)
        else:
            commit(None if kernel is None else kernel(*args))

    def _commit(self, env, kind, value, salt):
        self.store.append((kind, value, salt))
        self.bus.send(Envelope(self.id, env.src, kind, {"v": value, "s": salt}))


def _drive(deferring: bool, kernel=square, count: int = 12):
    trace = Trace()
    bus = MessageBus(trace=trace)
    squarer = Squarer(bus, "sq", deferring, kernel)
    client = Echo(bus, "client")
    other = Echo(bus, "other")
    payloads = [{"x": n} for n in range(count)]
    payloads[3] = {"x": -3}        # refused in the handler phase
    payloads[7] = {"x": "seven"}   # a dead letter
    for payload in payloads:
        bus.send(Envelope("client", "sq", "sq", payload))
    # another destination ends the run of deliveries; then a run of one
    bus.send(Envelope("client", "other", "ping", {}))
    bus.send(Envelope("client", "sq", "sq", {"x": 99}))
    delivered = bus.run()
    return trace.digest(), delivered, bus.dead_letters, client.seen, \
        other.seen, squarer.store, squarer.rng.randbytes(8)


@pytest.mark.parametrize("workers, chunk", [(0, 8), (1, 3), (2, 8)],
                         ids=["one-cpu", "one-worker", "two-workers"])
def test_deferred_jobs_match_serial_handling(workers, chunk, monkeypatch):
    monkeypatch.setattr(bus_module, "POOL_WORKERS", workers)
    monkeypatch.setattr(bus_module, "POOL_CHUNK", chunk)
    deferred, serial = _drive(True), _drive(False)
    assert deferred == serial
    digest, delivered, dead, seen, _, store, _ = deferred
    assert (delivered, dead) == (26, 1)
    assert seen[:3] == ["square", "square", "square"]
    assert store[3][:2] == ("refused", -3) and store[-1][:2] == ("square", 9801)


def test_defer_outside_run_commits_at_once():
    bus = MessageBus()
    squarer = Squarer(bus, "sq", deferring=True)
    Echo(bus, "client")
    squarer.handle(Envelope("client", "sq", "sq", {"x": 5}))
    assert squarer.store[0][:2] == ("square", 25)
    assert len(bus._queue) == 1


def test_commit_error_aborts_the_run():
    def commit(_):
        raise ParseError("late", 0)

    class Deferring:
        def handle(self, env):
            bus.defer(None, (), commit)

    bus = MessageBus()
    bus.register("d", Deferring())
    bus.send(Envelope("x", "d", "m", {}))
    with pytest.raises(InvariantViolation):
        bus.run()
    assert bus.dead_letters == 0


def fail(x: int) -> int:
    raise ValueError(f"kernel bug on {x}")


def test_a_kernel_that_raises_in_a_worker_aborts_the_run(monkeypatch):
    monkeypatch.setattr(bus_module, "POOL_WORKERS", 2)
    monkeypatch.setattr(bus_module, "POOL_CHUNK", 2)

    class Failing:
        def handle(self, env):
            bus.defer(fail, (env.payload["x"],), lambda _: None)

    bus = MessageBus()
    bus.register("f", Failing())
    for x in range(6):
        bus.send(Envelope("x", "f", "m", {"x": x}))
    with pytest.raises((InvariantViolation, ValueError), match="kernel bug"):
        bus.run()
    assert bus.dead_letters == 0
    # the pool the aborted run left busy is dropped; the next run works
    assert _drive(True) == _drive(False)
    assert _pool_processes() <= bus_module.POOL_WORKERS


def _pool_processes() -> int:
    """The live child processes, once the workers of a dropped pool, which
    exit when they find their pipe closed, are gone (at most 10 s)."""
    deadline = time.monotonic() + 10
    while (len(multiprocessing.active_children()) > bus_module.POOL_WORKERS
           and time.monotonic() < deadline):
        time.sleep(0.01)
    return len(multiprocessing.active_children())


def test_a_worker_that_dies_changes_no_result(tmp_path, monkeypatch):
    # its slices are computed in this process, and a new worker serves the
    # next run
    monkeypatch.setattr(bus_module, "POOL_WORKERS", 1)
    marker = tmp_path / "killed"
    kernel = functools.partial(square_or_die, str(marker))
    serial = _drive(False, kernel, count=40)
    assert _drive(True, kernel, count=40) == serial
    assert marker.exists()
    (worker,) = bus_module._pool
    assert _drive(True, kernel, count=40) == serial
    assert bus_module._pool == [worker] and not worker.closed
    assert _pool_processes() <= bus_module.POOL_WORKERS
