"""Bus, clock and trace tests: FIFO determinism, proxy enforcement."""

import pytest

from scms.bus import Clock, Envelope, MessageBus, Trace
from scms.errors import InvariantViolation


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


def test_trace_ndjson(tmp_path):
    trace = Trace()
    trace.record("deliver", src="a", dst="b")
    path = tmp_path / "trace.ndjson"
    trace.write_ndjson(path)
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
