"""Mutation fuzzing of every message handler, through the bus.

The envelopes are the real ones of a small scenario run, one per
(destination, message type). Each is sent again with one field dropped,
one field of another type, one bytes field flipped, cut or extended, or
under an unknown type. ``bus.run`` must never raise, and an envelope that
ends as a dead letter must leave the stores unchanged and send nothing.
The runs are derandomized, so a failure reproduces on every run.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scms import harness
from scms.bus import Envelope, MessageBus, Trace
from scms.certmodel import SERIES_PSEUDONYM, CertType
from scms.device import Device
from scms.encoding import encode
from scms.errors import InvariantViolation, ScmsError
from scms.harness import ScenarioConfig, run_scenario
from tests.conftest import issued_certificates, make_world

# one value of each payload type, for "a field of another type"
_OTHER_VALUES = [None, True, 7, "text", b"\x00" * 8, [5], {"k": b""}]


def _copy(world, env=None):
    """A deep copy of a world (and an envelope), with a fresh trace: the
    trace's running hash cannot be copied, and the copies need none."""
    return copy.deepcopy((world, env), {id(world.trace): Trace(keep_events=False)})


def _recorded_run():
    """For each (destination, type), a copy of the world taken just before
    the first delivery of that type, with the envelope delivered then.
    Devices count as one destination. Replies are copied while the request
    they answer is still open, so a mutated reply reaches the handler body."""
    config = ScenarioConfig(
        name="handler-fuzz", seed=31, devices=4, periods=3, batch_size=3,
        bsms_per_device_per_period=1, listeners_per_bsm=1,
        events=[
            {"period": 1, "action": "misbehavior", "offender": 0,
             "reporters": [1, 2, 3]},
            {"period": 2, "action": "ballot", "kind": "endorse-root",
             "voters": [1, 2]},
        ],
    )
    worlds = []
    first: dict[str, tuple] = {}
    deliver = MessageBus._deliver

    class Recorded(harness.World):
        def __init__(self, config):
            super().__init__(config)
            worlds.append(self)

    def recording(bus, env):
        dst = "device" if env.dst.startswith(("obe", "rse")) else env.dst
        key = f"{dst}:{env.mtype}"
        if worlds and key not in first:
            first[key] = _copy(worlds[0], env)
        deliver(bus, env)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MessageBus, "_deliver", recording)
        patch.setattr(harness, "World", Recorded)
        result = run_scenario(config)
        world = result.world
        # flows no scenario event drives: policy pull, re-enrollment, the
        # MA's same-device investigation, and an RSE's application
        # certificates and their revocation
        world.devices[1].fetch_policy()
        world.devices[2].reenroll_reestablish()
        issued = issued_certificates(world)
        world.ma.request_same_device(issued[0]["lv"], issued[-1]["lv"])
        world.bus.run()
        rse = Device("rse0", world.bus, world.rng, model="rse-model-a")
        rse.bootstrap(world.dcm, ctype=CertType.RSE_ENROLLMENT,
                      subject_info="rse-unit-0")
        rse.request_app_certs(CertType.RSE_APPLICATION, [[0, 5], [6, 9]],
                              psid=130, with_enc_key=True)
        world.bus.run()
        world.ma.start_certificate_revocation(rse.app_certs[0]["cert_bytes"])
        world.bus.run()
    assert result.violations == []
    assert world.bus.dead_letters == 0
    return first


RECORDED = _recorded_run()


def drain_checked(world) -> None:
    """``bus.run`` one delivery at a time, checking every dead letter."""
    bus = world.bus
    while bus._queue:
        env = bus._queue.popleft()
        before = world.registry.snapshot_bytes()
        queued, dead = len(bus._queue), bus.dead_letters
        bus._deliver(env)
        if bus.dead_letters > dead:
            assert world.registry.snapshot_bytes() == before, env.mtype
            assert len(bus._queue) == queued, env.mtype


_DROP = object()


def _paths(value, prefix=()) -> list[tuple[tuple, object]]:
    """(path, value) of every field, nested mappings included."""
    out = []
    if isinstance(value, dict):
        for key in sorted(value):
            out.append((prefix + (key,), value[key]))
            out += _paths(value[key], prefix + (key,))
    return out


def _with(value: dict, path: tuple, new) -> dict:
    """A copy of ``value`` with the field at ``path`` replaced or dropped."""
    head, rest = path[0], path[1:]
    out = dict(value)
    if rest:
        out[head] = _with(value[head], rest, new)
    elif new is _DROP:
        del out[head]
    else:
        out[head] = new
    return out


@st.composite
def mutated(draw, env: Envelope) -> tuple[str, object]:
    payload = env.payload
    paths = _paths(payload)
    kinds = {
        "drop": paths,
        "retype": paths,
        "bytes": [(p, v) for p, v in paths if type(v) is bytes],
        "text": [(p, v) for p, v in paths if type(v) is str],
        "number": [(p, v) for p, v in paths if type(v) is int],
    }
    op = draw(st.sampled_from(["unknown-type"] + [k for k, v in kinds.items() if v]))
    if op == "unknown-type":
        return "no.such.type", payload
    path, value = draw(st.sampled_from(kinds[op]))
    if op == "drop":
        new = _DROP
    elif op == "retype":
        new = draw(st.sampled_from(
            [v for v in _OTHER_VALUES if type(v) is not type(value)]))
    elif op == "text":
        new = draw(st.sampled_from(["", value + "x", value[:-1]]))
    elif op == "number":
        new = draw(st.sampled_from([-1 - value, value + 1, value - 1]))
    else:
        data = bytearray(value)
        edit = draw(st.sampled_from(["flip", "truncate", "extend"]))
        if edit == "flip" and data:
            data[draw(st.integers(0, len(data) - 1))] ^= 1 << draw(st.integers(0, 7))
        elif edit == "truncate" and data:
            del data[draw(st.integers(0, len(data) - 1)):]
        else:
            data += draw(st.binary(min_size=1, max_size=8))
        new = bytes(data)
    return env.mtype, _with(payload, path, new)


def test_every_handler_type_was_recorded():
    covered = {key.split(":")[0] for key in RECORDED}
    assert {"device", "lop", "ra", "pca", "la1", "la2", "ma", "eca",
            "crlstore"} <= covered
    assert {"ra:app.request", "pca:cert.request.plain",
            "ra:cert.response.plain", "device:app.issued",
            "ma:ma.certsbyrh.resp"} <= set(RECORDED)
    assert len(RECORDED) >= 45


@pytest.mark.parametrize("key", sorted(RECORDED))
@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_envelope_never_aborts_the_run(key, data):
    world, env = _copy(*RECORDED[key])
    mtype, payload = data.draw(mutated(env), label="mutation")
    # ahead of whatever else was queued, as the original was delivered
    world.bus._queue.appendleft(Envelope(env.src, env.dst, mtype, payload))
    drain_checked(world)


# --- the probe: every handler of a small world, 18 malformed payloads ---

PROBE_PAYLOADS = [
    None, 0, True, "text", b"\x00", [], [5], {}, {"x": 1},
    {"reply_ref": b"\x00" * 8}, {"reply_ref": "r"}, {"echo": "00"},
    {"echo": 5, "found": True}, {"ref": "nope", "plvs": 5},
    {"blob": b"\x01", "reply_ref": b"\x02"}, {"q": b"\x00" * 4},
    {"dst": "ra", "mtype": "ma.blacklist", "body": []},
    {"dst": "ghost", "mtype": "x", "body": {}},
]


def _handler_targets(world) -> list[tuple[str, str]]:
    components = [world.lop, world.crl_store, world.eca, world.pca, world.la1,
                  world.la2, world.ra, world.ma, world.pg, *world.devices]
    targets = [("lop", "lop.fwd"), ("lop", "provision.ack")]
    for component in components:
        targets += [(component.id, name[3:]) for name in dir(type(component))
                    if name.startswith("on_")]
    return targets


def test_probe_payloads_leave_every_handler_running():
    world = make_world(devices=3)
    targets = _handler_targets(world)
    assert len(PROBE_PAYLOADS) == 18 and len(targets) > 40
    for dst, mtype in targets:
        for payload in PROBE_PAYLOADS:
            world.bus.send(Envelope("pg", dst, mtype, payload))
            world.bus.run()
    assert world.bus.dead_letters >= len(targets) * 10


def test_unknown_type_is_one_plain_scms_error_everywhere():
    world = make_world(devices=1)
    for component in (world.devices[0], world.ra, world.ma, world.crl_store):
        with pytest.raises(ScmsError) as err:
            component.handle(Envelope("pg", component.id, "no.such.type", {}))
        assert type(err.value) is ScmsError


# --- regressions: malformed input that used to abort ``bus.run`` ---

def _dead_letters(world) -> list[dict]:
    return [e for e in world.trace.events if e["kind"] == "dead_letter"]


@pytest.mark.parametrize("dst", ["obe0", "ra"])
def test_ballot_of_a_bare_int_list_is_a_dead_letter(dst):
    world = make_world(devices=1, keep_trace_events=True)
    world.bus.send(Envelope("pg", dst, "ballot.publish",
                            {"ballot": encode([5])}))
    world.bus.run()
    assert _dead_letters(world) == [
        {"n": world.trace.count - 1, "kind": "dead_letter", "p": 0,
         "dst": dst, "t": "ballot.publish", "err": "ParseError"},
    ]


def test_truncated_composite_crl_is_a_dead_letter():
    world = make_world(devices=1, keep_trace_events=True)
    device = world.devices[0]
    world.ma.publish_crl(SERIES_PSEUDONYM)
    world.bus.run()
    good = world.crl_store.composite()
    assert good[4:6] == b"\x00\x01"  # one CRL, its length at [6:10]
    truncated = good[:6] + (len(good) + 100).to_bytes(4, "big") + good[10:]
    world.bus.send(Envelope("crlstore", device.id, "crl.composite",
                            {"data": truncated}))
    world.bus.run()
    assert [e["err"] for e in _dead_letters(world)] == ["ParseError"]
    assert world.bus.dead_letters == 1


def test_invariant_violation_still_aborts_the_run():
    world = make_world(devices=1)
    world.bus.send(Envelope("pg", "ra", "chain.plvs",
                            {"ref": "r", "lci": b"", "plvs": []}))
    world.bus.run()  # a non-LA source is refused, not an invariant
    assert world.bus.dead_letters == 1

    def broken(env):
        raise InvariantViolation("state no longer adds up")

    world.ra.on_cert_reject = broken
    world.bus.send(Envelope("pca", "ra", "cert.reject", {}))
    with pytest.raises(InvariantViolation):
        world.bus.run()
