"""Issuance-side component tests: bootstrapping, LOP, RA validation and
shuffling, PCA issuance, batches, re-enrollment."""

import hashlib
from dataclasses import replace

import pytest

from scms import bus as bus_module
from scms.authorities import (
    LinkageAuthority,
    Lop,
    Pca,
    Ra,
    UncertifiedModel,
    device_handle,
)
from scms.authorities.base import ma_query
from scms.authorities.enrollment import ENROLLMENT_VALIDITY
from scms.bus import MINUTES_PER_DAY, Envelope, MessageBus
from scms.certmodel import (
    SERIES_COMPONENT,
    SERIES_PSEUDONYM,
    Certificate,
    CertType,
    Crl,
    issue_certificate,
    issue_component_cert,
    sign_message,
    verify_chain,
)
from scms.crypto import (
    DeterministicRandom,
    KeyPair,
    channel_decrypt,
    channel_encrypt,
    channel_key,
    hybrid_encrypt,
    mul_g,
)
from scms.device import Device
from scms.encoding import decode, encode
from scms.errors import InvariantViolation
from scms.linkage import LinkageSeed, pre_linkage_values, seed_at
from scms.persistence import StoreRegistry
from tests.conftest import (
    make_world,
    provision_all,
    shuffle_dispersion,
    store_fingerprint,
)


# --- bootstrapping ---

def test_bootstrap_bundle_chain_verifies():
    world = make_world()
    device = world.devices[0]
    cert = Certificate.decode(device.enrollment_cert_bytes)
    assert cert.ctype == CertType.OBE_ENROLLMENT
    assert verify_chain(cert, device.trust).ok
    assert device.trust.valid_elector_count() == 3
    assert device.batch_size == world.config.batch_size


def test_uncertified_model_rejected():
    world = make_world()
    rogue = Device("obe99", world.bus, world.rng, model="knockoff")
    with pytest.raises(UncertifiedModel):
        rogue.bootstrap(world.dcm)


def test_rebootstrap_after_revocation_gets_fresh_cert():
    world = make_world()
    device = world.devices[0]
    provision_all(world)
    old_cert = device.enrollment_cert_bytes
    old_handle = device.handle_id
    # blacklist directly (the revocation pipeline has its own tests)
    record = world.registry.audit_view("ra").first("enrollment",
                                                   handle=old_handle)
    record["blacklisted"] = True

    device.rebootstrap(world.dcm)
    assert device.enrollment_cert_bytes != old_cert
    assert device.handle_id != old_handle
    # the old enrollment stays blacklisted
    assert record["blacklisted"] is True
    device.request_certs(0, world.config.periods)
    world.bus.run()
    assert device.provision_status == "acknowledged"


# --- LOP ---

def test_lop_replaces_source_keeps_payload():
    # the proxy forwards only to the RA and the MA: a sink stands as the RA
    bus = MessageBus()
    Lop("lop", bus, StoreRegistry(), DeterministicRandom(1))
    seen = []

    class Sink:
        def handle(self, env):
            seen.append(env)

    bus.register("ra", Sink())
    body = {"reply_ref": b"\x01\x02", "blob": b"opaque"}
    bus.send(Envelope("obe0", "lop", "lop.fwd", {
        "dst": "ra", "mtype": "anything", "body": body,
    }))
    bus.run()
    assert len(seen) == 1
    assert seen[0].src == "lop"
    assert seen[0].payload == body  # byte-identical payload


def test_lop_refuses_other_destinations_and_unknown_sessions():
    world = make_world(devices=1, keep_trace_events=True)
    world.bus.send(Envelope("obe0", "lop", "lop.fwd", {
        "dst": "pca", "mtype": "cert.request", "body": {},
    }))
    world.bus.send(Envelope("ra", "lop", "provision.ack", {
        "reply_ref": b"\x00" * 8, "request_id": "x",
    }))
    world.bus.run()
    dead = [(e["t"], e["err"]) for e in world.trace.events
            if e["kind"] == "dead_letter"]
    assert dead == [("lop.fwd", "ScmsError"), ("provision.ack", "ScmsError")]


def test_lop_forgets_a_session_at_its_reply():
    bus = MessageBus()
    lop = Lop("lop", bus, StoreRegistry(), DeterministicRandom(1))
    seen = []

    class Sink:
        def handle(self, env):
            seen.append(env)

    bus.register("ra", Sink())
    bus.register("obe0", Sink())
    bus.send(Envelope("obe0", "lop", "lop.fwd", {
        "dst": "ra", "mtype": "provision.request",
        "body": {"reply_ref": b"\x07" * 8},
    }))
    bus.run()
    assert list(lop._sessions) == [b"\x07" * 8]
    ack = {"reply_ref": b"\x07" * 8, "request_id": "r"}
    bus.send(Envelope("ra", "lop", "provision.ack", ack))
    bus.send(Envelope("ra", "lop", "provision.ack", ack))
    bus.run()
    # the first reply reaches the device; the second names a spent session
    assert [(e.dst, e.mtype) for e in seen] == [
        ("ra", "provision.request"), ("obe0", "provision.ack"),
    ]
    assert bus.dead_letters == 1
    assert lop._sessions == {}


@pytest.mark.parametrize("mtype", [
    "cert.response", "cert.response.plain", "cert.reject",
])
def test_ra_takes_pca_replies_only_from_the_pca(mtype):
    world = make_world(devices=1)
    world.devices[0].request_certs(0, 1, j_max=2)
    world.bus.run()  # the singles wait in the RA's shuffle buffer
    (rh, *_) = [r["rh"] for r in
                world.registry.audit_view("ra").scan("request_index")]
    payload = {
        "cert.response": {"rh": rh, "package": b"junk"},
        "cert.response.plain": {"rh": rh, "cert": world.pki["pca"].cert.encode()},
        "cert.reject": {"rh": rh, "reason": "forged"},
    }[mtype]
    before = store_fingerprint(world.registry)
    world.bus.send(Envelope("crlstore", "ra", mtype, payload))
    world.bus.run()
    assert world.bus.dead_letters == 1
    assert store_fingerprint(world.registry) == before


def test_ra_sees_only_lop_sources():
    world = make_world()
    provision_all(world)
    for event in world.trace.events:
        pass  # trace not kept by default; check the invariant另 way
    # direct device->ra would have raised at send time; provisioning
    # succeeded, so every request went through the proxy
    assert world.registry.audit_view("ra").count("enrollment") == len(
        world.devices
    )


# --- RA request validation ---

def test_duplicate_overlapping_request_denied():
    world = make_world()
    device = world.devices[0]
    device.request_certs(0, 3)
    world.bus.run()
    assert device.provision_status == "acknowledged"
    device.request_certs(2, 3)  # overlaps period 2
    world.bus.run()
    assert device.provision_status == "denied"
    assert "duplicate" in device.last_deny_reason
    # a disjoint span is fine
    device.request_certs(3, 2)
    world.bus.run()
    assert device.provision_status == "acknowledged"


def test_blacklisted_enrollment_denied():
    world = make_world()
    device = world.devices[1]
    device.request_certs(0, 1)
    world.bus.run()
    record = world.registry.audit_view("ra").first(
        "enrollment", handle=device.handle_id
    )
    record["blacklisted"] = True
    device.request_certs(1, 1)
    world.bus.run()
    assert device.provision_status == "denied"
    assert "blacklisted" in device.last_deny_reason


def test_garbage_request_denied_not_crash():
    world = make_world()
    device = world.devices[0]
    world.bus.send(Envelope(device.id, "lop", "lop.fwd", {
        "dst": "ra", "mtype": "provision.request",
        "body": {"blob": b"\x00" * 80, "reply_ref": b"\x05"},
    }))
    world.bus.run()
    assert device.provision_status == "denied"

    # properly encrypted, structurally malformed inside
    from scms.crypto import hybrid_encrypt

    blob = hybrid_encrypt(world.pki["ra"].enc_keypair.public, b"not canonical",
                          device.rng)
    world.bus.send(Envelope(device.id, "lop", "lop.fwd", {
        "dst": "ra", "mtype": "provision.request",
        "body": {"blob": blob.encode(), "reply_ref": b"\x06"},
    }))
    world.bus.run()
    assert device.provision_status == "denied"
    assert "malformed" in device.last_deny_reason


def _provision_request(**changes) -> dict:
    request = {
        "A": mul_g(DeterministicRandom(8).scalar()).encode(),
        "H": mul_g(DeterministicRandom(9).scalar()).encode(),
        "k_sign": b"\x00" * 16, "k_enc": b"\x00" * 16,
        "start": 0, "n_periods": 1, "j_max": 2, "psid": 32,
    }
    request.update(changes)
    return {k: v for k, v in request.items() if v is not None}


@pytest.mark.parametrize("payload", [
    encode(_provision_request(A=b"\x02" + b"\x11" * 32)),
    encode(_provision_request(start=None)),
    encode(_provision_request(start="0")),
    encode(_provision_request(j_max=b"\x02")),
    encode(_provision_request(k_sign="0" * 16)),
    encode([_provision_request()]),
    b"\xff",
    encode(_provision_request(psid=2**40)),
    encode(_provision_request(psid="32")),
    encode(_provision_request(j_max=2**16)),
    encode(_provision_request(j_max=0)),
    encode(_provision_request(n_periods=0)),
    encode(_provision_request(start=-1)),
    encode(_provision_request(n_periods=8, j_max=1000)),
], ids=["A-off-curve", "no-start", "start-str", "j_max-bytes", "k_sign-str",
        "not-a-dict", "not-canonical", "psid-over-32-bits", "psid-str",
        "j_max-over-16-bits", "j_max-zero", "no-periods", "start-negative",
        "grid-over-bound"])
def test_malformed_provision_request_denied_before_any_state(payload):
    world = make_world()
    device = world.devices[0]
    device._send_signed("provision.request", payload)
    world.bus.run()
    assert device.provision_status == "denied"
    assert device.last_deny_reason == "malformed caterpillar request"
    ra = world.registry.audit_view("ra")
    assert ra.count("enrollment") == 0 and ra.count("span") == 0
    assert not world.ra._pending
    for la in ("la1", "la2"):
        assert world.registry.audit_view(la).count("chain") == 0


def test_well_formed_provision_request_is_accepted():
    world = make_world()
    device = world.devices[0]
    device._send_signed("provision.request", encode(_provision_request()))
    world.bus.run()
    assert world.registry.audit_view("ra").count("span") == 1


# --- expansion + shuffle ---

def test_emitted_requests_carry_no_enrollment_certificate():
    world = make_world(devices=2)
    device = world.devices[0]
    device.request_certs(0, 2, j_max=3)
    world.bus.run()
    enrollment = device.enrollment_cert_bytes
    assert world.ra._buffer, "singles should be buffered before flush"
    for single in world.ra._buffer:
        for leaf in single.values():
            assert leaf != enrollment
        assert b"rh" in single["rh"] or True
        assert "cert" not in single.get("tbs", {})


def test_shuffle_preserves_multiset_and_is_reproducible():
    results = []
    for _ in range(2):
        world = make_world(devices=3, periods=2, batch_size=4)
        provision_all(world)
        issued = world.registry.audit_view("pca").scan("issued")
        results.append([r["rh"] for r in issued])
        # multiset equality with what the RA indexed
        ra_rhs = {
            r["rh"] for r in world.registry.audit_view("ra").scan("request_index")
        }
        assert set(results[-1]) == ra_rhs
        assert len(results[-1]) == 3 * 2 * 4
    # same seed, same shuffled arrival order at the PCA
    assert results[0] == results[1]
    # and the order is not the generation order (devices interleaved)
    world2 = make_world(devices=3, periods=2, batch_size=4, seed=124)
    provision_all(world2)
    assert shuffle_dispersion(world2) == 1.0


def test_la_unavailable_defers_requests():
    world = make_world(devices=1)
    device = world.devices[0]
    device.request_certs(0, 2, j_max=2)
    # sabotage one LA response path: mark the chain unknown
    world.bus.run()
    # normal path completed; now exercise chain.error directly
    ref = "feedbeef"
    world.ra._pending[ref] = {"handle": device.handle_id, "request": {},
                              "plvs": {}, "new_chain": True}
    world.ra.on_chain_error(Envelope("la1", "ra", "chain.error",
                                     {"ref": ref, "reason": "unavailable"}))
    assert ref not in world.ra._pending


def _until_queued(world, mtype: str) -> None:
    """Deliver until an envelope of ``mtype`` waits in the queue."""
    while not any(env.mtype == mtype for env in world.bus._queue):
        world.bus._deliver(world.bus._queue.popleft())


def test_pca_rejects_pre_linkage_values_of_another_slot():
    # linkage_value XORs bare bytes, so the PCA's (i, j) check is the one
    # that keeps two slots' pre-linkage values apart
    world = make_world(devices=1)
    world.devices[0].request_certs(0, 1, j_max=2)
    world.bus.run()
    world.ra.flush()
    first, second = [env.payload for env in world.bus._queue]
    world.bus._queue.clear()
    world.bus.send(Envelope("ra", "pca", "cert.request",
                            {**first, "eplv1": second["eplv1"]}))
    world.bus.run()
    assert world.registry.audit_view("pca").count("issued") == 0
    deferred = world.registry.audit_view("ra").scan("deferred")
    assert [(r["rh"], r["reason"]) for r in deferred] == [
        (first["rh"], "pre-linkage index mismatch"),
    ]


@pytest.mark.parametrize("plvs", [
    [5],
    [[0, 0], [0, 1]],
    [[0, 0, "ct"], [0, 1, b"ct"]],
    [[0, 1, b"ct"], [0, 0, b"ct"]],
    [[0, 0, b"ct"]],
    [[2**40, 0, b"ct"], [0, 1, b"ct"]],
], ids=["bare-int", "pairs", "str-ciphertext", "reordered", "short",
        "period-over-32-bits"])
def test_la_grid_other_than_requested_is_a_dead_letter(plvs):
    world = make_world(devices=1)
    device = world.devices[0]
    device.request_certs(0, 1, j_max=2)
    _until_queued(world, "chain.open")
    (ref,) = world.ra._pending
    # a forged reply from an LA source that names the live request
    world.bus._queue.appendleft(Envelope("la1", "ra", "chain.plvs", {
        "ref": ref, "lci": b"\x00", "plvs": plvs,
    }))
    world.bus.run()
    assert world.bus.dead_letters == 1
    # the genuine replies still complete the request
    assert world.registry.audit_view("ra").count("request_index") == 2


def _plant_chain(la, sealed: bytes, stored: bytes, period0: int = 0) -> bytes:
    """An LCI that seals the seed ``sealed`` at ``period0``, for which the
    LA holds a chain record with the seed ``stored``."""
    lci = hybrid_encrypt(
        la.enc_keypair.public, encode({"seed": sealed, "period": period0}),
        DeterministicRandom(7),
    ).encode()
    la.store.put("chain", {
        "lci_digest": hashlib.sha256(lci).hexdigest(), "seed0": stored,
        "period0": period0, "la_id": la.la_id,
    })
    return lci


def test_lci_not_opening_to_stored_seed_raises_invariant_violation():
    world = make_world(devices=1)
    la = world.la1
    lci = _plant_chain(la, b"\x01" * 16, b"\x02" * 16)
    query = sign_message(world.ma.keypair.private, world.pki["ma"].cert,
                         encode({"lci": lci, "period": 0}))
    with pytest.raises(InvariantViolation):
        la.on_ma_lci2seed(
            Envelope("ma", "la1", "ma.lci2seed", {"q": query.encode()})
        )


# --- misbehavior-authority queries ---

# op -> (server, query for an object the server does not hold, reply body)
UNKNOWN_OBJECT_QUERIES = {
    "ma.lv2plv": ("pca", {"lv": b"\x01" * 9}, {"found": False}),
    "ma.lv2rh": ("pca", {"lv": b"\x01" * 9}, {"found": False}),
    "ma.cert2rh": ("pca", {"cert_id": b"\x02" * 8}, {"found": False}),
    "ma.certsbyrh": ("pca", {"rhs": [b"\x03" * 32]}, {"certs": []}),
    "ma.blacklist": ("ra", {"rh": b"\x03" * 32}, {"found": False}),
    "ma.blacklist_nonpseudo": ("ra", {"rh": b"\x03" * 32}, {"found": False}),
    "ma.samedev": ("la1", {"ct_a": b"\x04" * 40, "ct_b": b"\x05" * 40},
                   {"same": False}),
    "ma.lci2seed": ("la1", {"lci": b"\x06" * 90, "period": 0},
                    {"found": False}),
}


def _signed_query(world, server: str, op: str, request) -> tuple[list, str]:
    """Deliver ``request``, signed by the MA, to ``server`` from a sink;
    returns the envelopes the sink got and the digest of the request."""
    seen = []

    class Sink:
        def handle(self, env):
            seen.append(env)

    world.bus.register("sink", Sink())
    raw = encode(request)
    query = sign_message(world.ma.keypair.private, world.pki["ma"].cert, raw)
    world.bus.send(Envelope("sink", server, op, {"q": query.encode()}))
    world.bus.run()
    return seen, hashlib.sha256(raw).hexdigest()


@pytest.mark.parametrize("op", sorted(UNKNOWN_OBJECT_QUERIES))
def test_ma_query_for_unknown_object_answers_not_found(op):
    world = make_world(devices=1)
    server, request, body = UNKNOWN_OBJECT_QUERIES[op]
    seen, digest = _signed_query(world, server, op, request)
    assert [(env.src, env.mtype) for env in seen] == [(server, op + ".resp")]
    assert seen[0].payload == {**body, "echo": digest}
    audit = world.registry.audit_view(server).scan("audit")
    assert [(r["requester"], r["op"], r["object"]) for r in audit] == [
        ("sink", op, digest)
    ]


# op -> (server, a signed request of the wrong shape, given the LA)
MALFORMED_QUERIES = {
    "ma.lv2plv": ("pca", lambda la: {}),
    "ma.lv2rh": ("pca", lambda la: {"lv": 5}),
    "ma.cert2rh": ("pca", lambda la: {"cert_id": "00" * 8}),
    "ma.certsbyrh": ("pca", lambda la: {"rhs": 5}),
    "ma.blacklist": ("ra", lambda la: [1]),
    "ma.blacklist_nonpseudo": ("ra", lambda la: {"rh": [b"\x03" * 32]}),
    "ma.samedev": ("la1", lambda la: {"ct_a": b"\x04" * 40}),
    "ma.lci2seed": ("la1", lambda la: {
        "lci": _plant_chain(la, b"\x01" * 16, b"\x01" * 16)}),
}


@pytest.mark.parametrize("op", sorted(MALFORMED_QUERIES))
def test_malformed_signed_ma_query_is_a_dead_letter_that_writes_nothing(op):
    world = make_world(devices=1)
    server, request = MALFORMED_QUERIES[op]
    component = {"pca": world.pca, "ra": world.ra, "la1": world.la1}[server]
    seen, _ = _signed_query(world, server, op, request(world.la1))
    assert seen == [] and world.bus.dead_letters == 1
    assert world.registry.audit_view(server).scan("audit") == []
    assert component._ma_queries == {}


def test_lci2seed_before_the_chains_first_period_answers_not_found():
    # the chain runs forward only; the MA fails its case at "seeds"
    world = make_world(devices=1)
    lci = _plant_chain(world.la1, b"\x01" * 16, b"\x01" * 16, period0=2)
    seen, digest = _signed_query(world, "la1", "ma.lci2seed",
                                 {"lci": lci, "period": 1})
    assert [env.payload for env in seen] == [{"found": False, "echo": digest}]


def test_lci2seed_past_the_chains_last_period_answers_not_found():
    # a chain serves an enrollment validity from its first period and no
    # further, so no query walks it for long
    answers = []
    for period in (2 + ENROLLMENT_VALIDITY, 3 + ENROLLMENT_VALIDITY):
        world = make_world(devices=1)
        lci = _plant_chain(world.la1, b"\x01" * 16, b"\x01" * 16, period0=2)
        seen, _ = _signed_query(world, "la1", "ma.lci2seed",
                                {"lci": lci, "period": period})
        answers.append(seen[0].payload["found"])
    assert answers == [True, False]


def test_every_ma_query_handler_goes_through_ma_query():
    # a new handler cannot skip the signature, quota and audit steps
    serve = ma_query()(lambda self: {}).__code__
    handlers = [
        value
        for cls in (Pca, Ra, LinkageAuthority)
        for name, value in vars(cls).items()
        if name.startswith("on_ma_")
    ]
    assert len(handlers) == len(UNKNOWN_OBJECT_QUERIES)
    for handler in handlers:
        assert hasattr(handler, "__wrapped__"), handler.__name__
        assert handler.__code__ is serve, handler.__name__


# --- PCA issuance ---

def test_issued_lv_matches_la_side_xor():
    world = make_world(devices=2, periods=2, batch_size=3)
    provision_all(world)
    registry = world.registry
    pca_records = registry.audit_view("pca").scan("issued")
    assert pca_records, "PCA issued nothing"

    # white-box: decrypt stored encrypted plvs with the channel keys and
    # compare the XOR with the certificate's embedded linkage value
    pca_enc = world.pki["pca"].enc_keypair.public
    k1 = channel_key(world.pki["la1"].enc_keypair.private, pca_enc,
                     b"la-to-pca|" + b"\x00\x00\x00\x01")
    k2 = channel_key(world.pki["la2"].enc_keypair.private, pca_enc,
                     b"la-to-pca|" + b"\x00\x00\x00\x02")
    for record in pca_records[:10]:
        plv1 = decode(channel_decrypt(k1, record["eplv1"]))
        plv2 = decode(channel_decrypt(k2, record["eplv2"]))
        lv = bytes(a ^ b for a, b in zip(plv1["plv"], plv2["plv"]))
        assert lv == record["lv"]
        cert = Certificate.decode(record["cert"])
        assert cert.linkage_value == lv
        assert (plv1["i"], plv1["j"]) == (record["i"], record["j"])


def test_devices_reconstruct_all_keys():
    world = make_world(devices=3, periods=3, batch_size=5)
    provision_all(world)
    for device in world.devices:
        assert sum(len(v) for v in device.certs.values()) == 15
        assert not device.quarantined
        for period, entries in device.certs.items():
            assert len(entries) == 5
            for entry in entries:
                assert entry["cert"].valid_from == period


def test_pca_rejects_a_request_naming_an_unknown_la():
    world = make_world(devices=1)
    device = world.devices[0]
    device.request_certs(0, 1, j_max=2)
    world.bus.run()
    single = {**world.ra._buffer[0], "la2": b"\x00\x00\x00\x09"}
    world.bus.send(Envelope("ra", "pca", "cert.request", single))
    world.bus.run()
    assert world.bus.dead_letters == 0
    deferred = world.registry.audit_view("ra").scan("deferred")
    assert deferred == [{"rh": single["rh"], "reason": "unknown linkage authority"}]
    audit = world.registry.audit_view("pca").scan("audit")
    assert [r["op"] for r in audit] == ["cert.request.rejected"]
    assert world.registry.audit_view("pca").count("issued") == 0


@pytest.mark.parametrize("ctype, validities, psid, with_enc_key, reason", [
    (CertType.RSE_APPLICATION, [[5, 1]], 130, False,
     "malformed application request"),
    (CertType.OBE_PSEUDONYM, [[0, 1]], 130, False,
     "malformed application request"),
    (CertType.OBE_ENROLLMENT, [[0, 1]], 130, False,
     "malformed application request"),
    (CertType.RSE_APPLICATION, [[0, 2**32]], 130, False,
     "malformed application request"),
    (CertType.RSE_APPLICATION, [[0, 1]], 2**40, False,
     "malformed application request"),
    (CertType.RSE_APPLICATION, [], 130, False,
     "malformed application request"),
    (CertType.OBE_IDENTIFICATION, [[0, 1], [2, 3]], 130, True,
     "non-conforming certificate"),
], ids=["inverted", "pseudonym", "enrollment", "period-over-32-bits",
        "psid-over-32-bits", "no-validity", "identification-with-enc-key"])
def test_nonconforming_app_request_is_denied(ctype, validities, psid,
                                              with_enc_key, reason):
    world = make_world(devices=1)
    device = world.devices[0]
    device.request_app_certs(ctype, validities, psid=psid,
                             with_enc_key=with_enc_key)
    world.bus.run()
    assert world.bus.dead_letters == 0
    assert device.provision_status == "denied"
    assert device.last_deny_reason.startswith(reason)
    assert device.app_certs == []
    assert world.ra._pending_app == {}
    assert world.registry.audit_view("pca").count("issued_plain") == 0


@pytest.mark.parametrize("tbs", [
    {"ctype": int(CertType.OBE_PSEUDONYM)},
    {"valid_from": 5, "valid_to": 1},
    {"psid": 2**40},
    {"subject_info": "x" * 70_000},
], ids=["pseudonym", "inverted", "psid-over-32-bits", "long-subject-info"])
def test_pca_rejects_a_nonconforming_plain_request(tbs):
    world = make_world(devices=1)
    request = {"rh": b"\x01" * 32, "tbs": {
        "ctype": int(CertType.RSE_APPLICATION),
        "pubkey": mul_g(DeterministicRandom(3).scalar()).encode(),
        "enc_pubkey": None, "valid_from": 0, "valid_to": 1, "psid": 130,
        "subject_info": None, **tbs,
    }}
    world.bus.send(Envelope("ra", "pca", "cert.request.plain", request))
    world.bus.run()
    assert world.bus.dead_letters == 0
    deferred = world.registry.audit_view("ra").scan("deferred")
    assert [r["reason"].split(":")[0] for r in deferred] == [
        "non-conforming certificate"]
    audit = world.registry.audit_view("pca").scan("audit")
    assert [r["op"] for r in audit] == ["cert.request.rejected"]


def test_pca_store_has_no_enrollment_material():
    world = make_world(devices=2)
    provision_all(world)
    enrollments = {d.enrollment_cert_bytes for d in world.devices}
    handles = {d.handle_id for d in world.devices}
    for kind in world.registry.audit_view("pca").kinds():
        for record in world.registry.audit_view("pca").scan(kind):
            for value in record.values():
                assert value not in enrollments
                assert value not in handles


# --- batches ---

def test_batch_counts_and_idempotent_download():
    world = make_world(devices=2, periods=4, batch_size=5)
    provision_all(world)
    ra_store = world.registry.audit_view("ra")
    device = world.devices[0]
    batches = ra_store.where("batch", handle=device.handle_id)
    assert len(batches) == 4
    assert all(len(b["items"]) == 5 for b in batches)
    assert {b["name"] for b in batches} == {
        f"{device.handle_id}_{p}.batch" for p in range(4)
    }

    # resumed download returns identical bytes
    captured = []

    original = device.on_batch_response

    def capture(env):
        captured.append(env.payload)
        original(env)

    device.on_batch_response = capture
    device.download_batch(2)
    device.download_batch(2)
    world.bus.run()
    assert captured[0]["items"] == captured[1]["items"]


def test_blacklisted_download_refused():
    world = make_world(devices=2)
    provision_all(world)
    device = world.devices[0]
    record = world.registry.audit_view("ra").first(
        "enrollment", handle=device.handle_id
    )
    record["blacklisted"] = True
    device.download_batch(0)
    world.bus.run()
    assert device.provision_status == "batch-denied"


def test_unknown_handle_not_found():
    world = make_world(devices=1)
    provision_all(world)
    device = world.devices[0]
    real = device.handle_id
    device.handle_id = "00" * 8
    device.download_batch(0)
    world.bus.run()
    assert device.provision_status == "batch-not-found"
    device.handle_id = real


# --- topping off: existing chain continues ---

def test_topoff_reuses_linkage_chain():
    world = make_world(devices=1, periods=2, batch_size=3)
    device = world.devices[0]
    provision_all(world)
    record = world.registry.audit_view("ra").first(
        "enrollment", handle=device.handle_id
    )
    assert len(record["lci1"]) == 1
    lci1 = record["lci1"][0]

    device.request_certs(2, 2, j_max=3)  # disjoint follow-on span
    world.bus.run()
    world.ra.flush()
    world.bus.run()
    record = world.registry.audit_view("ra").first(
        "enrollment", handle=device.handle_id
    )
    assert record["lci1"] == [lci1]  # same chain, no new LCI

    # the LA keeps a single chain whose evolution covers the new periods
    la1 = world.registry.audit_view("la1")
    assert la1.count("chain") == 1
    chain = la1.scan("chain")[0]
    seed0 = LinkageSeed(chain["seed0"], chain["period0"])
    s3 = seed_at(b"\x00\x00\x00\x01", seed0, 3)
    expect = pre_linkage_values(b"\x00\x00\x00\x01", s3.value, 1)[0]
    device.download_batch(3)
    world.bus.run()
    issued_p3 = [
        r for r in world.registry.audit_view("pca").scan("issued")
        if r["i"] == 3 and r["j"] == 0
    ]
    assert len(issued_p3) == 1
    # the certificate's lv is consistent with the original chain at p3
    cert = Certificate.decode(issued_p3[0]["cert"])
    k2 = channel_key(world.pki["la2"].enc_keypair.private,
                     world.pki["pca"].enc_keypair.public,
                     b"la-to-pca|" + b"\x00\x00\x00\x02")
    plv2 = decode(channel_decrypt(k2, issued_p3[0]["eplv2"]))
    lv = bytes(a ^ b for a, b in zip(expect, plv2["plv"]))
    assert cert.linkage_value == lv


def test_request_before_the_chains_first_period_is_refused_by_the_las():
    # the seed chain runs forward only: a request before its first period
    # is refused, never walked backward
    world = make_world(devices=1, periods=2, batch_size=2)
    device = world.devices[0]
    device.request_certs(10, 2, j_max=2)
    world.bus.run()
    plvs = [world.registry.audit_view(la).count("plv_index")
            for la in ("la1", "la2")]
    assert plvs == [4, 4]
    device.request_certs(0, 2, j_max=2)  # disjoint, so the RA accepts it
    world.bus.run()
    assert device.provision_status == "acknowledged"
    assert world.ra._pending == {} and world.bus.dead_letters == 0
    assert [world.registry.audit_view(la).count("plv_index")
            for la in ("la1", "la2")] == plvs


def test_request_past_the_enrollment_certificate_is_denied_before_any_write():
    world = make_world(devices=1, periods=2, batch_size=2)
    device = world.devices[0]
    provision_all(world)
    before = store_fingerprint(world.registry)
    device.request_certs(400_000, 1, j_max=1)  # far past valid_to
    world.bus.run()
    assert device.provision_status == "denied"
    assert device.last_deny_reason == "time span outside the enrollment certificate"
    assert store_fingerprint(world.registry) == before


def test_plv_request_past_the_chains_last_period_is_a_chain_error():
    world = make_world(devices=1)
    lci = _plant_chain(world.la1, b"\x01" * 16, b"\x01" * 16)
    seen = []

    class Sink:
        def handle(self, env):
            seen.append(env)

    world.bus.register("sink", Sink())
    for start in (ENROLLMENT_VALIDITY, ENROLLMENT_VALIDITY + 1):
        world.bus.send(Envelope("sink", "la1", "plv.request", {
            "ref": "r", "lci": lci, "start": start, "n_periods": 1, "j_max": 1,
        }))
    world.bus.run()
    assert [env.mtype for env in seen] == ["chain.plvs", "chain.error"]
    assert seen[1].payload == {"ref": "r", "reason": "periods outside the chain"}
    assert world.registry.audit_view("la1").count("plv_index") == 1


# --- MITM detection ---

def test_response_key_substitution_detected_100_percent():
    world = make_world(devices=3, periods=2, batch_size=4)
    target = world.devices[1]
    world.ra.mitm_handles.add(target.handle_id)
    provision_all(world)
    assert world.ra.mitm_injected == 8
    assert target.mitm_detected == 8
    assert target.certs == {} or all(
        p not in target.certs for p in range(world.config.periods)
    )
    # untouched devices are unaffected
    assert world.devices[0].mitm_detected == 0
    assert sum(len(v) for v in world.devices[0].certs.values()) == 8


def _expand_a_mitm_grid(workers, chunk, monkeypatch):
    """The RA's state after it expanded one 120-slot grid of a device in
    ``mitm_handles``, in one run of the bus."""
    monkeypatch.setattr(bus_module, "POOL_WORKERS", workers)
    monkeypatch.setattr(bus_module, "POOL_CHUNK", chunk)
    world = make_world(devices=2, periods=6, batch_size=20)
    target = world.devices[1]
    world.ra.mitm_handles.add(target.handle_id)
    target.request_certs(0, 6, j_max=20)
    world.bus.run()
    ra = world.ra
    return (ra._buffer, world.registry.audit_view("ra").scan("request_index"),
            ra._mitm_state, ra.mitm_injected)


def test_deferred_expansion_matches_inline_expansion(monkeypatch):
    pooled = _expand_a_mitm_grid(1, 2, monkeypatch)
    inline = _expand_a_mitm_grid(0, 8, monkeypatch)
    assert pooled == inline
    singles, index, mitm_state, injected = pooled
    assert len(singles) == len(index) == len(mitm_state) == injected == 120
    assert [(s["i"], s["j"]) for s in singles] == [
        (i, j) for i in range(6) for j in range(20)]


def _two_grids_in_one_run(deliver_in_run: bool):
    """Two MITM devices' grids completed by consecutive ``chain.plvs``
    deliveries, a day after other singles entered the shuffle buffer, so
    that the first grid's commit shuffles the buffer (an RNG draw) before
    the second grid's attack keys are drawn."""
    world = make_world(devices=3, periods=6, batch_size=20)
    bus, ra = world.bus, world.ra
    ra.mitm_handles.update(d.handle_id for d in world.devices[:2])
    world.devices[2].request_certs(0, 1, j_max=2)
    bus.run()
    for device in world.devices[:2]:
        device.request_certs(0, 6, j_max=20)
    replies = []
    while bus._queue:
        env = bus._queue.popleft()
        if env.mtype == "chain.plvs":
            replies.append(env)
        else:
            bus._deliver(env)
    replies.sort(key=lambda env: env.src)  # la1, la1, la2, la2
    world.clock.advance_minutes(MINUTES_PER_DAY)
    for env in replies:
        if deliver_in_run:
            bus.send(env)
        else:
            bus._deliver(env)  # outside run(): every commit runs at once
    bus.run()
    return (world.trace.digest(), store_fingerprint(world.registry),
            ra.mitm_injected, ra.rng.randbytes(8))


@pytest.mark.parametrize("workers, chunk", [(0, 8), (1, 2)],
                         ids=["inline", "one-worker"])
def test_expansion_commits_keep_serial_rng_order(workers, chunk, monkeypatch):
    serial = _two_grids_in_one_run(deliver_in_run=False)
    monkeypatch.setattr(bus_module, "POOL_WORKERS", workers)
    monkeypatch.setattr(bus_module, "POOL_CHUNK", chunk)
    assert _two_grids_in_one_run(deliver_in_run=True) == serial
    assert serial[2] == 240


# --- re-enrollment ---

def test_reenroll_rollover_and_continue():
    world = make_world(devices=2, periods=2)
    device = world.devices[0]
    provision_all(world)
    old_cert = device.enrollment_cert_bytes
    device.reenroll_reestablish()
    world.bus.run()
    assert device.provision_status == "re-enrolled"
    assert device.enrollment_cert_bytes != old_cert
    fresh = Certificate.decode(device.enrollment_cert_bytes)
    assert verify_chain(fresh, device.trust).ok
    # provisioning continues under the new identity
    device.request_certs(0, 1, j_max=2)
    world.bus.run()
    assert device.provision_status == "acknowledged"


def test_reenroll_blacklisted_refused():
    world = make_world(devices=2)
    device = world.devices[0]
    provision_all(world)
    record = world.registry.audit_view("ra").first(
        "enrollment", handle=device.handle_id
    )
    record["blacklisted"] = True
    device.reenroll_reestablish()
    world.bus.run()
    assert device.provision_status == "denied"
    assert "blacklisted" in device.last_deny_reason


def test_reenroll_requires_recertified_eca_when_flagged():
    world = make_world(devices=2)
    device = world.devices[0]
    provision_all(world)
    world.ra.require_recertified_eca = True
    device.reenroll_reestablish()
    world.bus.run()
    assert device.provision_status == "denied"
    assert "re-certified" in device.last_deny_reason
    # once the SCMS manager re-certifies the ECA, roll-over succeeds
    eca_cert = world.pki["eca"].cert
    world.ra.recertified_ecas[eca_cert.cert_id()] = eca_cert
    device.reenroll_reestablish()
    world.bus.run()
    assert device.provision_status == "re-enrolled"


def test_reenrollment_certificate_checked_before_adoption():
    world = make_world(devices=2)
    device, other = world.devices
    device.reenroll_reestablish()
    pending_key = device._pending_reenroll["key"]
    # an enrollment certificate for the pending key from an unknown issuer
    stranger = KeyPair.generate(DeterministicRandom(5, "stranger"))
    unchained = issue_certificate(
        replace(Certificate.decode(device.enrollment_cert_bytes),
                subject_key=pending_key.public),
        stranger.private,
    )
    # each one arrives, straight from another device, before the real
    # certificate has made its way back through the proxy
    for junk in (b"junk", world.pki["pca"].cert.encode(),
                 other.enrollment_cert_bytes, unchained.encode()):
        world.bus.send(Envelope(other.id, device.id, "reenroll.issued",
                                {"cert": junk}))
    world.bus.run()
    assert world.bus.dead_letters == 4
    assert device.provision_status == "re-enrolled"
    fresh = Certificate.decode(device.enrollment_cert_bytes)
    assert fresh.subject_key == pending_key.public
    assert verify_chain(fresh, device.trust).ok


def test_crl_and_policy_published_only_by_their_generators():
    world = make_world(devices=1)
    craca = world.pki["root"].cert.cert_id()
    forged = Crl(series=SERIES_PSEUDONYM, craca_id=craca, issue_period=0,
                 sequence=0xFFFF_FFFF, crlg_cert_id=world.pki["crlg"].cert.cert_id(),
                 signature=b"\x11" * 64)
    policy = dict(world.crl_store._policy)
    world.bus.send(Envelope("obe0", "crlstore", "crl.publish",
                            {"crl": forged.encode()}))
    world.bus.send(Envelope("obe0", "crlstore", "policy.publish",
                            {"name": "gpf", "data": b"junk"}))
    world.bus.run()
    assert world.bus.dead_letters == 2
    assert world.crl_store._policy == policy
    # the MA's CRL, with its lower sequence, is still taken
    crl = world.ma.publish_crl(SERIES_PSEUDONYM)
    world.bus.run()
    assert world.crl_store.crls.get(craca, SERIES_PSEUDONYM) == crl


def test_device_handle_derivation():
    raw = b"enrollment-cert-bytes"
    assert device_handle(raw) == hashlib.sha256(raw).digest()[:8].hex()


def test_one_year_span_accepted():
    world = make_world(devices=1)
    device = world.devices[0]
    device.request_certs(0, 52, j_max=20)  # one year of weekly batches
    world.bus.run()
    assert device.provision_status == "acknowledged"
    assert len(world.ra._buffer) == 52 * 20


def test_ra_observes_lop_as_source_for_all_device_traffic():
    world = make_world(devices=3, keep_trace_events=True)
    provision_all(world)
    ra_arrivals = [e for e in world.trace.events if e["dst"] == "ra"]
    assert ra_arrivals
    # no device identifier ever appears as a source at the RA; every
    # device-originated message type arrives from the proxy
    assert not any(e["src"].startswith(("obe", "rse")) for e in ra_arrivals)
    device_msgs = [e for e in ra_arrivals
                   if e["t"] in ("provision.request", "batch.request")]
    assert device_msgs
    assert all(e["src"] == "lop" for e in device_msgs)


def test_root_rotation_with_eca_recertification():
    """Root revoked, replacement endorsed by electors, ECA re-certified:
    devices re-enroll over the air, no secure environment needed."""
    from scms.bus import Envelope, MessageBus
    from scms.crypto import KeyPair
    from scms.rootmgmt import (
        ENDORSE_ROOT,
        REVOKE_ROOT,
        build_ballot,
    )

    world = make_world(devices=2, periods=2)
    provision_all(world)
    device = world.devices[0]
    old_enrollment = Certificate.decode(device.enrollment_cert_bytes)

    # stand up the replacement hierarchy; the ECA keeps its key and is
    # re-certified under the new root
    rng = world.rng.child("rotation")
    root2_key = KeyPair.generate(rng)
    series, valid = SERIES_COMPONENT, (0, 1 << 20)
    craca = world.pki["root"].cert.cert_id()
    root2_cert = issue_component_cert(
        root2_key, "root", None, None, b"\x00" * 8, series, valid, None
    )
    ica2_key = KeyPair.generate(rng)
    ica2_cert = issue_component_cert(
        ica2_key, "ica", root2_cert, root2_key, craca, series, valid, None
    )
    eca2_cert = issue_component_cert(
        world.pki["eca"].keypair, "eca", ica2_cert, ica2_key, craca, series,
        valid, None,
    )

    # elector ballots rotate the root fleet-wide
    voters = world.electors[:2]
    for ballot in (build_ballot(ENDORSE_ROOT, root2_cert, voters),
                   build_ballot(REVOKE_ROOT, world.pki["root"].cert, voters)):
        payload = {"ballot": ballot.encode()}
        world.bus.send(Envelope("pg", "ra", "ballot.publish", payload))
        for d in world.devices:
            world.bus.send(Envelope("pg", d.id, "ballot.publish", payload))
    world.bus.run()

    # the old enrollment certificate no longer chains anywhere
    assert not verify_chain(old_enrollment, device.trust).ok

    # SCMS manager: distribute the new chains and mark the ECA re-certified
    world.pg.publish_gccf([
        [eca2_cert.encode(), ica2_cert.encode(), root2_cert.encode()],
    ])
    world.bus.run()
    for d in world.devices:
        d.fetch_policy()
    world.bus.run()
    for cert in (ica2_cert, eca2_cert):
        world.ra.trust.add_cert(cert)
    world.ra.require_recertified_eca = True
    world.ra.recertified_ecas[world.pki["eca"].cert.cert_id()] = eca2_cert
    world.eca.cert = eca2_cert  # same key, re-certified certificate

    device.reenroll_reestablish()
    world.bus.run()
    assert device.provision_status == "re-enrolled"
    fresh = Certificate.decode(device.enrollment_cert_bytes)
    result = verify_chain(fresh, device.trust)
    assert result.ok, result.reason
    assert fresh.issuer_id == eca2_cert.cert_id()


def test_lop_drops_sessions_whose_reply_never_came():
    world = make_world(devices=1)
    lop = world.lop

    def forward(ref: bytes) -> None:
        world.bus.send(Envelope("obe0", "lop", "lop.fwd", {
            "dst": "ra", "mtype": "no.such", "body": {"reply_ref": ref},
        }))

    for n in range(50):
        forward(n.to_bytes(8, "big"))
    world.bus.run()
    assert world.bus.dead_letters == 50  # the RA refuses every one
    assert len(lop._sessions) == 50
    world.clock.set(1)
    forward(b"\xfe" * 8)
    forward((0).to_bytes(8, "big"))  # a reused reference is opened anew
    world.bus.run()
    assert len(lop._sessions) == 51  # opened in the previous period: kept
    world.clock.set(2)
    forward(b"\xfd" * 8)
    world.bus.run()
    assert list(lop._sessions) == [
        b"\xfe" * 8, (0).to_bytes(8, "big"), b"\xfd" * 8]
    world.clock.set(4)
    forward(b"\xff" * 8)
    world.bus.run()
    assert list(lop._sessions) == [b"\xff" * 8]


def test_pca_rejects_an_identity_response_key():
    # nothing can be sealed to the identity; before, the run aborted
    world = make_world(devices=1)
    world.devices[0].request_certs(0, 1, j_max=2)
    world.bus.run()
    single = {**world.ra._buffer[0], "resp_key": b"\x00" * 33}
    world.bus.send(Envelope("ra", "pca", "cert.request", single))
    world.bus.run()
    assert world.bus.dead_letters == 0
    deferred = world.registry.audit_view("ra").scan("deferred")
    assert deferred == [{"rh": single["rh"],
                         "reason": "response key is the identity"}]
    assert world.registry.audit_view("pca").count("issued") == 0


@pytest.mark.parametrize("plaintext", [
    {"plv": b"\x00" * 9, "j": 0}, ["plv", "i", "j"],
], ids=["no-i", "list"])
def test_pca_rejects_a_malformed_pre_linkage_plaintext(plaintext):
    # the LA's channel plaintext is read through fields; before, one
    # without "i" aborted the run with KeyError and a list with TypeError
    world = make_world(devices=1)
    world.devices[0].request_certs(0, 1, j_max=2)
    world.bus.run()
    eplv1 = channel_encrypt(world.la1._pca_channel, encode(plaintext),
                            DeterministicRandom(9))
    single = {**world.ra._buffer[0], "eplv1": eplv1}
    world.bus.send(Envelope("ra", "pca", "cert.request", single))
    world.bus.run()
    assert world.bus.dead_letters == 0
    deferred = world.registry.audit_view("ra").scan("deferred")
    assert deferred == [{"rh": single["rh"],
                         "reason": "malformed pre-linkage value"}]
    assert world.registry.audit_view("pca").count("issued") == 0


@pytest.mark.parametrize("key, reason", [
    ("cocoon", "malformed cocoon key"),
    ("resp_key", "malformed response key"),
])
def test_pca_refuses_an_off_curve_key(key, reason):
    # before, the handler's decode raised ParseError: a dead letter that
    # left neither an audit record nor a deferred request
    world = make_world(devices=1)
    world.devices[0].request_certs(0, 1, j_max=2)
    world.bus.run()
    single = {**world.ra._buffer[0], key: b"\x02" + b"\x11" * 32}
    world.bus.send(Envelope("ra", "pca", "cert.request", single))
    world.bus.run()
    assert world.bus.dead_letters == 0
    deferred = world.registry.audit_view("ra").scan("deferred")
    assert deferred == [{"rh": single["rh"], "reason": reason}]
    audit = world.registry.audit_view("pca").scan("audit")
    assert [r["op"] for r in audit] == ["cert.request.rejected"]
    assert world.registry.audit_view("pca").count("issued") == 0


def test_pca_rejects_an_identity_cocoon_key():
    # the butterfly key would be c*G, a key the PCA chose; before, it issued
    world = make_world(devices=2, seed=3)
    world.devices[0].request_certs(0, 1, j_max=2)
    world.bus.run()
    single = {**world.ra._buffer[0], "cocoon": b"\x00" * 33}
    world.bus.send(Envelope("ra", "pca", "cert.request", single))
    world.bus.run()
    assert world.bus.dead_letters == 0
    deferred = world.registry.audit_view("ra").scan("deferred")
    assert deferred == [{"rh": single["rh"],
                         "reason": "cocoon key is the identity"}]
    assert world.registry.audit_view("pca").count("issued") == 0
