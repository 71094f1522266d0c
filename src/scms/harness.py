"""Scenario harness: world construction, deterministic runner, audits.

A scenario builds a complete SCMS instance (electors, root, intermediate
and enrollment CAs, RA, PCA, two LAs, MA with CRL generator, LOP, policy
generator, CRL store) plus a fleet of devices, then drives the lifecycle
period by period: bootstrap, provisioning, batch pickup, CRL pulls, BSM
traffic and scripted events. Each event action is one row of ``EVENTS``,
with its keys and the function that applies it, and each ballot kind one
row of ``BALLOTS``. ``ScenarioConfig`` checks every event against its row
where the config is built, so a run applies only events that fit. Runs are
fully deterministic under a seed; the trace digest is the replay
fingerprint.

Post-run audits check every authority store against ``SEPARATION``, the
content classes each holder may not hold, reconcile the MA's signed-query
log against the authorities' audit logs, and check request-hash
traceability. Shuffle dispersion, the order in which the PCA sees
requests, is checked by the tests, not by the audits.
"""

from __future__ import annotations

import json
import time
from collections import namedtuple
from collections.abc import Container
from dataclasses import dataclass, field
from typing import get_type_hints

from .authorities import (
    CrlStore,
    Dcm,
    Eca,
    Identity,
    LinkageAuthority,
    Lop,
    Pca,
    Pg,
    Ra,
)
from .bus import (
    _PROXIED, MINUTES_PER_DAY, MINUTES_PER_PERIOD, Clock, Envelope, MessageBus,
    Trace, _is_end_entity,
)
from .certmodel import (
    ALG_DOMAIN_SEP,
    CERT_MAGIC,
    ENROLLMENT_TYPES,
    SERIES_COMPONENT,
    SERIES_ROOT_MANAGED,
    CertType,
    Certificate,
    issue_component_cert,
)
from .crypto import DeterministicRandom, KeyPair
from .device import Device
from .encoding import decode, encode, fields
from .errors import ParseError, ScmsError
from .linkage import (
    LA1_ID, LA2_ID, LV_BYTES, SEED_BYTES, LinkageSeed, pre_linkage_values, seed_at,
)
from .misbehavior import Crlg, Ma
from .persistence import StoreRegistry
from .rootmgmt import (
    ENDORSE_ELECTOR,
    ENDORSE_ROOT,
    REVOKE_ELECTOR,
    REVOKE_ROOT,
    TrustState,
    build_ballot,
    make_elector,
)

CRLG_SERIES = [1, 2, 3, 4, 256]
ELECTORS = 3  # at the start of a run; each add-elector ballot adds one

# a device changes its signing certificate every this many simulated
# minutes; the policy file carries it beside the config's settings
ROTATION_MINUTES = 5

# the ids World registers besides its devices, obe0, obe1, ...
COMPONENTS = ("lop", "crlstore", "eca", "pca", "la1", "la2", "ra", "ma", "pg")

# role -> (issuer role, has an encryption key, root-managed CRL series);
# the PKI draws each role's keys in this order, after the electors
PKI_ROLES = {
    "root": (None, False, False),
    "ica": ("root", False, False),
    "eca": ("ica", False, False),
    "pca": ("ica", True, False),
    "ra": ("ica", True, False),
    "la1": ("ica", True, False),
    "la2": ("ica", True, False),
    "ma": ("root", True, True),
    "crlg": ("root", False, True),
    "pg": ("root", False, True),
}


@dataclass
class ScenarioConfig:
    name: str = "scenario"
    seed: int = 1
    devices: int = 10
    periods: int = 4
    batch_size: int = 20
    detector_threshold: int = 3
    bsms_per_device_per_period: int = 2
    listeners_per_bsm: int = 2
    crl_capacity: int = 10_000  # revocation entries a device keeps
    mitm_devices: list[int] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    keep_trace_events: bool = False

    def __post_init__(self) -> None:
        """Refuse with ``ScmsError`` a config that cannot run, however it is
        built: its fields' types, its sizes, and each event where it applies."""
        fields(vars(self), **get_type_hints(type(self)))
        if self.periods < 1 or self.devices < 1:
            raise ScmsError("a scenario needs at least one period and one device")
        negative = [name for name in ("batch_size", "detector_threshold",
                                      "bsms_per_device_per_period",
                                      "listeners_per_bsm", "crl_capacity")
                    if getattr(self, name) < 0]
        if negative:
            raise ScmsError(f"{', '.join(negative)} must not be negative")
        fleet = range(self.devices)
        if any(i not in fleet for i in self.mitm_devices):
            raise ScmsError("mitm_devices names a device outside the fleet")
        known = {"period": range(self.periods), "action": EVENTS,
                 "ballot kind": BALLOTS, "device": fleet, "elector": range(ELECTORS),
                 "component": {*COMPONENTS, *(f"obe{n}" for n in fleet)},
                 # devices sent no certificate, or whose packages are all quarantined
                 "certless": fleet if self.batch_size == 0 else self.mitm_devices}
        # in the order the events apply
        for event in sorted(self.events, key=lambda e: fields(e, period=int)):
            _check_row("scenario", event, EVENT, known)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        """A scenario file, which the constructor checks."""
        data = json.loads(text)
        if type(data) is not dict:
            raise ScmsError("a scenario must be a JSON object")
        unknown = set(data) - set(get_type_hints(cls))
        if unknown:
            raise ScmsError(f"unknown scenario fields: {sorted(unknown)}")
        return cls(**data)


class World:
    """A fully wired SCMS instance."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.rng = DeterministicRandom(config.seed, "world")
        self.clock = Clock()
        self.trace = Trace(keep_events=config.keep_trace_events)
        self.bus = MessageBus(clock=self.clock, trace=self.trace)
        self.registry = StoreRegistry()
        self._build_pki()
        self._build_components()
        self._build_devices()

    # --- PKI and components ---

    def _build_pki(self) -> None:
        rng = self.rng.child("pki")
        self.electors = [
            make_elector(rng, ALG_DOMAIN_SEP if n == 2 else 0)
            for n in range(ELECTORS)
        ]
        self.pki: dict[str, Identity] = {}
        for role, (issuer_role, has_enc, root_managed) in PKI_ROLES.items():
            key = KeyPair.generate(rng)
            enc = KeyPair.generate(rng) if has_enc else None
            issuer = self.pki.get(issuer_role)
            # the root is revoked by elector ballots, not a CRL, so it
            # names no CRACA
            craca = (b"\x00" * 8 if issuer is None
                     else self.pki["root"].cert.cert_id())
            crl_series = SERIES_ROOT_MANAGED if root_managed else SERIES_COMPONENT
            cert = issue_component_cert(
                key, role, None if issuer is None else issuer.cert,
                None if issuer is None else issuer.keypair, craca, crl_series,
                (0, 1 << 20), None if enc is None else enc.public,
            )
            self.pki[role] = Identity(key, cert, enc)

    def _chain(self, role: str) -> list[bytes]:
        """Encoded certificates from ``role`` up to the root."""
        chain = []
        while role is not None:
            chain.append(self.pki[role].cert.encode())
            role = PKI_ROLES[role][0]
        return chain

    def _authority_trust(self) -> TrustState:
        trust = TrustState([cert for _, cert in self.electors])
        for identity in self.pki.values():
            trust.add_cert(identity.cert)
        trust.endorse_root(self.pki["root"].cert.cert_id())
        return trust

    def _build_components(self) -> None:
        pki, config = self.pki, self.config
        args = (self.bus, self.registry, self.rng)
        craca = pki["root"].cert.cert_id()
        # every server of MA queries answers under one per-period quota
        ma_quota = (pki["ma"].cert, max(64, config.devices * 4))
        pca_enc = pki["pca"].enc_keypair.public
        self.lop = Lop("lop", *args)
        self.crl_store = CrlStore("crlstore", *args)
        self.eca = Eca("eca", *args, pki["eca"], craca)
        self.pca = Pca("pca", *args, pki["pca"], *ma_quota, craca, {
            LA1_ID: pki["la1"].enc_keypair.public,
            LA2_ID: pki["la2"].enc_keypair.public,
        })
        self.la1 = LinkageAuthority("la1", *args, pki["la1"], *ma_quota,
                                    LA1_ID, pca_enc)
        self.la2 = LinkageAuthority("la2", *args, pki["la2"], *ma_quota,
                                    LA2_ID, pca_enc)
        self.ra = Ra("ra", *args, pki["ra"], *ma_quota, self._authority_trust())
        crlg = Crlg(pki["crlg"].keypair, pki["crlg"].cert, craca)
        self.ma = Ma("ma", *args, pki["ma"], crlg, config.detector_threshold,
                     self._authority_trust())
        self.pg = Pg("pg", *args, pki["pg"])
        self.bundle = {
            "electors": [cert.encode() for _, cert in self.electors],
            "roots": [pki["root"].cert.encode()],
            **{role: pki[role].cert.encode()
               for role in ("ica", "pca", "eca", "ra", "ma", "pg", "crlg")},
            "crlg_series": CRLG_SERIES,
            # every device's settings, and the trust chains
            "gpf": self.pg.publish_gpf({
                "batch_size": config.batch_size,
                "rotation_minutes": ROTATION_MINUTES,
                "crl_capacity": config.crl_capacity,
            }),
            "gccf": self.pg.publish_gccf(
                [self._chain(role) for role in ("pca", "eca", "ma", "crlg")]),
        }
        self.bus.run()
        self.dcm = Dcm({"obe-model-a", "rse-model-a"}, self.eca, self.bundle)

    def _build_devices(self) -> None:
        self.devices: list[Device] = []
        for n in range(self.config.devices):
            device = Device(f"obe{n}", self.bus, self.rng)
            device.bootstrap(self.dcm)
            self.devices.append(device)


@dataclass
class ScenarioResult:
    trace_digest: str
    metrics: dict
    violations: list[str]
    world: World


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    started = time.perf_counter()
    world = World(config)
    bus, clock = world.bus, world.clock

    world.ra.mitm_handles = {
        world.devices[i].handle_id for i in config.mitm_devices
    }
    provision_fleet(world)

    for period in range(config.periods):
        clock.set(period, 0)
        for device in world.devices:
            device.fetch_crl()
        bus.run()

        for event in (e for e in config.events if e["period"] == period):
            EVENTS[event["action"]].apply(world, event)
            bus.run()

        _bsm_traffic(world, period)
        world.ra.flush_reports()
        bus.run()

    # final propagation: everyone pulls the latest CRLs once more
    clock.set(config.periods - 1, 0)
    for device in world.devices:
        device.fetch_crl()
    bus.run()

    violations = run_audits(world)
    metrics = collect_metrics(world)
    metrics["elapsed_seconds"] = round(time.perf_counter() - started, 3)
    return ScenarioResult(
        trace_digest=world.trace.digest(),
        metrics=metrics,
        violations=violations,
        world=world,
    )


def provision_fleet(world: World) -> None:
    """Period 0: every device requests certificates for the whole run, a
    day passes so that the RA's shuffle buffer flushes on the day rule,
    and every device picks up every weekly batch while it has
    connectivity (revocation must catch offenders who already hold future
    certificates, which is the point of linkage values)."""
    config, bus = world.config, world.bus
    for device in world.devices:
        device.request_certs(0, config.periods)
        bus.run()
    world.clock.advance_minutes(MINUTES_PER_DAY)
    world.ra.maybe_flush()
    bus.run()
    for device in world.devices:
        for period in range(config.periods):
            device.download_batch(period)
        bus.run()


def _bsm_traffic(world: World, period: int) -> None:
    config = world.config
    n = len(world.devices)
    if n < 2 or config.bsms_per_device_per_period == 0:
        return
    listeners = min(config.listeners_per_bsm, n - 1)
    for b in range(config.bsms_per_device_per_period):
        # spread emissions across the week so rotation kicks in
        minute = (b * MINUTES_PER_PERIOD) // max(1, config.bsms_per_device_per_period)
        world.clock.set(period, minute)
        for idx, device in enumerate(world.devices):
            peers = [
                world.devices[(idx + k + 1) % n].id for k in range(listeners)
            ]
            device.broadcast_bsm(peers, position=[idx, period], speed=50)
        world.bus.run()


# --- scenario events ---

def _misbehavior(world: World, event: dict) -> None:
    offender = world.devices[event["offender"]]
    reporters = [world.devices[i] for i in event["reporters"]]
    bsm = offender.broadcast_bsm([r.id for r in reporters], position=[-3, 0], speed=50)
    world.bus.run()
    if bsm is None:
        raise ScmsError("offender has no certificate to misbehave with")
    for reporter in reporters:
        reporter.report_misbehavior(bsm)
    world.bus.run()
    world.ra.flush_reports()


def _check_misbehavior(event: dict, known: dict) -> None:
    if event["offender"] in known["certless"]:
        raise ScmsError("misbehavior event: offender has no certificate to misbehave with")
    if any(i in known["certless"] for i in event["reporters"]):
        raise ScmsError("misbehavior event: a reporter has no certificate to sign the report")


def _ballot(world: World, event: dict) -> None:
    voters = [world.electors[i] for i in event["voters"]]
    kind, subject = BALLOTS[event["kind"]].apply(world, event)
    payload = {"ballot": build_ballot(kind, subject, voters).encode()}
    for dst in ["ra", *(device.id for device in world.devices)]:
        world.bus.send(Envelope("pg", dst, "ballot.publish", payload))


def _add_elector(world: World, event: dict) -> tuple:
    new = make_elector(world.rng.child("new-elector"))
    world.electors.append(new)
    return ENDORSE_ELECTOR, new[1]


def _topoff(world: World, event: dict) -> None:
    world.devices[event["device"]].request_certs(event["start"], event["n_periods"])
    world.bus.run()
    world.ra.flush()


def _inject(world: World, event: dict) -> None:
    payload = _from_json(event.get("payload"))
    world.bus.send(Envelope(event["src"], event["dst"], event["type"], payload))


def _check_inject(event: dict, known: dict) -> None:
    if event["dst"] in _PROXIED and _is_end_entity(event["src"]):
        raise ScmsError("inject event: an end entity sends around the LOP")
    try:  # JSON text may hold a lone surrogate, which the trace cannot hash
        event["type"].encode()
    except UnicodeEncodeError:
        raise ScmsError("inject type is not UTF-8 text") from None
    try:
        encode(_from_json(event.get("payload")))
    except (TypeError, ValueError, RecursionError):
        raise ScmsError("inject payload is not a wire value") from None


def _from_json(value):
    """An inject payload as sent: JSON has no bytes, so ``{"$bytes": hex}``
    stands for them, at any depth."""
    if isinstance(value, dict):
        if list(value) == ["$bytes"]:
            return bytes.fromhex(value["$bytes"])
        return {key: _from_json(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_from_json(item) for item in value]
    return value


# a kind of event: its keys' types, its applier, and any further check on load
Row = namedtuple("Row", "keys apply check", defaults=[None])

# what an event key names, in every action that has it
NAMED = {"period": "period", "action": "action", "kind": "ballot kind",
         "offender": "device", "reporters": "device", "device": "device",
         "voters": "elector", "index": "elector",
         "src": "component", "dst": "component"}


def _check_row(label: str, event: dict, row: Row, known: dict) -> None:
    """Refuse an event that does not fit ``row`` or names what ``known`` lacks."""
    for key, value in zip(row.keys, fields(event, **row.keys)):
        for one in value if type(value) is list else [value]:
            if key in NAMED and one not in known[NAMED[key]]:
                raise ScmsError(f"{label} event: no {NAMED[key]} {one!r}")
    if row.check is not None:
        row.check(event, known)


# the keys of every event; the row of its action checks the rest
EVENT = Row({"period": int, "action": str}, None, lambda event, known: _check_row(
    event["action"], event, EVENTS[event["action"]], known))

# each scenario action, applied by run_scenario through its row
EVENTS = {
    "misbehavior": Row({"offender": int, "reporters": list[int]}, _misbehavior,
                       _check_misbehavior),
    "ballot": Row({"kind": str, "voters": list[int]}, _ballot, lambda event, known:
                  _check_row(event["kind"], event, BALLOTS[event["kind"]], known)),
    "topoff": Row({"device": int, "start": int, "n_periods": int}, _topoff),
    "inject": Row({"src": str, "dst": str, "type": str}, _inject, _check_inject),
}

# each kind of ballot event: its row's function gives the ballot's kind and
# subject; an add-elector ballot adds one elector once it applies
BALLOTS = {
    "revoke-elector": Row({"index": int}, lambda world, event: (
        REVOKE_ELECTOR, world.electors[event["index"]][1])),
    "add-elector": Row({}, _add_elector, lambda event, known: known.update(
        elector=range(len(known["elector"]) + 1))),
    "endorse-root": Row({}, lambda world, _: (ENDORSE_ROOT, world.pki["root"].cert)),
    "revoke-root": Row({}, lambda world, _: (REVOKE_ROOT, world.pki["root"].cert)),
}


# --- metrics ---

def collect_metrics(world: World) -> dict:
    pca_store = world.registry.audit_view("pca")
    certs_issued = pca_store.count("issued") + pca_store.count("issued_plain")
    rejected = {}
    accepted = 0
    for device in world.devices:
        accepted += sum(1 for ok, _ in device.received if ok)
        for reason, count in device.reject_counts.items():
            rejected[reason] = rejected.get(reason, 0) + count
    ma_store = world.registry.audit_view("ma")
    # each revocation's periods since the MA accepted its first report
    latency = []
    for record in ma_store.scan("revocation"):
        reported = ma_store.first("report", lv=record["lv"])
        if reported is not None:
            latency.append(record["period"] - reported["period"])
    return {
        "certs_issued": certs_issued,
        "crl_composite_bytes": len(world.crl_store.composite()),
        "bsms_accepted": accepted,
        "bsms_rejected": dict(sorted(rejected.items())),
        "reports_received": ma_store.count("report"),
        "revocations": world.ma.revocations_completed,
        "revocation_latency_periods": latency,
        "mitm_injected": world.ra.mitm_injected,
        "mitm_detected": sum(d.mitm_detected for d in world.devices),
        "bus_messages": world.bus.delivered,
        "dead_letters": world.bus.dead_letters,
    }


# --- post-run audits (organizational separation and bookkeeping) ---

def _namespace_leaves(namespace):
    """(kind, leaf) for every bytes or str leaf of a namespace's records,
    at any depth."""
    for kind in namespace.kinds():
        stack = list(namespace.scan(kind))
        while stack:
            value = stack.pop()
            if isinstance(value, (bytes, str)):
                yield kind, value
            elif isinstance(value, dict):
                stack += value.values()
            elif isinstance(value, (list, tuple)):
                stack += value


def _parses_as_cert_type(leaf: bytes, ctypes: Container[CertType]) -> bool:
    # a certificate that decodes has ctype == leaf[3], so a leaf whose type
    # byte is outside ``ctypes`` gets the full decode's verdict without it
    if len(leaf) < 4 or leaf[:2] != CERT_MAGIC or leaf[3] not in ctypes:
        return False
    try:
        cert = Certificate.decode(leaf)
    except ParseError:
        return False
    return cert.ctype in ctypes


# A content class: its label in a violation, and its detector. An int width
# finds a value of that many bytes anywhere in a leaf of at most 256 bytes
# (larger ones are opaque ciphertext); CERT finds a certificate of a type
# and STR a whole string. An LA's foreign classes are the other LA's values.
Content = namedtuple("Content", "label width")
CERT, STR = "certificate", "string"
PSEUDONYM = Content("plaintext pseudonym certificate", CERT)
ENROLLMENT = Content("enrollment certificate present", CERT)
HANDLE = Content("device handle present", STR)
PLV = Content("plaintext pre-linkage value", LV_BYTES)
LV = Content("plaintext linkage value", LV_BYTES)
FOREIGN_SEED = Content("foreign linkage seed", SEED_BYTES)
FOREIGN_PLV = Content("foreign pre-linkage value", LV_BYTES)

# the separation of duties: each holder and the content classes it may not
# hold. The RA never sees a pseudonym certificate in the clear, the PCA and
# the MA never learn which device they serve, and each LA holds only its half
# of a linkage chain. When the MA may hold linkage seeds is its own check.
SEPARATION = {
    "ra": (PSEUDONYM, PLV, LV),
    "pca": (ENROLLMENT, HANDLE),
    **dict.fromkeys(["la1", "la2"], (FOREIGN_SEED, FOREIGN_PLV, HANDLE,
                                     ENROLLMENT, PSEUDONYM, LV)),
    "ma": (HANDLE, ENROLLMENT),
}


def _separation(world: World, la_plvs: dict, la_seeds: dict) -> list[str]:
    """``<holder>:<kind>: <label>`` for each leaf of a holder's store that
    holds a content class of its row in ``SEPARATION``. A holder's detector
    maps each value of its classes to their labels, one dict per width, so a
    leaf costs one pass per width however many classes share it."""
    ra_ns, pca_ns = world.registry.audit_view("ra"), world.registry.audit_view("pca")
    values = {
        PSEUDONYM: {CertType.OBE_PSEUDONYM}, ENROLLMENT: ENROLLMENT_TYPES,
        HANDLE: [r["handle"] for r in ra_ns.scan("enrollment")],
        PLV: [*la_plvs["la1"], *la_plvs["la2"]],
        LV: [r["lv"] for r in pca_ns.scan("issued")],
    }
    violations = []
    for holder, row in SEPARATION.items():
        other = {"la1": "la2", "la2": "la1"}.get(holder)
        values.update({FOREIGN_SEED: la_seeds.get(other), FOREIGN_PLV: la_plvs.get(other)})
        windows = {}
        for content in row:
            lookup, labels = windows.setdefault(content.width, {}), (content.label,)
            for value in values[content]:
                lookup[value] = lookup.get(value, ()) + labels
        certs, strings = windows.pop(CERT, {}), windows.pop(STR, {})
        for kind, leaf in _namespace_leaves(world.registry.audit_view(holder)):
            if isinstance(leaf, str):
                hits = strings.get(leaf, ())
            else:
                hits = certs[leaf[3]] if _parses_as_cert_type(leaf, certs) else ()
                if len(leaf) <= 256:
                    hits += tuple(label for width, lookup in windows.items()
                                  for k in range(len(leaf) - width + 1)
                                  if leaf[k:k + width] in lookup
                                  for label in lookup[leaf[k:k + width]])
            if hits:
                violations += [f"{holder}:{kind}: {content.label}"
                               for content in row if content.label in hits]
    return violations


def run_audits(world: World) -> list[str]:
    registry = world.registry
    config = world.config

    pca_ns = registry.audit_view("pca")
    ra_ns = registry.audit_view("ra")
    ma_ns = registry.audit_view("ma")

    # plaintext pre-linkage values and seeds per LA, over the full horizon
    la_plvs: dict[str, set[bytes]] = {}
    la_seeds: dict[str, dict[bytes, tuple[str, int]]] = {}
    for name, la_id in (("la1", LA1_ID), ("la2", LA2_ID)):
        plvs = la_plvs[name] = set()
        seeds = la_seeds[name] = {}
        for chain in registry.audit_view(name).scan("chain"):
            seed = LinkageSeed(chain["seed0"], chain["period0"])
            for period in range(chain["period0"],
                                chain["period0"] + config.periods + 1):
                evolved = seed_at(la_id, seed, period)
                seeds[evolved.value] = (chain["lci_digest"], period)
                plvs.update(pre_linkage_values(la_id, evolved.value,
                                               config.batch_size))

    violations = _separation(world, la_plvs, la_seeds)

    # MA: linkage material only for investigated devices, current period on
    all_seeds = {**la_seeds["la1"], **la_seeds["la2"]}
    revocation_periods: dict[str, int] = {}  # investigated chain -> period
    for record in ma_ns.scan("revocation"):
        for seed in (record["ls1"], record["ls2"]):
            if seed in all_seeds:
                revocation_periods[all_seeds[seed][0]] = record["period"]
    for kind, leaf in _namespace_leaves(ma_ns):
        if leaf not in all_seeds:
            continue
        chain, period = all_seeds[leaf]
        if chain not in revocation_periods:
            violations.append(f"ma:{kind}: seed for uninvestigated device")
        elif period < revocation_periods[chain]:
            violations.append(f"ma:{kind}: pre-revocation seed (backward privacy)")

    # every issued certificate traces to exactly one enrollment record
    index_by_rh = {}
    for record in ra_ns.scan("request_index"):
        index_by_rh.setdefault(record["rh"], []).append(record["handle"])
    for record in pca_ns.scan("issued"):
        owners = index_by_rh.get(record["rh"], [])
        if len(owners) != 1:
            violations.append("traceability: request hash maps to "
                              f"{len(owners)} enrollment records")

    # audit reconciliation: every served MA query has a matching signed
    # request logged at the MA
    sent = {
        (r["dst"], r["op"], r["object"]) for r in ma_ns.scan("audit_sent")
    }
    for ns_name in ("pca", "la1", "la2", "ra"):
        for record in registry.audit_view(ns_name).scan("audit"):
            if record["op"].endswith(".refused"):
                continue
            if (ns_name, record["op"], record["object"]) not in sent:
                violations.append(
                    f"audit: orphan {record['op']} served by {ns_name}"
                )

    # CRL propagation: all devices hold the latest CRL per series
    blacklisted = {
        r["handle"] for r in ra_ns.scan("enrollment") if r["blacklisted"]
    }
    for crl in world.crl_store.crls.all_crls():
        for device in world.devices:
            held = device.crl_store.get(crl.craca_id, crl.series)
            if held is None or held.sequence < crl.sequence:
                if device.handle_id not in blacklisted:
                    violations.append(
                        f"distribution: {device.id} missing CRL series "
                        f"{crl.series}"
                    )
    return violations
