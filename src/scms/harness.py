"""Scenario harness: world construction, deterministic runner, audits.

A scenario builds a complete SCMS instance (electors, root, intermediate
and enrollment CAs, RA, PCA, two LAs, MA with CRL generator, LOP, policy
generator, CRL store) plus a fleet of devices, then drives the lifecycle
period by period: bootstrap, provisioning, batch pickup, CRL pulls, BSM
traffic, scripted misbehavior, root-management and injected-envelope
events. Runs are fully deterministic under a seed; the trace digest is the
replay fingerprint.

Post-run audits enforce the separation-of-duties content rules on every
authority store, reconcile the MA's signed-query log against the
authorities' audit logs, and check request-hash traceability. Shuffle
dispersion, the order in which the PCA sees requests, is checked by the
tests, not by the audits.
"""

from __future__ import annotations

import hashlib
import json
import time
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
    MINUTES_PER_DAY, MINUTES_PER_PERIOD, Clock, Envelope, MessageBus, Trace,
)
from .certmodel import (
    ALG_DOMAIN_SEP,
    SERIES_COMPONENT,
    SERIES_ROOT_MANAGED,
    CertType,
    Certificate,
    SignedMessage,
    issue_component_cert,
)
from .crypto import DeterministicRandom, KeyPair
from .device import ROTATION_MINUTES, Device
from .encoding import decode, encode, fields
from .errors import ParseError, ScmsError
from .linkage import LA1_ID, LA2_ID, LinkageSeed, pre_linkage_values, seed_at
from .misbehavior import Crlg, Ma, ThresholdDetector
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
    crl_capacity: int = 10_000
    mitm_devices: list[int] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    keep_trace_events: bool = False

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        """A scenario file, checked so that a malformed one is refused here
        with ``ScmsError`` rather than failing the run. The keys of an event
        other than ``period`` and ``action`` are checked when it is applied."""
        data = json.loads(text)
        if type(data) is not dict:
            raise ScmsError("a scenario must be a JSON object")
        kinds = get_type_hints(cls)
        unknown = set(data) - set(kinds)
        if unknown:
            raise ScmsError(f"unknown scenario fields: {sorted(unknown)}")
        fields(data, **{key: kinds[key] for key in data})
        config = cls(**data)
        if config.periods < 1:
            raise ScmsError("a scenario needs at least one period")
        if any(i not in range(config.devices) for i in config.mitm_devices):
            raise ScmsError("mitm_devices names a device outside the fleet")
        for event in config.events:
            period, _ = fields(event, period=int, action=str)
            if period not in range(config.periods):
                raise ScmsError(f"event period {period} is outside the run")
        return config


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
            make_elector(rng, ALG_DOMAIN_SEP if n == 2 else 0) for n in range(3)
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
        self.ma = Ma("ma", *args, pki["ma"], crlg,
                     ThresholdDetector(threshold=config.detector_threshold))
        self.pg = Pg("pg", *args, pki["pg"])
        gpf = self.pg.publish_gpf({
            "batch_size": config.batch_size,
            "rotation_minutes": ROTATION_MINUTES,
            "crl_capacity": config.crl_capacity,
        })
        gccf = self.pg.publish_gccf(
            [self._chain(role) for role in ("pca", "eca", "ma", "crlg")]
        )
        self.bus.run()

        self.bundle = {
            "electors": [cert.encode() for _, cert in self.electors],
            "roots": [pki["root"].cert.encode()],
            **{role: pki[role].cert.encode()
               for role in ("ica", "pca", "eca", "ra", "ma", "pg", "crlg")},
            "crlg_series": CRLG_SERIES,
            "gpf": gpf.encode(),
            "gccf": gccf.encode(),
        }
        self.dcm = Dcm({"obe-model-a", "rse-model-a"}, self.eca, self.bundle)

    def _build_devices(self) -> None:
        self.devices: list[Device] = []
        for n in range(self.config.devices):
            device = Device(f"obe{n}", self.bus, self.rng,
                            crl_capacity=self.config.crl_capacity)
            device.bootstrap(self.dcm)
            self.devices.append(device)


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    trace_digest: str
    metrics: dict
    violations: list[str]
    world: World


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    started = time.perf_counter()
    world = World(config)
    bus, clock = world.bus, world.clock
    events_by_period: dict[int, list[dict]] = {}
    for event in config.events:
        events_by_period.setdefault(event["period"], []).append(event)

    world.ra.mitm_handles = {
        world.devices[i].handle_id for i in config.mitm_devices
    }
    provision_fleet(world)

    report_periods: dict[bytes, int] = {}
    for period in range(config.periods):
        clock.set(period, 0)
        for device in world.devices:
            device.fetch_crl()
        bus.run()

        for event in events_by_period.get(period, []):
            _apply_event(world, event, report_periods)
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
    metrics = collect_metrics(world, report_periods)
    metrics["elapsed_seconds"] = round(time.perf_counter() - started, 3)
    return ScenarioResult(
        config=config,
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
        device.request_certs(0, config.periods, j_max=config.batch_size)
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


def _apply_event(world: World, event: dict, report_periods: dict) -> None:
    action = event["action"]
    if action == "misbehavior":
        offender = world.devices[event["offender"]]
        reporters = [world.devices[i] for i in event["reporters"]]
        bsm = offender.broadcast_bsm(
            [r.id for r in reporters], position=[-3, 0], speed=50
        )
        world.bus.run()
        if bsm is None:
            raise ScmsError("offender has no certificate to misbehave with")
        reported_cert = SignedMessage.decode(bsm).cert_bytes
        lv = Certificate.decode(reported_cert).linkage_value
        report_periods.setdefault(lv, world.clock.period)
        for reporter in reporters:
            reporter.report_misbehavior(bsm)
        world.bus.run()
        world.ra.flush_reports()
    elif action == "ballot":
        _apply_ballot_event(world, event)
    elif action == "topoff":
        device = world.devices[event["device"]]
        device.request_certs(
            event["start"], event["n_periods"], j_max=world.config.batch_size
        )
        world.bus.run()
        world.ra.flush()
    elif action == "inject":
        src, dst, mtype = fields(event, src=str, dst=str, type=str)
        for name in (src, dst):
            if not world.bus.is_registered(name):
                raise ScmsError(f"inject event names no component {name!r}")
        payload = _from_json(event.get("payload"))
        try:
            encode(payload)
        except (TypeError, ValueError):
            raise ScmsError("inject payload is not a wire value") from None
        world.bus.send(Envelope(src, dst, mtype, payload))
    else:
        raise ScmsError(f"unknown scenario action {action!r}")


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


def _apply_ballot_event(world: World, event: dict) -> None:
    kind = event["kind"]
    voters = [world.electors[i] for i in event["voters"]]
    if kind == "revoke-elector":
        ballot = build_ballot(REVOKE_ELECTOR, world.electors[event["index"]][1],
                              voters)
    elif kind == "add-elector":
        new = make_elector(world.rng.child("new-elector"))
        world.electors.append(new)
        ballot = build_ballot(ENDORSE_ELECTOR, new[1], voters)
    elif kind == "endorse-root":
        ballot = build_ballot(ENDORSE_ROOT, world.pki["root"].cert, voters)
    elif kind == "revoke-root":
        ballot = build_ballot(REVOKE_ROOT, world.pki["root"].cert, voters)
    else:
        raise ScmsError(f"unknown ballot kind {kind!r}")
    payload = {"ballot": ballot.encode()}
    world.bus.send(Envelope("pg", "ra", "ballot.publish", payload))
    for device in world.devices:
        world.bus.send(Envelope("pg", device.id, "ballot.publish", payload))


# --- metrics ---

def collect_metrics(world: World, report_periods: dict) -> dict:
    pca_store = world.registry.audit_view("pca")
    certs_issued = pca_store.count("issued") + pca_store.count("issued_plain")
    rejected = {}
    accepted = 0
    for device in world.devices:
        accepted += sum(1 for ok, _ in device.received if ok)
        for reason, count in device.reject_counts.items():
            rejected[reason] = rejected.get(reason, 0) + count
    ma_store = world.registry.audit_view("ma")
    latency = []
    for record in ma_store.scan("revocation"):
        reported = report_periods.get(record["lv"])
        if reported is not None:
            latency.append(record["period"] - reported)
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

def _walk_leaves(value):
    """Yield every bytes/str leaf in a nested store record."""
    if isinstance(value, dict):
        for item in value.values():
            yield from _walk_leaves(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _walk_leaves(item)
    elif isinstance(value, (bytes, str)):
        yield value


def _namespace_leaves(namespace):
    for kind in namespace.kinds():
        for record in namespace.scan(kind):
            for leaf in _walk_leaves(record):
                yield kind, leaf


def _parses_as_cert_type(leaf: bytes, ctypes: set[CertType]) -> bool:
    from .certmodel import CERT_MAGIC

    # a certificate that decodes has ctype == leaf[3], so a leaf whose type
    # byte is outside ``ctypes`` gets the full decode's verdict without it
    if len(leaf) < 4 or leaf[:2] != CERT_MAGIC or leaf[3] not in ctypes:
        return False
    try:
        cert = Certificate.decode(leaf)
    except ParseError:
        return False
    return cert.ctype in ctypes


def _window_hits(leaf: bytes, needles: set[bytes], width: int) -> bool:
    if len(leaf) < width or len(leaf) > 256:
        return False
    return any(
        leaf[k : k + width] in needles for k in range(len(leaf) - width + 1)
    )


def run_audits(world: World) -> list[str]:
    violations: list[str] = []
    registry = world.registry
    config = world.config

    pca_ns = registry.audit_view("pca")
    ra_ns = registry.audit_view("ra")
    la1_ns = registry.audit_view("la1")
    la2_ns = registry.audit_view("la2")
    ma_ns = registry.audit_view("ma")

    pseudo_certs = {r["cert"] for r in pca_ns.scan("issued")}
    enrollment_certs = {
        r["cert"] for r in ra_ns.scan("enrollment") if r["cert"] is not None
    }
    handles = {r["handle"] for r in ra_ns.scan("enrollment")}

    # plaintext pre-linkage values and seeds per LA, over the full horizon
    la_plvs: dict[str, set[bytes]] = {}
    la_seeds: dict[str, dict[bytes, tuple[str, int]]] = {}
    for name, ns, la_id in (("la1", la1_ns, LA1_ID), ("la2", la2_ns, LA2_ID)):
        plvs: set[bytes] = set()
        seeds: dict[bytes, tuple[str, int]] = {}
        for chain in ns.scan("chain"):
            seed = LinkageSeed(chain["seed0"], chain["period0"])
            for period in range(chain["period0"],
                                chain["period0"] + config.periods + 1):
                evolved = seed_at(la_id, seed, period)
                seeds[evolved.value] = (chain["lci_digest"], period)
                plvs.update(pre_linkage_values(la_id, evolved.value,
                                               config.batch_size))
        la_plvs[name] = plvs
        la_seeds[name] = seeds

    # RA: no plaintext pseudonym certificates, no pre-linkage values
    all_plvs = la_plvs["la1"] | la_plvs["la2"]
    for kind, leaf in _namespace_leaves(ra_ns):
        if isinstance(leaf, str):
            continue
        if leaf in pseudo_certs or _parses_as_cert_type(
            leaf, {CertType.OBE_PSEUDONYM}
        ):
            violations.append(f"ra:{kind}: plaintext pseudonym certificate")
        if leaf in all_plvs or _window_hits(leaf, all_plvs, 9):
            violations.append(f"ra:{kind}: plaintext pre-linkage value")

    # PCA: no enrollment certificates, no device identifiers
    enrollment_types = {CertType.OBE_ENROLLMENT, CertType.RSE_ENROLLMENT}
    for kind, leaf in _namespace_leaves(pca_ns):
        if isinstance(leaf, str):
            if leaf in handles:
                violations.append(f"pca:{kind}: device handle present")
            continue
        if leaf in enrollment_certs or _parses_as_cert_type(
            leaf, enrollment_types
        ):
            violations.append(f"pca:{kind}: enrollment certificate present")

    # LA isolation: neither LA holds the other's seeds or pre-linkage values
    for mine, theirs in (("la1", "la2"), ("la2", "la1")):
        ns = registry.audit_view(mine)
        other_seeds = set(la_seeds[theirs])
        other_plvs = la_plvs[theirs]
        for kind, leaf in _namespace_leaves(ns):
            if isinstance(leaf, str):
                continue
            if leaf in other_seeds or _window_hits(leaf, other_seeds, 16):
                violations.append(f"{mine}:{kind}: foreign linkage seed")
            if leaf in other_plvs or _window_hits(leaf, other_plvs, 9):
                violations.append(f"{mine}:{kind}: foreign pre-linkage value")

    # MA: linkage material only for investigated devices, current period on
    investigated_chains: set[str] = set()
    revocation_periods: dict[str, int] = {}
    for record in ma_ns.scan("revocation"):
        for name in ("la1", "la2"):
            hit = la_seeds[name].get(record["ls1"]) or la_seeds[name].get(
                record["ls2"]
            )
            if hit is not None:
                investigated_chains.add(hit[0])
                revocation_periods[hit[0]] = record["period"]
    all_seed_maps = {**la_seeds["la1"], **la_seeds["la2"]}
    for kind, leaf in _namespace_leaves(ma_ns):
        if isinstance(leaf, str) or len(leaf) != 16:
            continue
        hit = all_seed_maps.get(leaf)
        if hit is None:
            continue
        chain, period = hit
        if chain not in investigated_chains:
            violations.append(f"ma:{kind}: seed for uninvestigated device")
        elif period < revocation_periods.get(chain, 0):
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

    # quarantined packages must never yield usable certificates
    for device in world.devices:
        quarantined = {q["digest"] for q in device.quarantined}
        if quarantined and world.ra.mitm_injected:
            for per_period in device.certs.values():
                for entry in per_period:
                    if hashlib.sha256(entry["cert_bytes"]).digest() in quarantined:
                        violations.append(
                            f"{device.id}: quarantined certificate in use"
                        )
    return violations
