"""Shared fixtures and helpers: a miniature CA hierarchy, small worlds and
the cross-store joins that tests assert on."""

from dataclasses import dataclass

import pytest

from scms.certmodel import (
    SERIES_COMPONENT,
    SERIES_ROOT_MANAGED,
    Certificate,
    issue_component_cert,
)
from scms.crypto import DeterministicRandom, KeyPair
from scms.encoding import encode
from scms.rootmgmt import TrustState


@dataclass
class MiniPki:
    rng: DeterministicRandom
    root_key: KeyPair
    root_cert: Certificate
    ica_key: KeyPair
    ica_cert: Certificate
    pca_key: KeyPair
    pca_cert: Certificate
    crlg_key: KeyPair
    crlg_cert: Certificate
    trust: TrustState


def build_mini_pki(seed: int = 1000) -> MiniPki:
    rng = DeterministicRandom(seed, "mini-pki")
    valid = (0, 10000)

    root_key = KeyPair.generate(rng)
    # the root itself is revoked via elector ballots, not a CRL, and its
    # own id cannot appear inside its encoding; zero craca marks that
    root_cert = issue_component_cert(
        root_key, "root", None, None, b"\x00" * 8, SERIES_COMPONENT, valid, None
    )
    craca = root_cert.cert_id()

    ica_key = KeyPair.generate(rng)
    ica_cert = issue_component_cert(
        ica_key, "ica", root_cert, root_key, craca, SERIES_COMPONENT, valid, None
    )
    pca_key = KeyPair.generate(rng)
    pca_cert = issue_component_cert(
        pca_key, "pca", ica_cert, ica_key, craca, SERIES_COMPONENT, valid, None
    )
    crlg_key = KeyPair.generate(rng)
    crlg_cert = issue_component_cert(
        crlg_key, "crlg", root_cert, root_key, craca, SERIES_ROOT_MANAGED,
        valid, None,
    )

    trust = TrustState([])
    for cert in (root_cert, ica_cert, pca_cert, crlg_cert):
        trust.add_cert(cert)
    trust.endorse_root(root_cert.cert_id())
    return MiniPki(
        rng=rng,
        root_key=root_key,
        root_cert=root_cert,
        ica_key=ica_key,
        ica_cert=ica_cert,
        pca_key=pca_key,
        pca_cert=pca_cert,
        crlg_key=crlg_key,
        crlg_cert=crlg_cert,
        trust=trust,
    )


@pytest.fixture
def pki() -> MiniPki:
    return build_mini_pki()


def make_world(**overrides):
    """Small fully wired world for component-level tests."""
    from scms.harness import ScenarioConfig, World

    defaults = dict(
        name="test", seed=123, devices=4, periods=3, batch_size=5,
        bsms_per_device_per_period=0,
    )
    defaults.update(overrides)
    return World(ScenarioConfig(**defaults))


def provision_all(world) -> None:
    """Drive request, expansion, issuance and batch pickup to completion."""
    from scms.harness import provision_fleet

    provision_fleet(world)


def store_fingerprint(registry) -> bytes:
    """Every namespace's records in the canonical encoding, by owner and
    kind: equal fingerprints mean that no store gained, lost or changed a
    record."""
    return encode({
        owner: {kind: ns.scan(kind) for kind in ns.kinds()}
        for owner, ns in registry._namespaces.items()
    })


def issued_certificates(world) -> list[dict]:
    """Join PCA issuance records with RA request indexes: every issued
    pseudonym certificate, in issuance order, attributed to its device
    handle."""
    handles = {
        record["rh"]: record["handle"]
        for record in world.registry.audit_view("ra").scan("request_index")
    }
    return [
        {"handle": handles.get(record["rh"]),
         **{key: record[key] for key in ("rh", "i", "j", "lv", "cert")}}
        for record in world.registry.audit_view("pca").scan("issued")
    ]


def shuffle_dispersion(world) -> float:
    """Fraction of devices whose requests did NOT arrive contiguously at
    the PCA (structural unlinkability of the shuffle)."""
    arrivals: dict = {}
    for pos, row in enumerate(issued_certificates(world)):
        arrivals.setdefault(row["handle"], []).append(pos)
    if not arrivals:
        return 1.0
    spread = [len(p) == 1 or max(p) - min(p) + 1 != len(p)
              for p in arrivals.values()]
    return sum(spread) / len(arrivals)
