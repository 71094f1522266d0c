"""Elector-based root management and policy files.

Electors sit above the PKI hierarchy: each holds a self-signed
certificate (possibly under a different signature algorithm) and votes on
ballots. A ballot carries actions, each naming one object certificate
(root or elector) and a set of elector signatures; an action binds once a
quorum of distinct, non-revoked electors has signed it. With 2n+1
electors and quorum n+1 the system heals itself: one elector can be
revoked and replaced by ballot without interrupting any end entity.

The policy generator (``authorities.Pg``) signs two versioned files: the
global policy file (GPF, the settings every device applies) and the
global certificate chain file (GCCF, all trust chains).
``check_policy_artifact`` is the consumer's check: it rejects a file of
the wrong kind, a stale version and a bad signature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .certmodel import (
    ALG_DEFAULT,
    CertType,
    Certificate,
    CrlSet,
    SignedMessage,
    digest_for_alg,
    issue_certificate,
    verify_message,
)
from .crypto import KeyPair, sign, verify
from .encoding import decode, encode, fields
from .errors import ParseError

ENDORSE_ROOT = "endorse-root"
REVOKE_ROOT = "revoke-root"
ENDORSE_ELECTOR = "endorse-elector"
REVOKE_ELECTOR = "revoke-elector"
_ACTIONS = {ENDORSE_ROOT, REVOKE_ROOT, ENDORSE_ELECTOR, REVOKE_ELECTOR}

_BALLOT_DOMAIN = b"scms-ballot-v1|"


def make_elector(rng, alg: int = ALG_DEFAULT) -> tuple[KeyPair, Certificate]:
    """Self-signed elector certificate; the initial set is installed at
    bootstrap and trusted implicitly."""
    key = KeyPair.generate(rng)
    cert = Certificate(
        ctype=CertType.ELECTOR,
        subject_key=key.public,
        valid_from=0,
        valid_to=1 << 31,
        psid=0,
        craca_id=b"\x00" * 8,
        crl_series=0,
        issuer_id=b"\x00" * 8,
        subject_info="elector",
        self_signed=True,
        alg=alg,
    )
    return key, issue_certificate(cert, key.private, alg)


@dataclass(frozen=True)
class Vote:
    elector_id: bytes
    signature: bytes


@dataclass
class Action:
    kind: str
    object_cert: bytes  # full certificate encoding
    votes: list[Vote] = field(default_factory=list)

    def signing_material(self) -> bytes:
        return _BALLOT_DOMAIN + self.kind.encode() + b"|" + self.object_cert


@dataclass
class Ballot:
    actions: list[Action] = field(default_factory=list)

    def encode(self) -> bytes:
        return encode(
            [
                {
                    "kind": a.kind,
                    "object": a.object_cert,
                    "votes": [
                        {"elector": v.elector_id, "sig": v.signature}
                        for v in a.votes
                    ],
                }
                for a in self.actions
            ]
        )

    @classmethod
    def decode(cls, data: bytes) -> "Ballot":
        value = decode(data)
        if not isinstance(value, list):
            raise ParseError("ballot is not a list of actions", 0)
        return cls([_decode_action(item) for item in value])


def _decode_action(item) -> Action:
    """One ballot action; ParseError unless it has a known kind, a bytes
    object and votes whose elector and signature are bytes."""
    kind, object_cert, votes = fields(item, kind=str, object=bytes, votes=list)
    if kind not in _ACTIONS:
        raise ParseError(f"unknown ballot action {kind!r}", 0)
    return Action(kind, object_cert,
                  [Vote(*fields(v, elector=bytes, sig=bytes)) for v in votes])


def cast_vote(elector_key: KeyPair, elector_cert: Certificate, action: Action) -> Vote:
    digest = digest_for_alg(elector_cert.alg, action.signing_material())
    return Vote(elector_cert.cert_id(), sign(elector_key.private, digest))


class TrustState:
    """Electors, the roots they endorsed, known certificates and the CRLs
    that chain validation reads (a device passes its ``DeviceCrlStore``).

    quorum defaults to n+1 for 2n+1 installed electors and may be pinned
    explicitly.
    """

    def __init__(self, electors: list[Certificate], quorum: int | None = None,
                 crls: CrlSet | None = None):
        self.electors: dict[bytes, Certificate] = {}
        self.revoked_electors: set[bytes] = set()
        self.certs: dict[bytes, Certificate] = {}
        self.endorsed_roots: set[bytes] = set()
        self.crls = CrlSet() if crls is None else crls
        for cert in electors:
            self.electors[cert.cert_id()] = cert
        self.quorum = quorum if quorum is not None else len(electors) // 2 + 1

    def add_cert(self, cert: Certificate) -> None:
        self.certs[cert.cert_id()] = cert

    def resolve(self, cert_id: bytes) -> Certificate | None:
        return self.certs.get(cert_id)

    def endorse_root(self, cert_id: bytes) -> None:
        self.endorsed_roots.add(cert_id)

    def revoke_root(self, cert_id: bytes) -> None:
        self.endorsed_roots.discard(cert_id)

    def root_trusted(self, cert_id: bytes) -> bool:
        return cert_id in self.endorsed_roots

    def valid_elector_count(self) -> int:
        return len(self.electors) - len(
            self.revoked_electors & set(self.electors)
        )

    def _vote_valid(self, action: Action, vote: Vote) -> bool:
        cert = self.electors.get(vote.elector_id)
        if cert is None or vote.elector_id in self.revoked_electors:
            return False
        digest = digest_for_alg(cert.alg, action.signing_material())
        return verify(cert.subject_key, digest, vote.signature)

    def validate_ballot(self, ballot: Ballot) -> list[Action]:
        """Actions carried by a quorum of distinct non-revoked electors."""
        accepted = []
        for action in ballot.actions:
            if action.kind not in _ACTIONS:
                continue
            voters = set()
            for vote in action.votes:
                if vote.elector_id in voters:
                    continue  # duplicate elector counted once
                if self._vote_valid(action, vote):
                    voters.add(vote.elector_id)
            if len(voters) >= self.quorum:
                accepted.append(action)
        return accepted

    def apply_action(self, action: Action) -> None:
        """Apply a validated action; idempotent."""
        cert = Certificate.decode(action.object_cert)
        cid = cert.cert_id()
        if action.kind == ENDORSE_ROOT:
            self.add_cert(cert)
            self.endorse_root(cid)
        elif action.kind == REVOKE_ROOT:
            self.revoke_root(cid)
        elif action.kind == ENDORSE_ELECTOR:
            self.electors[cid] = cert
            self.revoked_electors.discard(cid)
        elif action.kind == REVOKE_ELECTOR:
            self.revoked_electors.add(cid)
        else:
            raise ValueError(f"unknown action kind {action.kind!r}")

    def process_ballot(self, ballot: Ballot) -> list[Action]:
        accepted = self.validate_ballot(ballot)
        for action in accepted:
            self.apply_action(action)
        return accepted


def build_ballot(
    kind: str,
    object_cert: Certificate,
    electors: list[tuple[KeyPair, Certificate]],
) -> Ballot:
    """Assemble a single-action ballot voted by the given electors (the
    coordination normally performed by the SCMS manager)."""
    action = Action(kind=kind, object_cert=object_cert.encode())
    for key, cert in electors:
        action.votes.append(cast_vote(key, cert, action))
    return Ballot([action])


# --- policy files ---


def check_policy_artifact(
    data: bytes, pg_cert: Certificate, last_version: int, name: str
) -> tuple[int, dict] | None:
    """(version, body) of a policy generator's file if it verifies against
    ``pg_cert``, is of kind ``name`` ("gpf" or "gccf") and is newer than
    ``last_version``; None if rejected."""
    try:
        signed = SignedMessage.decode(data)
        if not verify_message(signed, pg_cert):
            return None
        kind, version, body = fields(decode(signed.payload),
                                     name=str, version=int, body=dict)
    except ParseError:
        return None
    if kind != name or version <= last_version:
        return None
    return version, body
