"""Bootstrapping-side components: ECA and DCM.

Bootstrapping runs over an out-of-band secure channel, so the DCM is
invoked directly rather than through the bus: it checks the device model
against the certification allowlist, has the ECA sign an enrollment
certificate for the device's key, and hands over the full trust bundle
(electors, root/ICA/PCA certificates, MA/PG/CRLG certificates, policy
files and the RA address). The ECA also serves over-the-air roll-over
requests forwarded by the RA.
"""

from __future__ import annotations

import hashlib

from ..certmodel import SERIES_ENROLLMENT, CertType, Certificate, issue_certificate
from ..crypto import GroupElement
from ..encoding import fields
from ..errors import ScmsError
from .base import Authority


class UncertifiedModel(ScmsError):
    """The device model is not on the certification-services allowlist."""


# periods an enrollment certificate stays valid from its issue
ENROLLMENT_VALIDITY = 160


class Eca(Authority):
    """Enrollment CA: signs enrollment certificates."""

    def __init__(self, component_id, bus, registry, rng, identity,
                 craca_id: bytes):
        super().__init__(component_id, bus, registry, rng, identity)
        self.craca_id = craca_id

    def issue_enrollment(
        self,
        public_key: GroupElement,
        ctype: CertType = CertType.OBE_ENROLLMENT,
        subject_info: str | None = None,
        valid_from: int = 0,
    ) -> Certificate:
        cert = Certificate(
            ctype=ctype,
            subject_key=public_key,
            valid_from=valid_from,
            valid_to=valid_from + ENROLLMENT_VALIDITY,
            psid=0,
            craca_id=self.craca_id,
            crl_series=SERIES_ENROLLMENT,
            issuer_id=self.cert.cert_id(),
            subject_info=subject_info,
        )
        signed = issue_certificate(cert, self.keypair.private)
        self.store.put(
            "issued",
            {"cert_id": signed.cert_id(), "ctype": int(ctype),
             "period": self.clock.period},
        )
        return signed

    def on_reenroll_forward(self, env):
        """Roll-over request already vetted by the RA."""
        old_cert, new_pub, reply_ref = fields(
            env.payload, old_cert=bytes, new_pub=bytes, reply_ref=bytes
        )
        old = Certificate.decode(old_cert)
        new_pub = GroupElement.decode(new_pub)
        fresh = self.issue_enrollment(
            new_pub,
            ctype=old.ctype,
            subject_info=old.subject_info,
            valid_from=self.clock.period,
        )
        self.send(
            env.src,
            "reenroll.issued",
            {"reply_ref": reply_ref, "cert": fresh.encode()},
        )


class Dcm:
    """Device configuration manager (out-of-band, secure environment)."""

    def __init__(self, certified_models: set[str], eca: Eca,
                 trust_bundle: dict):
        self.certified_models = certified_models
        self.eca = eca
        self.trust_bundle = trust_bundle

    def enroll(
        self,
        model: str,
        device_pubkey: GroupElement,
        ctype: CertType = CertType.OBE_ENROLLMENT,
        subject_info: str | None = None,
    ) -> dict:
        """Bootstrap = initialization (trust bundle) + enrollment (cert)."""
        if model not in self.certified_models:
            raise UncertifiedModel(f"model {model!r} is not certified")
        cert = self.eca.issue_enrollment(
            device_pubkey, ctype=ctype, subject_info=subject_info,
            valid_from=self.eca.clock.period,
        )
        return {**self.trust_bundle, "enrollment_cert": cert.encode()}


def device_handle(enrollment_cert_bytes: bytes) -> str:
    """Stable per-enrollment handle used for batch file naming; derived
    from the enrollment certificate the RA legitimately knows."""
    return hashlib.sha256(enrollment_cert_bytes).digest()[:8].hex()
