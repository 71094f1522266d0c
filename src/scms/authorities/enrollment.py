"""Bootstrapping-side components: certification services, ECA and DCM.

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

from ..certmodel import CertType, Certificate, SeriesConfig, issue_certificate
from ..crypto import GroupElement
from ..encoding import fields
from ..errors import ScmsError
from .base import Component


class UncertifiedModel(ScmsError):
    """The device model is not on the certification-services allowlist."""


class CertificationServices:
    """Which device models are eligible for enrollment."""

    def __init__(self, certified_models: set[str]):
        self.certified_models = set(certified_models)

    def is_certified(self, model: str) -> bool:
        return model in self.certified_models


class Eca(Component):
    """Enrollment CA: signs enrollment certificates."""

    def configure(self, series: SeriesConfig, craca_id: bytes,
                  enrollment_validity: int = 160):
        self.series = series
        self.craca_id = craca_id
        self.enrollment_validity = enrollment_validity

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
            valid_to=valid_from + self.enrollment_validity,
            psid=0,
            craca_id=self.craca_id,
            crl_series=self.series.enrollment,
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

    def __init__(self, certification: CertificationServices, eca: Eca,
                 trust_bundle: dict):
        self.certification = certification
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
        if not self.certification.is_certified(model):
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
