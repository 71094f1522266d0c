"""Pseudonym CA.

Serves anonymous single-certificate requests from the RA: decrypts the
two pre-linkage values, XORs them into the linkage value, randomizes the
cocoon key into the butterfly key, signs the certificate, encrypts the
certificate plus reconstruction value to the response key, and signs the
encrypted packet (so a registration-side key substitution is detectable by
the device). Also issues plain application/identification certificates and
answers the misbehavior authority's mapping queries under signature check,
rate limit and audit log.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

from ..butterfly import butterfly_finalize
from ..certmodel import (
    SERIES_PSEUDONYM,
    CertType,
    Certificate,
    issue_certificate,
    series_for_type,
    sign_message,
)
from ..crypto import GroupElement, Scalar, channel_decrypt, channel_key, hybrid_seal
from ..encoding import decode, encode, fields
from ..errors import DecryptionError, ParseError
from ..linkage import linkage_value
from .base import MaQueryServer, ma_query


class Pca(MaQueryServer):
    def __init__(self, component_id, bus, registry, rng, identity,
                 ma_cert: Certificate, ma_query_limit: int,
                 craca_id: bytes,
                 la_enc_pubs: dict[bytes, GroupElement]):
        super().__init__(component_id, bus, registry, rng, identity, ma_cert,
                         ma_query_limit)
        self.craca_id = craca_id
        self._la_channels = {
            la_id: channel_key(
                self.enc_keypair.private, pub, b"la-to-pca|" + la_id
            )
            for la_id, pub in la_enc_pubs.items()
        }

    # --- pseudonym issuance (steps 4 and 5) ---

    def _reject(self, env, rh: bytes, reason: str) -> None:
        self.audit_log(env.src, "cert.request.rejected", rh)
        self.send(env.src, "cert.reject", {"rh": rh, "reason": reason})

    def _requested(self, content: dict) -> Certificate:
        """The unsigned certificate with this PCA as issuer; raises
        ``ValueError`` if the content does not make a conforming one."""
        return Certificate(
            craca_id=self.craca_id, issuer_id=self.cert.cert_id(), **content
        )

    def on_cert_request(self, env) -> None:
        # the checks and both draws run here, in delivery order; the
        # kernel does the crypto and the commit every write and send
        rh, la1, la2, eplv1, eplv2, i, j, cocoon, resp_key, psid = fields(
            env.payload, rh=bytes, la1=bytes, la2=bytes, eplv1=bytes,
            eplv2=bytes, i=int, j=int, cocoon=bytes, resp_key=bytes, psid=int,
        )
        cocoon = GroupElement.decode(cocoon)
        response_key = GroupElement.decode(resp_key)

        def refuse(reason: str) -> None:
            self.bus.defer(None, (), lambda _: self._reject(env, rh, reason))

        if cocoon.is_identity:
            refuse("cocoon key is the identity")
            return
        if response_key.is_identity:
            refuse("response key is the identity")
            return
        channel1 = self._la_channels.get(la1)
        channel2 = self._la_channels.get(la2)
        if channel1 is None or channel2 is None:
            refuse("unknown linkage authority")
            return
        try:
            plv1 = decode(channel_decrypt(channel1, eplv1))
            plv2 = decode(channel_decrypt(channel2, eplv2))
        except DecryptionError:
            refuse("pre-linkage value decryption failed")
            return
        if (plv1["i"], plv1["j"]) != (i, j) or (plv2["i"], plv2["j"]) != (i, j):
            refuse("pre-linkage index mismatch")
            return
        lv = linkage_value(plv1["plv"], plv2["plv"])

        c = self.rng.scalar()
        try:
            # the cocoon key stands in for the butterfly key, which only
            # the kernel computes; conformance does not read the key
            requested = self._requested(dict(
                ctype=CertType.OBE_PSEUDONYM,
                subject_key=cocoon,
                valid_from=i,
                valid_to=i,
                psid=psid,
                crl_series=SERIES_PSEUDONYM,
                linkage_value=lv,
            ))
        except ValueError as exc:
            refuse(f"non-conforming certificate: {exc}")
            return
        ephemeral = self.rng.scalar()
        record = {"rh": rh, "eplv1": eplv1, "eplv2": eplv2, "i": i, "j": j,
                  "lv": lv}

        def commit(result: tuple[bytes, bytes]) -> None:
            cert_bytes, package = result
            self.store.put("issued", {**record, "cert": cert_bytes,
                                      "ra_host": env.src})
            self.send(env.src, "cert.response", {"rh": rh, "package": package})

        self.bus.defer(issue_pseudonym, (
            self.keypair.private.value, self.cert, requested, j, c.value,
            ephemeral.value, response_key,
        ), commit)

    # --- plain issuance (identification / RSE application) ---

    def on_cert_request_plain(self, env) -> None:
        rh, tbs = fields(env.payload, rh=bytes, tbs=dict)
        ctype, pubkey, enc_pubkey, valid_from, valid_to, psid, subject_info = fields(
            tbs, ctype=int, pubkey=bytes, enc_pubkey=(bytes, type(None)),
            valid_from=int, valid_to=int, psid=int,
            subject_info=(str, type(None)),
        )
        try:
            ctype = CertType(ctype)
        except ValueError:
            raise ParseError(f"unknown certificate type {ctype}", 0) from None
        try:
            requested = self._requested(dict(
                ctype=ctype,
                subject_key=GroupElement.decode(pubkey),
                valid_from=valid_from,
                valid_to=valid_to,
                psid=psid,
                crl_series=series_for_type(ctype),
                enc_key=(None if enc_pubkey is None
                         else GroupElement.decode(enc_pubkey)),
                subject_info=subject_info,
            ))
        except ValueError as exc:
            self._reject(env, rh, f"non-conforming certificate: {exc}")
            return
        cert = issue_certificate(requested, self.keypair.private)
        self.store.put(
            "issued_plain",
            {
                "rh": rh,
                "cert": cert.encode(),
                "cert_id": cert.cert_id(),
                "valid_to": cert.valid_to,
                "ra_host": env.src,
            },
        )
        self.send(env.src, "cert.response.plain", {
            "rh": rh, "cert": cert.encode(),
        })

    # --- misbehavior-authority queries ---

    @ma_query(lv=bytes)
    def on_ma_lv2plv(self, lv) -> dict:
        record = self.store.first("issued", lv=lv)
        if record is None:
            return {"found": False}
        return {
            "found": True,
            "eplv1": record["eplv1"],
            "eplv2": record["eplv2"],
            "i": record["i"],
            "j": record["j"],
        }

    @ma_query(lv=bytes)
    def on_ma_lv2rh(self, lv) -> dict:
        record = self.store.first("issued", lv=lv)
        if record is None:
            return {"found": False}
        return {"found": True, "rh": record["rh"], "ra_host": record["ra_host"]}

    @ma_query(cert_id=bytes)
    def on_ma_cert2rh(self, cert_id) -> dict:
        record = self.store.first("issued_plain", cert_id=cert_id)
        if record is None:
            return {"found": False}
        return {"found": True, "rh": record["rh"], "ra_host": record["ra_host"]}

    @ma_query(rhs=list[bytes])
    def on_ma_certsbyrh(self, rhs) -> dict:
        certs = []
        for rh in rhs:
            record = self.store.first("issued_plain", rh=rh)
            if record is not None:
                certs.append(record["cert"])
        return {"certs": certs}


def issue_pseudonym(pca_priv: int, pca_cert: Certificate,
                    requested: Certificate, j: int, c: int, ephemeral: int,
                    response_key: GroupElement) -> tuple[bytes, bytes]:
    """The crypto of one pseudonym issuance, a pure kernel: butterfly key
    ``cocoon + c*G`` (the cocoon stands as ``requested``'s subject key),
    the certificate signature, the seal of certificate and ``c`` to the
    response key with the ephemeral scalar, and the PCA's signature over
    the sealed package. Returns (certificate bytes, package bytes)."""
    priv = Scalar(pca_priv)
    butterfly_pub, recon = butterfly_finalize(requested.subject_key, Scalar(c))
    cert = issue_certificate(replace(requested, subject_key=butterfly_pub), priv)
    cert_bytes = cert.encode()
    sealed = hybrid_seal(
        response_key,
        encode({"cert": cert_bytes, "c": recon.c.to_bytes()}),
        Scalar(ephemeral),
    ).encode()
    # the slot index rides outside the encryption (the RA knows it from
    # its own request anyway) so the device can pick its cocoon key;
    # the signature covers index and ciphertext together
    package = sign_message(
        priv, pca_cert, encode({"i": requested.valid_from, "j": j, "ct": sealed})
    )
    return cert_bytes, package.encode()


def request_hash(single: dict) -> bytes:
    """Hash of one RA-to-PCA certificate request (identifies the request
    in every later revocation step)."""
    return hashlib.sha256(encode(single)).digest()
