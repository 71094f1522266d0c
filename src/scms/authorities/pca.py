"""Pseudonym CA.

Serves anonymous single-certificate requests from the RA: decrypts the
two pre-linkage values, XORs them into the linkage value, randomizes the
cocoon key into the butterfly key, signs the certificate, encrypts the
certificate plus reconstruction value to the response key, and signs the
encrypted packet (so a registration-side key substitution is detectable by
the device). The ``cert.request`` handler only checks the payload's field
types and draws the two scalars of the issuance; the ``issue_pseudonym``
kernel makes every other check and does the crypto, on the pool (see
``scms.bus``), and its commit records and sends the certificate or the
refusal. A request that the kernel refuses has still consumed its draws.

Also issues plain application/identification certificates and answers
the misbehavior authority's mapping queries under signature check, rate
limit and audit log.
"""

from __future__ import annotations

import hashlib

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

    def on_cert_request(self, env) -> None:
        # the field checks and both draws run here, in delivery order; the
        # kernel makes every other check and does the crypto, and the
        # commit does every write and send
        rh, la1, la2, eplv1, eplv2, i, j, cocoon, resp_key, psid = fields(
            env.payload, rh=bytes, la1=bytes, la2=bytes, eplv1=bytes,
            eplv2=bytes, i=int, j=int, cocoon=bytes, resp_key=bytes, psid=int,
        )
        c = self.rng.scalar()
        ephemeral = self.rng.scalar()

        def commit(result: tuple[bytes, bytes, bytes] | str) -> None:
            if type(result) is str:
                self._reject(env, rh, result)
                return
            cert_bytes, package, lv = result
            self.store.put("issued", {
                "rh": rh, "eplv1": eplv1, "eplv2": eplv2, "i": i, "j": j,
                "lv": lv, "cert": cert_bytes, "ra_host": env.src,
            })
            self.send(env.src, "cert.response", {"rh": rh, "package": package})

        self.bus.defer(issue_pseudonym, (
            self.keypair.private.value, self.cert, self.craca_id,
            self._la_channels,
            (la1, la2, eplv1, eplv2, i, j, cocoon, resp_key, psid),
            c.value, ephemeral.value,
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
            requested = _requested(
                self.craca_id, self.cert,
                ctype=ctype,
                subject_key=GroupElement.decode(pubkey),
                valid_from=valid_from,
                valid_to=valid_to,
                psid=psid,
                crl_series=series_for_type(ctype),
                enc_key=(None if enc_pubkey is None
                         else GroupElement.decode(enc_pubkey)),
                subject_info=subject_info,
            )
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


def _requested(craca_id: bytes, issuer: Certificate,
               **content) -> Certificate:
    """The unsigned certificate that ``issuer`` would issue; raises
    ``ValueError`` if the content does not make a conforming one."""
    return Certificate(craca_id=craca_id, issuer_id=issuer.cert_id(), **content)


def issue_pseudonym(pca_priv: int, pca_cert: Certificate, craca_id: bytes,
                    la_channels: dict[bytes, bytes], request: tuple,
                    c: int, ephemeral: int) -> tuple[bytes, bytes, bytes] | str:
    """One pseudonym issuance, a pure kernel. ``request`` holds the fields
    of a ``cert.request`` after its type checks: (la1, la2, eplv1, eplv2,
    i, j, cocoon, resp_key, psid). Checks both keys, opens both pre-linkage
    values on the LA channels and checks their slot, then computes the
    butterfly key ``cocoon + c*G``, signs the certificate, seals it and
    ``c`` to the response key with the ephemeral scalar, and signs the
    sealed package. Returns (certificate bytes, package bytes, linkage
    value), or the reason of the first check that fails."""
    la1, la2, eplv1, eplv2, i, j, cocoon, resp_key, psid = request
    try:
        cocoon = GroupElement.decode(cocoon)
    except ParseError:
        return "malformed cocoon key"
    try:
        response_key = GroupElement.decode(resp_key)
    except ParseError:
        return "malformed response key"
    if cocoon.is_identity:
        return "cocoon key is the identity"
    if response_key.is_identity:
        return "response key is the identity"
    channel1 = la_channels.get(la1)
    channel2 = la_channels.get(la2)
    if channel1 is None or channel2 is None:
        return "unknown linkage authority"
    try:
        plv1, i1, j1 = fields(decode(channel_decrypt(channel1, eplv1)),
                              plv=bytes, i=int, j=int)
        plv2, i2, j2 = fields(decode(channel_decrypt(channel2, eplv2)),
                              plv=bytes, i=int, j=int)
    except DecryptionError:
        return "pre-linkage value decryption failed"
    except ParseError:
        return "malformed pre-linkage value"
    if (i1, j1) != (i, j) or (i2, j2) != (i, j):
        return "pre-linkage index mismatch"
    lv = linkage_value(plv1, plv2)
    # conformance does not read the subject key, so checking it on the
    # butterfly key refuses exactly what the cocoon key would
    butterfly_pub, recon = butterfly_finalize(cocoon, Scalar(c))
    try:
        requested = _requested(
            craca_id, pca_cert,
            ctype=CertType.OBE_PSEUDONYM,
            subject_key=butterfly_pub,
            valid_from=i,
            valid_to=i,
            psid=psid,
            crl_series=SERIES_PSEUDONYM,
            linkage_value=lv,
        )
    except ValueError as exc:
        return f"non-conforming certificate: {exc}"
    priv = Scalar(pca_priv)
    cert_bytes = issue_certificate(requested, priv).encode()
    sealed = hybrid_seal(
        response_key,
        encode({"cert": cert_bytes, "c": recon.c.to_bytes()}),
        Scalar(ephemeral),
    ).encode()
    # the slot index rides outside the encryption (the RA knows it from
    # its own request anyway) so the device can pick its cocoon key;
    # the signature covers index and ciphertext together
    package = sign_message(priv, pca_cert, encode({"i": i, "j": j, "ct": sealed}))
    return cert_bytes, package.encode(), lv


def request_hash(single: dict) -> bytes:
    """Hash of one RA-to-PCA certificate request (identifies the request
    in every later revocation step)."""
    return hashlib.sha256(encode(single)).digest()
