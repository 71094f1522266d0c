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

from ..butterfly import butterfly_finalize
from ..certmodel import (
    CertType,
    Certificate,
    SeriesConfig,
    issue_certificate,
    sign_message,
)
from ..crypto import GroupElement, channel_decrypt, channel_key, hybrid_encrypt
from ..encoding import decode, encode
from ..errors import DecryptionError
from ..linkage import xor_lv
from .base import Component


class Pca(Component):
    def configure(
        self,
        series: SeriesConfig,
        craca_id: bytes,
        la_enc_pubs: dict[str, GroupElement],
        ma_cert: Certificate,
        ma_query_limit: int = 64,
    ) -> None:
        self.series = series
        self.craca_id = craca_id
        self._la_channels = {
            la_id: channel_key(
                self.enc_keypair.private, pub, b"la-to-pca|" + la_id
            )
            for la_id, pub in la_enc_pubs.items()
        }
        self.ma_cert = ma_cert
        self.ma_query_limit = ma_query_limit

    # --- pseudonym issuance (steps 4 and 5) ---

    def on_cert_request(self, env) -> None:
        p = env.payload
        rh = p["rh"]
        try:
            plv1 = decode(channel_decrypt(self._la_channels[p["la1"]], p["eplv1"]))
            plv2 = decode(channel_decrypt(self._la_channels[p["la2"]], p["eplv2"]))
        except DecryptionError:
            self.audit_log(env.src, "cert.request.rejected", rh)
            self.send(env.src, "cert.reject", {
                "rh": rh, "reason": "pre-linkage value decryption failed",
            })
            return
        if (plv1["i"], plv1["j"]) != (p["i"], p["j"]) or (
            (plv2["i"], plv2["j"]) != (p["i"], p["j"])
        ):
            self.audit_log(env.src, "cert.request.rejected", rh)
            self.send(env.src, "cert.reject", {
                "rh": rh, "reason": "pre-linkage index mismatch",
            })
            return
        lv = xor_lv(plv1["plv"], plv2["plv"])

        cocoon = GroupElement.decode(p["cocoon"])
        butterfly_pub, recon = butterfly_finalize(cocoon, self.rng)
        cert = Certificate(
            ctype=CertType.OBE_PSEUDONYM,
            subject_key=butterfly_pub,
            valid_from=p["i"],
            valid_to=p["i"],
            psid=p["psid"],
            craca_id=self.craca_id,
            crl_series=self.series.pseudonym,
            issuer_id=self.cert.cert_id(),
            linkage_value=lv,
        )
        cert = issue_certificate(cert, self.keypair.private)
        cert_bytes = cert.encode()

        response_key = GroupElement.decode(p["resp_key"])
        sealed = hybrid_encrypt(
            response_key,
            encode({"cert": cert_bytes, "c": recon.c.to_bytes()}),
            self.rng,
        ).encode()
        # the slot index rides outside the encryption (the RA knows it from
        # its own request anyway) so the device can pick its cocoon key;
        # the signature covers index and ciphertext together
        package = sign_message(
            self.keypair.private,
            self.cert,
            encode({"i": p["i"], "j": p["j"], "ct": sealed}),
        )

        self.store.put(
            "issued",
            {
                "rh": rh,
                "eplv1": p["eplv1"],
                "eplv2": p["eplv2"],
                "i": p["i"],
                "j": p["j"],
                "lv": lv,
                "cert": cert_bytes,
                "ra_host": env.src,
            },
        )
        self.send(env.src, "cert.response", {
            "rh": rh, "package": package.encode(),
        })

    # --- plain issuance (identification / RSE application) ---

    def on_cert_request_plain(self, env) -> None:
        p = env.payload
        tbs = p["tbs"]
        ctype = CertType(tbs["ctype"])
        cert = Certificate(
            ctype=ctype,
            subject_key=GroupElement.decode(tbs["pubkey"]),
            valid_from=tbs["valid_from"],
            valid_to=tbs["valid_to"],
            psid=tbs["psid"],
            craca_id=self.craca_id,
            crl_series=self.series.for_type(ctype),
            issuer_id=self.cert.cert_id(),
            enc_key=(
                GroupElement.decode(tbs["enc_pubkey"])
                if tbs.get("enc_pubkey") is not None
                else None
            ),
            subject_info=tbs.get("subject_info"),
        )
        cert = issue_certificate(cert, self.keypair.private)
        self.store.put(
            "issued_plain",
            {
                "rh": p["rh"],
                "cert": cert.encode(),
                "cert_id": cert.cert_id(),
                "valid_to": cert.valid_to,
                "ra_host": env.src,
            },
        )
        self.send(env.src, "cert.response.plain", {
            "rh": p["rh"], "cert": cert.encode(),
        })

    # --- misbehavior-authority queries ---

    def on_ma_lv2plv(self, env) -> None:
        checked = self._check_ma_request(env)
        if checked is None:
            return
        request, digest = checked
        record = self.store.first("issued", lv=request["lv"])
        if record is None:
            self.send(env.src, "ma.lv2plv.resp", {"found": False, "echo": digest})
            return
        self.send(env.src, "ma.lv2plv.resp", {
            "found": True,
            "eplv1": record["eplv1"],
            "eplv2": record["eplv2"],
            "i": record["i"],
            "j": record["j"],
            "echo": digest,
        })

    def on_ma_lv2rh(self, env) -> None:
        checked = self._check_ma_request(env)
        if checked is None:
            return
        request, digest = checked
        record = self.store.first("issued", lv=request["lv"])
        if record is None:
            self.send(env.src, "ma.lv2rh.resp", {"found": False, "echo": digest})
            return
        self.send(env.src, "ma.lv2rh.resp", {
            "found": True, "rh": record["rh"], "ra_host": record["ra_host"],
            "echo": digest,
        })

    def on_ma_cert2rh(self, env) -> None:
        checked = self._check_ma_request(env)
        if checked is None:
            return
        request, digest = checked
        record = self.store.first("issued_plain", cert_id=request["cert_id"])
        if record is None:
            self.send(env.src, "ma.cert2rh.resp", {"found": False, "echo": digest})
            return
        self.send(env.src, "ma.cert2rh.resp", {
            "found": True, "rh": record["rh"], "ra_host": record["ra_host"],
            "echo": digest,
        })

    def on_ma_certsbyrh(self, env) -> None:
        checked = self._check_ma_request(env)
        if checked is None:
            return
        request, digest = checked
        certs = []
        for rh in request["rhs"]:
            record = self.store.first("issued_plain", rh=rh)
            if record is not None:
                certs.append(record["cert"])
        self.send(env.src, "ma.certsbyrh.resp", {"certs": certs, "echo": digest})


def request_hash(single: dict) -> bytes:
    """Hash of one RA-to-PCA certificate request (identifies the request
    in every later revocation step)."""
    return hashlib.sha256(encode(single)).digest()
