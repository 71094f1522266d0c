"""Misbehavior authority with CRL generator.

Intake: encrypted reports arrive in shuffled batches from the RA, are
decrypted, attributed to a linkage value and fed to a pluggable global
detector (default: a threshold of distinct reporters against the same
linkage value within a period window). A flagged linkage value starts an
automatic pipeline over signed queries:

  pseudonym:   lv -> encrypted plv pair (PCA, investigation)
               lv -> request hash + RA host (PCA)
               request hash -> blacklist + LCI arrays (RA; the enrollment
               certificate itself is never revealed)
               LCI -> current-period linkage seed (each LA)
               seeds -> grouped CRL entry, signed and published (CRLG)

  other certs: cert id -> request hash (PCA), blacklist + non-expired
               request hashes (RA), hashes -> certificates (PCA),
               CertIds -> CRL entry

Every query the MA sends is signed and logged, matching the audit records
kept by the PCA, LAs and RA; the MA ends up holding current-period seeds
only (backward privacy) and one boolean per same-device question.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .authorities.base import Component
from .certmodel import (
    CertIdRevocation,
    CertType,
    Certificate,
    Crl,
    LinkageRevocation,
    Priority,
    SeriesConfig,
    SignedMessage,
    sign_crl,
    sign_message,
    verify_message,
)
from .crypto import KeyPair, hybrid_decrypt
from .crypto.hybrid import HybridCiphertext
from .encoding import decode, encode
from .errors import DecryptionError, ParseError


@dataclass
class ThresholdDetector:
    """Flag a linkage value once enough distinct reporters accuse it."""

    threshold: int = 3
    window_periods: int = 4

    def __call__(self, reports: list[dict], period: int) -> set[bytes]:
        reporters_by_lv: dict[bytes, set[bytes]] = {}
        for report in reports:
            if period - report["period"] > self.window_periods:
                continue
            reporters_by_lv.setdefault(report["lv"], set()).add(
                report["reporter_cert_id"]
            )
        return {
            lv
            for lv, reporters in reporters_by_lv.items()
            if len(reporters) >= self.threshold
        }


class Crlg:
    """CRL generator: cumulative entries and a monotone sequence number
    per (CRACA, series)."""

    def __init__(self, key: KeyPair, cert: Certificate, craca_id: bytes):
        self.key = key
        self.cert = cert
        self.craca_id = craca_id
        self._entries: dict[int, tuple[list, list]] = {}
        self._sequence: dict[int, int] = {}

    def add_entries(
        self,
        series: int,
        linkage: list[LinkageRevocation] = (),
        certid: list[CertIdRevocation] = (),
    ) -> None:
        held_linkage, held_certid = self._entries.setdefault(series, ([], []))
        held_linkage.extend(linkage)
        held_certid.extend(certid)

    def build(self, series: int, issue_period: int) -> Crl:
        seq = self._sequence.get(series, 0) + 1
        self._sequence[series] = seq
        linkage, certid = self._entries.get(series, ([], []))
        crl = Crl(
            series=series,
            craca_id=self.craca_id,
            issue_period=issue_period,
            sequence=seq,
            crlg_cert_id=self.cert.cert_id(),
            linkage_entries=list(linkage),
            certid_entries=list(certid),
        )
        return sign_crl(crl, self.key.private, self.cert)


class Ma(Component):
    def configure(
        self,
        crlg: Crlg,
        series: SeriesConfig,
        pca_host: str = "pca",
        la_hosts: tuple[str, str] = ("la1", "la2"),
        crl_store_host: str = "crlstore",
        detector=None,
    ) -> None:
        self.crlg = crlg
        self.series = series
        self.pca_host = pca_host
        self.la_hosts = la_hosts
        self.crl_store_host = crl_store_host
        self.detector = detector or ThresholdDetector()
        self._cases: dict[str, dict] = {}
        self._await: dict[str, tuple[str, str]] = {}
        self._flagged: set[bytes] = set()
        self.revocations_completed = 0

    # --- signed queries with a sent-log mirroring the servers' audits ---

    def _query(self, dst: str, op: str, payload: dict, case_key: str,
               step: str) -> None:
        raw = encode(payload)
        msg = sign_message(self.keypair.private, self.cert, raw)
        digest = hashlib.sha256(raw).hexdigest()
        self.store.put("audit_sent", {
            "period": self.clock.period, "dst": dst, "op": op,
            "object": digest,
        })
        self._await[digest] = (case_key, step)
        self.send(dst, op, {"q": msg.encode()})

    def _case_for(self, env) -> tuple[dict, str] | None:
        routed = self._await.pop(env.payload["echo"], None)
        if routed is None:
            return None
        case_key, step = routed
        case = self._cases.get(case_key)
        if case is None:
            return None
        return case, step

    # --- report intake and detection ---

    def on_mb_batch(self, env) -> None:
        for blob in env.payload["reports"]:
            self._ingest_report(blob)
        self._run_detection()

    def _ingest_report(self, blob: bytes) -> None:
        try:
            plain = hybrid_decrypt(
                self.enc_keypair.private, HybridCiphertext.decode(blob)
            )
            report = decode(plain)
            if report.get("kind") == "install-failure":
                self.store.put("install_failure", {
                    "evidence": report["evidence"],
                    "reason": report["reason"],
                    "period": self.clock.period,
                })
                return
            reported = Certificate.decode(report["reported_cert"])
            reporter_msg = SignedMessage.decode(report["reporter"])
        except (DecryptionError, ParseError, ValueError, KeyError, TypeError):
            self.store.put("bad_report", {"reason": "undecryptable or malformed"})
            return
        if reporter_msg.cert_bytes is None:
            self.store.put("bad_report", {"reason": "no reporter certificate"})
            return
        reporter_cert = Certificate.decode(reporter_msg.cert_bytes)
        if not verify_message(reporter_msg, reporter_cert):
            self.store.put("bad_report", {"reason": "bad reporter signature"})
            return
        self.store.put("report", {
            "lv": reported.linkage_value or b"",
            "reported_cert": report["reported_cert"],
            "reported_cert_id": reported.cert_id(),
            "ctype": int(reported.ctype),
            "reporter_cert_id": reporter_cert.cert_id(),
            "evidence": report["evidence"],
            "period": self.clock.period,
        })

    def _run_detection(self) -> None:
        pseudonym_reports = [
            r for r in self.store.scan("report") if r["ctype"] == CertType.OBE_PSEUDONYM
        ]
        flagged = self.detector(pseudonym_reports, self.clock.period)
        for lv in sorted(flagged - self._flagged):
            self._flagged.add(lv)
            self.start_pseudonym_revocation(lv)
        # non-pseudonym certificates are flagged per cert id
        other = [
            {**r, "lv": r["reported_cert_id"]}
            for r in self.store.scan("report")
            if r["ctype"] != CertType.OBE_PSEUDONYM
        ]
        for cid in sorted(self.detector(other, self.clock.period) - self._flagged):
            self._flagged.add(cid)
            record = self.store.first("report", reported_cert_id=cid)
            self.start_certificate_revocation(record["reported_cert"])

    # --- investigation (boolean only) ---

    def request_same_device(self, lv_a: bytes, lv_b: bytes) -> None:
        """Ask whether two reported linkage values point at one device.
        Result lands in the 'verdict' store records."""
        key = f"inv:{lv_a.hex()}:{lv_b.hex()}"
        self._cases[key] = {
            "kind": "investigation", "lv_a": lv_a, "lv_b": lv_b, "plvs": {},
        }
        self._query(self.pca_host, "ma.lv2plv", {"lv": lv_a}, key, "plv_a")
        self._query(self.pca_host, "ma.lv2plv", {"lv": lv_b}, key, "plv_b")

    def _investigation_plv(self, case: dict, step: str, env) -> None:
        if not env.payload["found"]:
            case["plvs"][step] = None
        else:
            case["plvs"][step] = env.payload["eplv1"]
            self.store.put("investigation", {
                "lv": case["lv_a" if step == "plv_a" else "lv_b"],
                "eplv1": env.payload["eplv1"],
                "eplv2": env.payload["eplv2"],
                "i": env.payload["i"],
                "j": env.payload["j"],
            })
        if len(case["plvs"]) < 2:
            return
        key = f"inv:{case['lv_a'].hex()}:{case['lv_b'].hex()}"
        if case["plvs"]["plv_a"] is None or case["plvs"]["plv_b"] is None:
            self.store.put("verdict", {
                "lv_a": case["lv_a"], "lv_b": case["lv_b"], "same": False,
                "reason": "unknown linkage value",
            })
            del self._cases[key]
            return
        self._query(
            self.la_hosts[0],
            "ma.samedev",
            {"ct_a": case["plvs"]["plv_a"], "ct_b": case["plvs"]["plv_b"]},
            key,
            "samedev",
        )

    def on_ma_samedev_resp(self, env) -> None:
        routed = self._case_for(env)
        if routed is None:
            return
        case, _ = routed
        self.store.put("verdict", {
            "lv_a": case["lv_a"], "lv_b": case["lv_b"],
            "same": env.payload["same"], "reason": "la query",
        })
        del self._cases[f"inv:{case['lv_a'].hex()}:{case['lv_b'].hex()}"]

    # --- pseudonym revocation pipeline ---

    def start_pseudonym_revocation(self, lv: bytes) -> None:
        key = f"rev:{lv.hex()}"
        if key in self._cases:
            return
        self._cases[key] = {"kind": "revocation", "lv": lv, "seeds": {}}
        self._query(self.pca_host, "ma.lv2plv", {"lv": lv}, key, "plv")

    def on_ma_lv2plv_resp(self, env) -> None:
        routed = self._case_for(env)
        if routed is None:
            return
        case, step = routed
        if case["kind"] == "investigation":
            self._investigation_plv(case, step, env)
            return
        key = f"rev:{case['lv'].hex()}"
        if not env.payload["found"]:
            del self._cases[key]
            self.store.put("failed_case", {"lv": case["lv"], "stage": "plv"})
            return
        self.store.put("investigation", {
            "lv": case["lv"],
            "eplv1": env.payload["eplv1"],
            "eplv2": env.payload["eplv2"],
            "i": env.payload["i"],
            "j": env.payload["j"],
        })
        self._query(self.pca_host, "ma.lv2rh", {"lv": case["lv"]}, key, "rh")

    def on_ma_lv2rh_resp(self, env) -> None:
        routed = self._case_for(env)
        if routed is None:
            return
        case, _ = routed
        key = f"rev:{case['lv'].hex()}"
        if not env.payload["found"]:
            del self._cases[key]
            self.store.put("failed_case", {"lv": case["lv"], "stage": "rh"})
            return
        case["rh"] = env.payload["rh"]
        self._query(
            env.payload["ra_host"], "ma.blacklist", {"rh": case["rh"]}, key, "bl"
        )

    def on_ma_blacklist_resp(self, env) -> None:
        routed = self._case_for(env)
        if routed is None:
            return
        case, _ = routed
        key = f"rev:{case['lv'].hex()}"
        if not env.payload["found"]:
            del self._cases[key]
            self.store.put("failed_case", {"lv": case["lv"], "stage": "blacklist"})
            return
        case["j_max"] = env.payload["j_max"]
        case["n_chains"] = len(env.payload["lci1"])
        period = self.clock.period
        for n, lci in enumerate(env.payload["lci1"]):
            self._query(
                env.payload["la_hosts"][0], "ma.lci2seed",
                {"lci": lci, "period": period}, key, f"seed1:{n}",
            )
        for n, lci in enumerate(env.payload["lci2"]):
            self._query(
                env.payload["la_hosts"][1], "ma.lci2seed",
                {"lci": lci, "period": period}, key, f"seed2:{n}",
            )

    def on_ma_lci2seed_resp(self, env) -> None:
        routed = self._case_for(env)
        if routed is None:
            return
        case, step = routed
        key = f"rev:{case['lv'].hex()}"
        if not env.payload["found"]:
            del self._cases[key]
            self.store.put("failed_case", {"lv": case["lv"], "stage": "seeds"})
            return
        case["seeds"][step] = {
            "ls": env.payload["ls"], "la_id": env.payload["la_id"],
        }
        if len(case["seeds"]) < 2 * case["n_chains"]:
            return
        del self._cases[key]
        period = self.clock.period
        for n in range(case["n_chains"]):
            s1 = case["seeds"][f"seed1:{n}"]
            s2 = case["seeds"][f"seed2:{n}"]
            entry = LinkageRevocation(
                i=period,
                ls1=s1["ls"],
                ls2=s2["ls"],
                la_id1=s1["la_id"],
                la_id2=s2["la_id"],
                j_max=case["j_max"],
                priority=Priority.NORMAL,
            )
            self.crlg.add_entries(self.series.pseudonym, linkage=[entry])
            self.store.put("revocation", {
                "lv": case["lv"],
                "rh": case["rh"],
                "ls1": s1["ls"],
                "ls2": s2["ls"],
                "la_id1": s1["la_id"],
                "la_id2": s2["la_id"],
                "period": period,
            })
        self.revocations_completed += 1
        self.publish_crl(self.series.pseudonym)

    # --- non-pseudonym revocation pipeline ---

    def start_certificate_revocation(self, cert_bytes: bytes) -> None:
        cert = Certificate.decode(cert_bytes)
        if cert.linkage_value is not None:
            raise ValueError("certificate has a linkage value; use the "
                             "pseudonym pipeline")
        key = f"crev:{cert.cert_id().hex()}"
        if key in self._cases:
            return
        self._cases[key] = {
            "kind": "cert_revocation",
            "cert_id": cert.cert_id(),
            "series": cert.crl_series,
        }
        self._query(
            self.pca_host, "ma.cert2rh", {"cert_id": cert.cert_id()}, key, "rh"
        )

    def on_ma_cert2rh_resp(self, env) -> None:
        routed = self._case_for(env)
        if routed is None:
            return
        case, _ = routed
        key = f"crev:{case['cert_id'].hex()}"
        if not env.payload["found"]:
            del self._cases[key]
            self.store.put("failed_case", {
                "cert_id": case["cert_id"], "stage": "rh",
            })
            return
        self._query(
            env.payload["ra_host"], "ma.blacklist_nonpseudo",
            {"rh": env.payload["rh"]}, key, "bl",
        )

    def on_ma_blacklist_nonpseudo_resp(self, env) -> None:
        routed = self._case_for(env)
        if routed is None:
            return
        case, _ = routed
        key = f"crev:{case['cert_id'].hex()}"
        if not env.payload["found"]:
            del self._cases[key]
            return
        if not env.payload["rhs"]:
            # nothing non-expired: blacklist only, no CRL delta
            del self._cases[key]
            self.store.put("revocation_nonpseudo", {
                "cert_id": case["cert_id"], "cert_ids": [],
            })
            return
        self._query(
            self.pca_host, "ma.certsbyrh", {"rhs": env.payload["rhs"]}, key,
            "certs",
        )

    def on_ma_certsbyrh_resp(self, env) -> None:
        routed = self._case_for(env)
        if routed is None:
            return
        case, _ = routed
        del self._cases[f"crev:{case['cert_id'].hex()}"]
        cert_ids = []
        for raw in env.payload["certs"]:
            cert = Certificate.decode(raw)
            if cert.valid_to >= self.clock.period:
                cert_ids.append(cert.cert_id())
        self.crlg.add_entries(case["series"], certid=[
            CertIdRevocation(cid, Priority.NORMAL) for cid in cert_ids
        ])
        self.store.put("revocation_nonpseudo", {
            "cert_id": case["cert_id"], "cert_ids": cert_ids,
        })
        self.revocations_completed += 1
        if cert_ids:
            self.publish_crl(case["series"])

    def on_ma_refused(self, env) -> None:
        self.store.put("refusal", {
            "op": env.payload["op"], "reason": env.payload["reason"],
        })

    # --- CRLG publication ---

    def publish_crl(self, series: int) -> Crl:
        crl = self.crlg.build(series, self.clock.period)
        self.send(self.crl_store_host, "crl.publish", {"crl": crl.encode()})
        return crl
