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
only (backward privacy) and one boolean per same-device question. Every
case ends in a revocation, a verdict or a ``failed_case`` record naming
the stage that failed (a refused query fails its case as ``refused``).
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

from .authorities.base import Authority
from .certmodel import (
    CertIdRevocation,
    CertType,
    Certificate,
    Crl,
    LinkageRevocation,
    SERIES_PSEUDONYM,
    Priority,
    SignedMessage,
    sign_crl,
    sign_message,
    verify_message,
)
from .crypto import KeyPair, hybrid_decrypt
from .crypto.hybrid import HybridCiphertext
from .encoding import decode, encode, fields
from .errors import DecryptionError, ParseError, ScmsError
from .linkage import J_MAX


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


# the field a failed_case record names its case by
_CASE_SUBJECT = {
    "revocation": "lv", "cert_revocation": "cert_id", "investigation": "lv_a",
}


def _reply(**kinds):
    """Route an ``<op>.resp`` to ``handler(self, key, case, step, reply)``
    for the open case its echo names; a reply for no open case is dropped.
    The reply must carry ``kinds``, except that one whose ``found`` is false
    carries nothing more. A reply the handler refuses with ``ScmsError``
    fails its case at the step's stage and becomes a dead letter."""

    def wrap(handler):
        @functools.wraps(handler)
        def route(self, env) -> None:
            (echo,) = fields(env.payload, echo=str)
            if env.payload.get("found", True):
                fields(env.payload, **kinds)
            routed = self._case_for(env, echo)
            if routed is None:
                return
            key, case, step = routed
            try:
                handler(self, key, case, step, env.payload)
            except ScmsError:
                if key in self._cases:
                    self._fail(key, step.partition(":")[0])
                raise

        return route

    return wrap


class Ma(Authority):
    pca_host = "pca"
    ra_hosts = ("ra",)
    la_hosts = ("la1", "la2")
    crl_store_host = "crlstore"

    def __init__(self, component_id, bus, registry, rng, identity,
                 crlg: Crlg, detector: ThresholdDetector):
        super().__init__(component_id, bus, registry, rng, identity)
        self.crlg = crlg
        self.detector = detector
        self._cases: dict[str, dict] = {}
        # query digest -> (case key, step, server asked); a step is named
        # by its stage, plus ":<detail>" where a stage sends several queries
        self._await: dict[str, tuple[str, str, str]] = {}
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
        self._await[digest] = (case_key, step, dst)
        self.send(dst, op, {"q": msg.encode()})

    def _case_for(self, env, echo: str) -> tuple[str, dict, str] | None:
        """(key, case, step) of the open case whose query a reply echoes.
        A reply from any component but the one asked is refused, and the
        query stays open for its server."""
        if echo not in self._await:
            return None
        key, step, server = self._await[echo]
        if env.src != server:
            raise ScmsError(f"reply from {env.src!r} to a query for {server!r}")
        del self._await[echo]
        case = self._cases.get(key)
        return None if case is None else (key, case, step)

    def _fail(self, key: str, stage: str) -> None:
        case = self._cases.pop(key)
        subject = _CASE_SUBJECT[case["kind"]]
        self.store.put("failed_case", {subject: case[subject], "stage": stage})

    # --- report intake and detection ---

    def on_mb_batch(self, env) -> None:
        (reports,) = fields(env.payload, reports=list)
        for blob in reports:
            self._ingest_report(blob)
        self._run_detection()

    def _ingest_report(self, blob: bytes) -> None:
        try:
            plain = hybrid_decrypt(
                self.enc_keypair.private, HybridCiphertext.decode(blob)
            )
            report = decode(plain)
            if isinstance(report, dict) and report.get("kind") == "install-failure":
                evidence, reason = fields(report, evidence=bytes, reason=str)
                self.store.put("install_failure", {
                    "evidence": evidence,
                    "reason": reason,
                    "period": self.clock.period,
                })
                return
            evidence, reported_cert, reporter = fields(
                report, evidence=bytes, reported_cert=bytes, reporter=bytes)
            reported = Certificate.decode(reported_cert)
            reporter_msg = SignedMessage.decode(reporter)
            reporter_cert = (
                None if reporter_msg.cert_bytes is None
                else Certificate.decode(reporter_msg.cert_bytes)
            )
        except (DecryptionError, ParseError):
            self.store.put("bad_report", {"reason": "undecryptable or malformed"})
            return
        if reporter_cert is None:
            self.store.put("bad_report", {"reason": "no reporter certificate"})
            return
        if not verify_message(reporter_msg, reporter_cert):
            self.store.put("bad_report", {"reason": "bad reporter signature"})
            return
        self.store.put("report", {
            "lv": reported.linkage_value or b"",
            "reported_cert": reported_cert,
            "reported_cert_id": reported.cert_id(),
            "ctype": int(reported.ctype),
            "reporter_cert_id": reporter_cert.cert_id(),
            "evidence": evidence,
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

    def _investigation_plv(self, key, case, step, reply) -> None:
        if not reply["found"]:
            case["plvs"][step] = None
        else:
            case["plvs"][step] = reply["eplv1"]
            self.store.put("investigation", {
                "lv": case["lv_a" if step == "plv_a" else "lv_b"],
                "eplv1": reply["eplv1"],
                "eplv2": reply["eplv2"],
                "i": reply["i"],
                "j": reply["j"],
            })
        if len(case["plvs"]) < 2:
            return
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

    @_reply(same=bool)
    def on_ma_samedev_resp(self, key, case, step, reply) -> None:
        self.store.put("verdict", {
            "lv_a": case["lv_a"], "lv_b": case["lv_b"],
            "same": reply["same"], "reason": "la query",
        })
        del self._cases[key]

    # --- pseudonym revocation pipeline ---

    def start_pseudonym_revocation(self, lv: bytes) -> None:
        key = f"rev:{lv.hex()}"
        if key in self._cases:
            return
        self._cases[key] = {"kind": "revocation", "lv": lv, "seeds": {}}
        self._query(self.pca_host, "ma.lv2plv", {"lv": lv}, key, "plv")

    @_reply(found=bool, eplv1=bytes, eplv2=bytes, i=int, j=int)
    def on_ma_lv2plv_resp(self, key, case, step, reply) -> None:
        if case["kind"] == "investigation":
            self._investigation_plv(key, case, step, reply)
            return
        if not reply["found"]:
            self._fail(key, "plv")
            return
        self.store.put("investigation", {
            "lv": case["lv"],
            "eplv1": reply["eplv1"],
            "eplv2": reply["eplv2"],
            "i": reply["i"],
            "j": reply["j"],
        })
        self._query(self.pca_host, "ma.lv2rh", {"lv": case["lv"]}, key, "rh")

    @_reply(found=bool, rh=bytes, ra_host=str)
    def on_ma_lv2rh_resp(self, key, case, step, reply) -> None:
        if not reply["found"] or reply["ra_host"] not in self.ra_hosts:
            self._fail(key, "rh")
            return
        case["rh"] = reply["rh"]
        self._query(
            reply["ra_host"], "ma.blacklist", {"rh": case["rh"]}, key,
            "blacklist",
        )

    @_reply(found=bool, lci1=list[bytes], lci2=list[bytes], j_max=int)
    def on_ma_blacklist_resp(self, key, case, step, reply) -> None:
        if not reply["found"] or not 1 <= reply["j_max"] <= J_MAX:
            self._fail(key, "blacklist")
            return
        case["j_max"] = reply["j_max"]
        case["n_chains"] = len(reply["lci1"])
        period = self.clock.period
        for n, lci in enumerate(reply["lci1"]):
            self._query(
                self.la_hosts[0], "ma.lci2seed",
                {"lci": lci, "period": period}, key, f"seeds:1:{n}",
            )
        for n, lci in enumerate(reply["lci2"]):
            self._query(
                self.la_hosts[1], "ma.lci2seed",
                {"lci": lci, "period": period}, key, f"seeds:2:{n}",
            )

    @_reply(found=bool, ls=bytes, la_id=bytes)
    def on_ma_lci2seed_resp(self, key, case, step, reply) -> None:
        if not reply["found"]:
            self._fail(key, "seeds")
            return
        case["seeds"][step] = {"ls": reply["ls"], "la_id": reply["la_id"]}
        if len(case["seeds"]) < 2 * case["n_chains"]:
            return
        period = self.clock.period
        entries = []
        try:
            for n in range(case["n_chains"]):
                s1 = case["seeds"][f"seeds:1:{n}"]
                s2 = case["seeds"][f"seeds:2:{n}"]
                entries.append(LinkageRevocation(
                    i=period,
                    ls1=s1["ls"],
                    ls2=s2["ls"],
                    la_id1=s1["la_id"],
                    la_id2=s2["la_id"],
                    j_max=case["j_max"],
                    priority=Priority.NORMAL,
                ))
        except ValueError:  # a seed or LA id no CRL entry can carry
            self._fail(key, "seeds")
            return
        del self._cases[key]
        self.crlg.add_entries(SERIES_PSEUDONYM, linkage=entries)
        for entry in entries:
            self.store.put("revocation", {
                "lv": case["lv"],
                "rh": case["rh"],
                "ls1": entry.ls1,
                "ls2": entry.ls2,
                "la_id1": entry.la_id1,
                "la_id2": entry.la_id2,
                "period": period,
            })
        self.revocations_completed += 1
        self.publish_crl(SERIES_PSEUDONYM)

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

    @_reply(found=bool, rh=bytes, ra_host=str)
    def on_ma_cert2rh_resp(self, key, case, step, reply) -> None:
        if not reply["found"] or reply["ra_host"] not in self.ra_hosts:
            self._fail(key, "rh")
            return
        self._query(reply["ra_host"], "ma.blacklist_nonpseudo",
                    {"rh": reply["rh"]}, key, "blacklist")

    @_reply(found=bool, rhs=list[bytes])
    def on_ma_blacklist_nonpseudo_resp(self, key, case, step, reply) -> None:
        if not reply["found"]:
            self._fail(key, "blacklist")
            return
        if not reply["rhs"]:
            # nothing non-expired: blacklist only, no CRL delta
            del self._cases[key]
            self.store.put("revocation_nonpseudo", {
                "cert_id": case["cert_id"], "cert_ids": [],
            })
            return
        self._query(self.pca_host, "ma.certsbyrh", {"rhs": reply["rhs"]},
                    key, "certs")

    @_reply(certs=list[bytes])
    def on_ma_certsbyrh_resp(self, key, case, step, reply) -> None:
        certs = [Certificate.decode(raw) for raw in reply["certs"]]
        del self._cases[key]
        cert_ids = [cert.cert_id() for cert in certs
                    if cert.valid_to >= self.clock.period]
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
        op, reason, echo = fields(env.payload, op=str, reason=str, echo=str)
        self.store.put("refusal", {"op": op, "reason": reason})
        routed = self._case_for(env, echo)
        if routed is not None:
            self._fail(routed[0], "refused")

    # --- CRLG publication ---

    def publish_crl(self, series: int) -> Crl:
        crl = self.crlg.build(series, self.clock.period)
        self.send(self.crl_store_host, "crl.publish", {"crl": crl.encode()})
        return crl
