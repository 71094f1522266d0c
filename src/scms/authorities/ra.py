"""Registration authority.

Validates signed provisioning requests arriving through the proxy,
enforces the internal blacklist and the one-request-per-covered-span rule,
opens linkage chains at both LAs, expands caterpillar seeds into per-slot
cocoon keys, and emits single-certificate requests to the PCA in shuffled
order (threshold: a configured request count or a day's worth, whichever
comes first). Collates the PCA's encrypted responses into per-device
weekly batches for download, forwards shuffled misbehavior reports it
cannot read, and serves the blacklisting step of revocation without ever
revealing an enrollment certificate.

The store never contains a plaintext pseudonym certificate or pre-linkage
value; everything sensitive passes through as ciphertext.
"""

from __future__ import annotations

import functools
import hashlib

from ..butterfly import CaterpillarRequest, CocoonKeys, TimeIndex, cocoon_expand
from ..certmodel import (
    BSM_PSID,
    ENROLLMENT_TYPES,
    U32_MAX,
    CertType,
    Certificate,
    SignedMessage,
    check_cert_signature,
    verify_chain,
    verify_message,
)
from ..crypto import GroupElement, KeyPair, hybrid_decrypt
from ..crypto.hybrid import HybridCiphertext
from ..encoding import decode, encode, fields, rows
from ..errors import DecryptionError, ParseError, ScmsError
from ..linkage import J_MAX, LA1_ID, LA2_ID
from ..rootmgmt import Ballot, TrustState
from .base import MaQueryServer, ma_query
from .enrollment import ENROLLMENT_VALIDITY, device_handle
from .pca import request_hash

# the shuffle buffer goes to the PCA once it holds this many requests or
# its oldest request has waited this many days, whichever comes first
SHUFFLE_MAX_COUNT = 10_000
SHUFFLE_MAX_DAYS = 1
# the most certificates one provisioning request may ask the LAs to fill:
# 20 a period over a whole enrollment validity; each LA computes and
# stores the grid at once, so an unbounded one stalls the run
MAX_REQUEST_CERTS = ENROLLMENT_VALIDITY * 20
# slots of the grid per deferred cocoon-expansion job: a 120-slot grid
# makes 15 jobs, which span two pool chunks (bus.POOL_CHUNK), while a 20-
# or 40-slot grid stays below one chunk and expands inline. On provision
# seed 1 with 2 CPUs, 8 beat 4 in 7 of 10 alternating runs, and 12, 16
# and 30 were no faster
EXPAND_SLICE = 8

# the certificates an end entity may request outside the pseudonym flow
_APP_TYPES = {CertType.OBE_IDENTIFICATION, CertType.RSE_APPLICATION}


class Ra(MaQueryServer):
    pca_host = "pca"
    la_hosts = ("la1", "la2")
    la_ids = (LA1_ID, LA2_ID)

    def __init__(self, component_id, bus, registry, rng, identity,
                 ma_cert: Certificate, ma_query_limit: int, trust: TrustState):
        super().__init__(component_id, bus, registry, rng, identity, ma_cert,
                         ma_query_limit)
        self.trust = trust
        self._pending: dict[str, dict] = {}       # chain ref -> provisioning state
        self._pending_app: dict[bytes, dict] = {} # request hash -> app state
        self._buffer: list[dict] = []             # shuffle buffer of singles
        self._buffer_first_day: int | None = None
        self._report_buffer: list[bytes] = []
        self.require_recertified_eca = False
        # old ECA cert id -> re-certified ECA certificate (set by the SCMS
        # manager after a root or ICA rotation)
        self.recertified_ecas: dict[bytes, Certificate] = {}
        # attack-injection hooks for the MITM drill (an insider substituting
        # response encryption keys); populated by scenarios only
        self.mitm_handles: set[str] = set()
        self._mitm_state: dict[bytes, dict] = {}
        self.mitm_injected = 0

    # --- helpers ---

    def _enrollment_record(self, handle: str) -> dict | None:
        return self.store.first("enrollment", handle=handle)

    def _deny(self, dst: str, reply_ref: bytes, reason: str) -> None:
        self.send(dst, "provision.deny", {
            "reply_ref": reply_ref, "reason": reason,
        })

    def _open_request(self, env, allow_recertified: bool = False):
        """Decrypt and authenticate a proxied device request; returns
        (signed message, enrollment certificate, handle, reply ref) or
        None after a denial.

        With allow_recertified, an enrollment certificate whose chain died
        with a revoked root still passes if its issuing ECA has been
        re-certified with the same key under the new hierarchy.
        """
        blob, ref = fields(env.payload, blob=bytes, reply_ref=bytes)
        try:
            plain = hybrid_decrypt(
                self.enc_keypair.private, HybridCiphertext.decode(blob)
            )
            (req,) = fields(decode(plain), req=bytes)
            msg = SignedMessage.decode(req)
            cert = (
                Certificate.decode(msg.cert_bytes)
                if msg.cert_bytes is not None else None
            )
        except (DecryptionError, ParseError):
            self._deny(env.src, ref, "undecryptable or malformed request")
            return None
        if cert is None:
            self._deny(env.src, ref, "missing enrollment certificate")
            return None
        if cert.ctype not in ENROLLMENT_TYPES:
            self._deny(env.src, ref, "not an enrollment certificate")
            return None
        if not verify_message(msg, cert):
            self._deny(env.src, ref, "bad signature")
            return None
        if not verify_chain(cert, self.trust, at_period=self.clock.period).ok:
            if not (allow_recertified and self._recertified_ok(cert)):
                self._deny(env.src, ref, "enrollment certificate does not verify")
                return None
        handle = device_handle(msg.cert_bytes)
        record = self._enrollment_record(handle)
        if record is not None and record["blacklisted"]:
            self._deny(env.src, ref, "enrollment certificate blacklisted")
            return None
        return msg, cert, handle, ref

    def _recertified_ok(self, cert: Certificate) -> bool:
        new_eca = self.recertified_ecas.get(cert.issuer_id)
        if new_eca is None:
            return False
        if not check_cert_signature(cert, new_eca):
            return False
        return verify_chain(new_eca, self.trust).ok

    # --- provisioning step 2: accept, validate, expand ---

    def on_provision_request(self, env) -> None:
        opened = self._open_request(env)
        if opened is None:
            return
        msg, cert, handle, reply_ref = opened
        try:
            request = decode(msg.payload)
            a, k_sign, h, k_enc, start, n_periods, j_max = fields(
                request, A=bytes, k_sign=bytes, H=bytes, k_enc=bytes,
                start=int, n_periods=int, j_max=int,
            )
            (psid,) = fields({"psid": BSM_PSID, **request}, psid=int)
            caterpillar = CaterpillarRequest(
                signing_seed=GroupElement.decode(a),
                signing_key=k_sign,
                encryption_seed=GroupElement.decode(h),
                encryption_key=k_enc,
            )
        except (ParseError, ValueError):
            self._deny(env.src, reply_ref, "malformed caterpillar request")
            return
        end = start + n_periods - 1
        if not (0 <= start <= end <= U32_MAX and 1 <= j_max <= J_MAX
                and n_periods * j_max <= MAX_REQUEST_CERTS
                and 0 <= psid <= U32_MAX):
            self._deny(env.src, reply_ref, "malformed caterpillar request")
            return
        if not cert.valid_from <= start <= end <= cert.valid_to:
            self._deny(env.src, reply_ref,
                       "time span outside the enrollment certificate")
            return
        for span in self.store.where("span", handle=handle):
            if span["start"] <= end and start <= span["end"]:
                self._deny(env.src, reply_ref,
                           "duplicate request for covered time span")
                return
        record = self._enrollment_record(handle)
        if record is None:
            record = self.store.put("enrollment", {
                "handle": handle,
                "cert": msg.cert_bytes,
                "valid_from": cert.valid_from,
                "valid_to": cert.valid_to,
                "blacklisted": False,
                "lci1": [],
                "lci2": [],
            })
        self.store.put("span", {
            "handle": handle, "start": start, "end": end, "j_max": j_max,
        })

        ref = self.rng.randbytes(8).hex()
        self._pending[ref] = {
            "handle": handle,
            "psid": psid,
            "grid": (start, n_periods, j_max),
            "caterpillar": caterpillar,
            "plvs": {},
            "new_chain": not record["lci1"],
        }
        chain_msg = {
            "ref": ref, "start": start, "n_periods": n_periods, "j_max": j_max,
        }
        for host in self.la_hosts:
            if record["lci1"]:
                lci = record["lci1" if host == self.la_hosts[0] else "lci2"][0]
                self.send(host, "plv.request", {**chain_msg, "lci": lci})
            else:
                self.send(host, "chain.open", chain_msg)
        self.send(env.src, "provision.ack", {
            "reply_ref": reply_ref, "request_id": ref,
        })

    def on_chain_plvs(self, env) -> None:
        ref, _, plvs = fields(env.payload, ref=str, lci=bytes, plvs=list)
        if env.src not in self.la_hosts:
            raise ScmsError(f"linkage values from {env.src!r}, not an LA")
        state = self._pending.get(ref)
        if state is None:
            return
        start, n_periods, j_max = state["grid"]
        if [[i, j] for i, j, _ in rows(plvs, int, int, bytes)] != [
            [i, j] for i in range(start, start + n_periods) for j in range(j_max)
        ]:
            raise ParseError("linkage values do not cover the requested grid", 0)
        state["plvs"][env.src] = env.payload
        if len(state["plvs"]) < 2:
            return
        del self._pending[ref]
        record = self._enrollment_record(state["handle"])
        if record is None or record["blacklisted"]:
            return  # pre-generation halted
        if state["new_chain"]:
            record["lci1"].append(state["plvs"][self.la_hosts[0]]["lci"])
            record["lci2"].append(state["plvs"][self.la_hosts[1]]["lci"])
        self._expand(state)

    def on_chain_error(self, env) -> None:
        # LA unavailable for this request: drop pending state, the device
        # retries later; nothing is emitted to the PCA
        (ref,) = fields(env.payload, ref=str)
        self._pending.pop(ref, None)

    def _expand(self, state: dict) -> None:
        """Defer the cocoon expansion of the grid, ``EXPAND_SLICE`` slots
        to a job; the commits queue the singles in slot order. Both LAs'
        grids are the requested one (``on_chain_plvs``), so they align."""
        slots = [(TimeIndex(i, j), ct1, ct2) for (i, j, ct1), (_, _, ct2) in zip(
            state["plvs"][self.la_hosts[0]]["plvs"],
            state["plvs"][self.la_hosts[1]]["plvs"],
        )]
        for start in range(0, len(slots), EXPAND_SLICE):
            part = slots[start:start + EXPAND_SLICE]
            last = start + EXPAND_SLICE >= len(slots)
            self.bus.defer(
                cocoon_expand,
                (state["caterpillar"], [index for index, _, _ in part]),
                functools.partial(self._queue_singles, state, part, last),
            )

    def _queue_singles(self, state: dict, slots: list, last: bool,
                       cocoons: list[CocoonKeys]) -> None:
        """Commit of one expansion job: a single per slot into the shuffle
        buffer, then, after the grid's last slot, the shuffle rule. The
        MITM drill's attack keys are drawn here, slot by slot, so that all
        of this delivery's draws, the shuffle's included, come in order."""
        handle = state["handle"]
        mitm = handle in self.mitm_handles
        for (index, ct1, ct2), cocoon in zip(slots, cocoons):
            resp_key = cocoon.encryption
            attack_key: KeyPair | None = None
            if mitm:
                attack_key = KeyPair.generate(self.rng)
                resp_key = attack_key.public
                self.mitm_injected += 1
            single = {
                "tbs": {"ctype": int(CertType.OBE_PSEUDONYM)},
                "cocoon": cocoon.signing.encode(),
                "resp_key": resp_key.encode(),
                "eplv1": ct1,
                "eplv2": ct2,
                "la1": self.la_ids[0],
                "la2": self.la_ids[1],
                "i": index.i,
                "j": index.j,
                "psid": state["psid"],
            }
            rh = request_hash(single)
            single["rh"] = rh
            self.store.put("request_index", {"rh": rh, "handle": handle,
                                             "i": index.i})
            if attack_key is not None:
                self._mitm_state[rh] = {
                    "attack_priv": attack_key.private.to_bytes(),
                    "true_key": cocoon.encryption.encode(),
                }
            self._buffer.append(single)
            if self._buffer_first_day is None:
                self._buffer_first_day = self.clock.day
        if last:
            self.maybe_flush()

    # --- step 3: shuffle and forward to the PCA ---

    def maybe_flush(self) -> bool:
        if not self._buffer:
            return False
        due = len(self._buffer) >= SHUFFLE_MAX_COUNT or (
            self._buffer_first_day is not None
            and self.clock.day - self._buffer_first_day >= SHUFFLE_MAX_DAYS
        )
        if due:
            self.flush()
        return due

    def flush(self) -> int:
        """Shuffle the buffered singles and send them all."""
        batch, self._buffer = self._buffer, []
        self._buffer_first_day = None
        self.rng.shuffle(batch)
        for single in batch:
            self.send(self.pca_host, "cert.request", single)
        return len(batch)

    # --- step 6: collate responses into weekly batches ---

    def _check_pca(self, env) -> None:
        if env.src != self.pca_host:
            raise ScmsError(f"{env.mtype} from {env.src!r}, not the PCA")

    def on_cert_response(self, env) -> None:
        self._check_pca(env)
        rh, package = fields(env.payload, rh=bytes, package=bytes)
        index = self.store.first("request_index", rh=rh)
        if index is None:
            return
        record = self._enrollment_record(index["handle"])
        if record is None or record["blacklisted"]:
            return  # halted
        attack = self._mitm_state.pop(rh, None)
        if attack is not None:
            package = self._mitm_rewrap(package, attack)
        batch = self.store.first("batch", handle=index["handle"], period=index["i"])
        if batch is None:
            batch = self.store.put("batch", {
                "name": f"{index['handle']}_{index['i']}.batch",
                "handle": index["handle"],
                "period": index["i"],
                "items": [],
            })
        batch["items"].append(package)

    def _mitm_rewrap(self, package_bytes: bytes, attack: dict) -> bytes:
        """Insider attack continuation: decrypt with the substituted key and
        re-encrypt to the device's real key. The PCA's signature over the
        original ciphertext cannot be fixed up, which is exactly what the
        device detects."""
        from ..crypto import Scalar, hybrid_encrypt

        package = SignedMessage.decode(package_bytes)
        i, j, ct = fields(decode(package.payload), i=int, j=int, ct=bytes)
        plain = hybrid_decrypt(
            Scalar.from_bytes(attack["attack_priv"]),
            HybridCiphertext.decode(ct),
        )
        resealed = hybrid_encrypt(
            GroupElement.decode(attack["true_key"]), plain, self.rng
        ).encode()
        forged = SignedMessage(
            payload=encode({"i": i, "j": j, "ct": resealed}),
            cert_id=package.cert_id,
            signature=package.signature,
            cert_bytes=package.cert_bytes,
        )
        return forged.encode()

    def on_cert_reject(self, env) -> None:
        self._check_pca(env)
        rh, reason = fields(env.payload, rh=bytes, reason=str)
        self.store.put("deferred", {"rh": rh, "reason": reason})
        state = self._pending_app.pop(rh, None)
        if state is not None:
            # one refused certificate fails the device's whole request
            for other in [k for k, v in self._pending_app.items() if v is state]:
                del self._pending_app[other]
            self._deny(state["src"], state["reply_ref"], reason)

    def on_batch_request(self, env) -> None:
        handle, period, ref = fields(
            env.payload, handle=str, period=int, reply_ref=bytes
        )
        record = self._enrollment_record(handle)
        if record is None:
            self.send(env.src, "batch.response", {
                "reply_ref": ref, "error": "not-found",
            })
            return
        if record["blacklisted"]:
            self.send(env.src, "batch.response", {
                "reply_ref": ref, "error": "denied",
            })
            return
        batch = self.store.first("batch", handle=handle, period=period)
        if batch is None:
            self.send(env.src, "batch.response", {
                "reply_ref": ref, "error": "not-found",
            })
            return
        self.send(env.src, "batch.response", {
            "reply_ref": ref, "period": period, "items": list(batch["items"]),
        })

    # --- application / identification certificates (no shuffle) ---

    def on_app_request(self, env) -> None:
        opened = self._open_request(env)
        if opened is None:
            return
        msg, cert, handle, reply_ref = opened
        try:
            request = decode(msg.payload)
            ctype, pubkey, psid, validities = fields(
                request, ctype=int, pubkey=bytes, psid=int, validities=list,
            )
            enc_pubkey, subject_info = fields(
                {"enc_pubkey": None, "subject_info": None, **request},
                enc_pubkey=(bytes, type(None)), subject_info=(str, type(None)),
            )
            rows(validities, int, int)
        except ParseError:
            self._deny(env.src, reply_ref, "malformed application request")
            return
        periods_ok = validities and all(
            0 <= start <= end <= U32_MAX for start, end in validities
        )
        if ctype not in _APP_TYPES or not 0 <= psid <= U32_MAX or not periods_ok:
            self._deny(env.src, reply_ref, "malformed application request")
            return
        state = {
            "reply_ref": reply_ref,
            "src": env.src,
            "expected": len(validities),
            "certs": [],
        }
        for valid_from, valid_to in validities:
            tbs = {
                "ctype": ctype,
                "pubkey": pubkey,
                "enc_pubkey": enc_pubkey,
                "valid_from": valid_from,
                "valid_to": valid_to,
                "psid": psid,
                "subject_info": subject_info,
            }
            rh = request_hash(tbs)
            self._pending_app[rh] = state
            self.store.put("app_index", {
                "rh": rh, "handle": handle, "cert_id": None,
                "valid_to": valid_to,
            })
            self.send(self.pca_host, "cert.request.plain", {"rh": rh, "tbs": tbs})

    def on_cert_response_plain(self, env) -> None:
        self._check_pca(env)
        rh, raw = fields(env.payload, rh=bytes, cert=bytes)
        cert_id = Certificate.decode(raw).cert_id()
        state = self._pending_app.pop(rh, None)
        index = self.store.first("app_index", rh=rh)
        if index is not None:
            # plain certificates are readable by the RA; remember the id so
            # non-pseudonym revocation can skip a PCA round trip if needed
            index["cert_id"] = cert_id
        if state is None:
            return
        state["certs"].append(raw)
        if len(state["certs"]) == state["expected"]:
            self.send(state["src"], "app.issued", {
                "reply_ref": state["reply_ref"], "certs": state["certs"],
            })

    # --- misbehavior report forwarding (shuffled, unread) ---

    def on_mb_report(self, env) -> None:
        (blob,) = fields(env.payload, blob=bytes)
        self._report_buffer.append(blob)
        self.store.put("report_ciphertext", {
            "digest": hashlib.sha256(blob).hexdigest(),
        })

    def flush_reports(self) -> int:
        if not self._report_buffer:
            return 0
        batch, self._report_buffer = self._report_buffer, []
        self.rng.shuffle(batch)
        self.send("ma", "mb.batch", {"reports": batch})
        return len(batch)

    # --- revocation step 4: blacklist without revealing the certificate ---

    @ma_query(rh=bytes)
    def on_ma_blacklist(self, rh) -> dict:
        index = self.store.first("request_index", rh=rh)
        if index is None:
            return {"found": False}
        record = self._enrollment_record(index["handle"])
        record["blacklisted"] = True
        spans = self.store.where("span", handle=index["handle"])
        j_max = max((s["j_max"] for s in spans), default=20)
        return {
            "found": True,
            "la_hosts": list(self.la_hosts),
            "lci1": record["lci1"],
            "lci2": record["lci2"],
            "j_max": j_max,
        }

    @ma_query(rh=bytes)
    def on_ma_blacklist_nonpseudo(self, rh) -> dict:
        index = self.store.first("app_index", rh=rh)
        if index is None:
            return {"found": False}
        record = self._enrollment_record(index["handle"])
        if record is not None:
            record["blacklisted"] = True
        else:
            # app-only device enrolled elsewhere: track the blacklist flag
            self.store.put("enrollment", {
                "handle": index["handle"], "cert": None, "valid_from": 0,
                "valid_to": 0, "blacklisted": True, "lci1": [], "lci2": [],
            })
        non_expired = [
            r["rh"]
            for r in self.store.where("app_index", handle=index["handle"])
            if r["valid_to"] >= self.clock.period
        ]
        return {"found": True, "rhs": non_expired}

    # --- re-enrollment (roll-over via the current enrollment key) ---

    def on_reenroll_request(self, env) -> None:
        opened = self._open_request(env, allow_recertified=True)
        if opened is None:
            return
        msg, cert, _, reply_ref = opened
        if self.require_recertified_eca and cert.issuer_id not in self.recertified_ecas:
            self._deny(env.src, reply_ref, "issuing ECA not re-certified")
            return
        (new_pub,) = fields(decode(msg.payload), new_pub=bytes)
        self.send("eca", "reenroll.forward", {
            "old_cert": msg.cert_bytes, "new_pub": new_pub, "reply_ref": reply_ref,
        })

    def on_reenroll_issued(self, env) -> None:
        reply_ref, cert = fields(env.payload, reply_ref=bytes, cert=bytes)
        self.send("lop", "reenroll.issued", {"reply_ref": reply_ref, "cert": cert})

    # --- trust updates ---

    def on_ballot_publish(self, env) -> None:
        (ballot,) = fields(env.payload, ballot=bytes)
        self.trust.process_ballot(Ballot.decode(ballot))
