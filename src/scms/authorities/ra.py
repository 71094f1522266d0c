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

import hashlib

from ..butterfly import CaterpillarRequest, TimeIndex, cocoon_expand
from ..certmodel import (
    CertType,
    Certificate,
    SignedMessage,
    check_cert_signature,
    verify_chain,
    verify_message,
)
from ..crypto import GroupElement, KeyPair, hybrid_decrypt
from ..crypto.hybrid import HybridCiphertext
from ..encoding import decode, encode
from ..errors import DecryptionError, InvariantViolation, ParseError
from ..rootmgmt import Ballot, TrustState
from .base import Component, ma_query
from .enrollment import device_handle
from .pca import request_hash

_ENROLLMENT_TYPES = {CertType.OBE_ENROLLMENT, CertType.RSE_ENROLLMENT}


class Ra(Component):
    def configure(
        self,
        trust: TrustState,
        pca_host: str = "pca",
        la_hosts: tuple[str, str] = ("la1", "la2"),
        la_ids: tuple[bytes, bytes] = (b"\x00\x00\x00\x01", b"\x00\x00\x00\x02"),
        ma_cert: Certificate | None = None,
        shuffle_max_count: int = 10_000,
        shuffle_max_days: int = 1,
        default_psid: int = 32,
    ) -> None:
        self.trust = trust
        self.pca_host = pca_host
        self.la_hosts = la_hosts
        self.la_ids = la_ids
        self.ma_cert = ma_cert
        self.shuffle_max_count = shuffle_max_count
        self.shuffle_max_days = shuffle_max_days
        self.default_psid = default_psid
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

    def _deny(self, env, reason: str) -> None:
        self.send(env.src, "provision.deny", {
            "reply_ref": env.payload["reply_ref"], "reason": reason,
        })

    def _open_request(self, env, allow_recertified: bool = False):
        """Decrypt and authenticate a proxied device request; returns
        (signed message, enrollment certificate, handle) or None.

        With allow_recertified, an enrollment certificate whose chain died
        with a revoked root still passes if its issuing ECA has been
        re-certified with the same key under the new hierarchy.
        """
        try:
            blob = HybridCiphertext.decode(env.payload["blob"])
            plain = hybrid_decrypt(self.enc_keypair.private, blob)
            msg = SignedMessage.decode(decode(plain)["req"])
            cert = (
                Certificate.decode(msg.cert_bytes)
                if msg.cert_bytes is not None else None
            )
        except (DecryptionError, ParseError, KeyError, TypeError):
            self._deny(env, "undecryptable or malformed request")
            return None
        if cert is None:
            self._deny(env, "missing enrollment certificate")
            return None
        if cert.ctype not in _ENROLLMENT_TYPES:
            self._deny(env, "not an enrollment certificate")
            return None
        if not verify_message(msg, cert):
            self._deny(env, "bad signature")
            return None
        if not verify_chain(cert, self.trust.store, at_period=self.clock.period).ok:
            if not (allow_recertified and self._recertified_ok(cert)):
                self._deny(env, "enrollment certificate does not verify")
                return None
        handle = device_handle(msg.cert_bytes)
        record = self._enrollment_record(handle)
        if record is not None and record["blacklisted"]:
            self._deny(env, "enrollment certificate blacklisted")
            return None
        return msg, cert, handle

    def _recertified_ok(self, cert: Certificate) -> bool:
        new_eca = self.recertified_ecas.get(cert.issuer_id)
        if new_eca is None:
            return False
        if not check_cert_signature(cert, new_eca):
            return False
        return verify_chain(new_eca, self.trust.store).ok

    # --- provisioning step 2: accept, validate, expand ---

    def on_provision_request(self, env) -> None:
        opened = self._open_request(env)
        if opened is None:
            return
        msg, cert, handle = opened
        try:
            request = decode(msg.payload)
            start, n_periods, j_max = (request[k] for k in ("start", "n_periods", "j_max"))
            if not all(type(v) is int for v in (start, n_periods, j_max)):
                raise TypeError("request window must be integers")
            caterpillar = CaterpillarRequest(
                signing_seed=GroupElement.decode(request["A"]),
                signing_key=request["k_sign"],
                encryption_seed=GroupElement.decode(request["H"]),
                encryption_key=request["k_enc"],
            )
        except (ParseError, ValueError, KeyError, TypeError):
            self._deny(env, "malformed caterpillar request")
            return
        end = start + n_periods - 1
        for span in self.store.where("span", handle=handle):
            if span["start"] <= end and start <= span["end"]:
                self._deny(env, "duplicate request for covered time span")
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
            "request": request,
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
            "reply_ref": env.payload["reply_ref"], "request_id": ref,
        })

    def on_chain_plvs(self, env) -> None:
        ref = env.payload["ref"]
        state = self._pending.get(ref)
        if state is None:
            return
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
        self.maybe_flush()

    def on_chain_error(self, env) -> None:
        # LA unavailable for this request: drop pending state, the device
        # retries later; nothing is emitted to the PCA
        self._pending.pop(env.payload["ref"], None)

    def _expand(self, state: dict) -> None:
        request = state["request"]
        handle = state["handle"]
        caterpillar = state["caterpillar"]
        plv1 = state["plvs"][self.la_hosts[0]]["plvs"]
        plv2 = state["plvs"][self.la_hosts[1]]["plvs"]
        mitm = handle in self.mitm_handles
        for (i1, j1, ct1), (i2, j2, ct2) in zip(plv1, plv2):
            if (i1, j1) != (i2, j2):
                raise InvariantViolation(
                    f"LA grids must align: ({i1},{j1}) vs ({i2},{j2})"
                )
            cocoon = cocoon_expand(caterpillar, TimeIndex(i1, j1))
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
                "i": i1,
                "j": j1,
                "psid": request.get("psid", self.default_psid),
            }
            rh = request_hash(single)
            single["rh"] = rh
            self.store.put("request_index", {"rh": rh, "handle": handle, "i": i1})
            if attack_key is not None:
                self._mitm_state[rh] = {
                    "attack_priv": attack_key.private.to_bytes(),
                    "true_key": cocoon.encryption.encode(),
                }
            self._buffer.append(single)
            if self._buffer_first_day is None:
                self._buffer_first_day = self.clock.day

    # --- step 3: shuffle and forward to the PCA ---

    def maybe_flush(self) -> bool:
        if not self._buffer:
            return False
        due = len(self._buffer) >= self.shuffle_max_count or (
            self._buffer_first_day is not None
            and self.clock.day - self._buffer_first_day >= self.shuffle_max_days
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

    def on_cert_response(self, env) -> None:
        rh = env.payload["rh"]
        index = self.store.first("request_index", rh=rh)
        if index is None:
            return
        record = self._enrollment_record(index["handle"])
        if record is None or record["blacklisted"]:
            return  # halted
        package = env.payload["package"]
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
        wrapper = decode(package.payload)
        plain = hybrid_decrypt(
            Scalar.from_bytes(attack["attack_priv"]),
            HybridCiphertext.decode(wrapper["ct"]),
        )
        resealed = hybrid_encrypt(
            GroupElement.decode(attack["true_key"]), plain, self.rng
        ).encode()
        forged = SignedMessage(
            payload=encode({"i": wrapper["i"], "j": wrapper["j"],
                            "ct": resealed}),
            cert_id=package.cert_id,
            signature=package.signature,
            cert_bytes=package.cert_bytes,
        )
        return forged.encode()

    def on_cert_reject(self, env) -> None:
        self.store.put("deferred", {
            "rh": env.payload["rh"], "reason": env.payload["reason"],
        })

    def on_batch_request(self, env) -> None:
        handle = env.payload["handle"]
        period = env.payload["period"]
        ref = env.payload["reply_ref"]
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
        msg, cert, handle = opened
        request = decode(msg.payload)
        state = {
            "reply_ref": env.payload["reply_ref"],
            "src": env.src,
            "expected": len(request["validities"]),
            "certs": [],
        }
        for valid_from, valid_to in request["validities"]:
            tbs = {
                "ctype": request["ctype"],
                "pubkey": request["pubkey"],
                "enc_pubkey": request.get("enc_pubkey"),
                "valid_from": valid_from,
                "valid_to": valid_to,
                "psid": request["psid"],
                "subject_info": request.get("subject_info"),
            }
            rh = request_hash(tbs)
            self._pending_app[rh] = state
            self.store.put("app_index", {
                "rh": rh, "handle": handle, "cert_id": None,
                "valid_to": valid_to,
            })
            self.send(self.pca_host, "cert.request.plain", {"rh": rh, "tbs": tbs})

    def on_cert_response_plain(self, env) -> None:
        rh = env.payload["rh"]
        state = self._pending_app.pop(rh, None)
        index = self.store.first("app_index", rh=rh)
        if index is not None:
            # plain certificates are readable by the RA; remember the id so
            # non-pseudonym revocation can skip a PCA round trip if needed
            index["cert_id"] = Certificate.decode(env.payload["cert"]).cert_id()
        if state is None:
            return
        state["certs"].append(env.payload["cert"])
        if len(state["certs"]) == state["expected"]:
            self.send(state["src"], "app.issued", {
                "reply_ref": state["reply_ref"], "certs": state["certs"],
            })

    # --- misbehavior report forwarding (shuffled, unread) ---

    def on_mb_report(self, env) -> None:
        self._report_buffer.append(env.payload["blob"])
        self.store.put("report_ciphertext", {
            "digest": hashlib.sha256(env.payload["blob"]).hexdigest(),
        })

    def flush_reports(self) -> int:
        if not self._report_buffer:
            return 0
        batch, self._report_buffer = self._report_buffer, []
        self.rng.shuffle(batch)
        self.send("ma", "mb.batch", {"reports": batch})
        return len(batch)

    # --- revocation step 4: blacklist without revealing the certificate ---

    @ma_query
    def on_ma_blacklist(self, request) -> dict:
        index = self.store.first("request_index", rh=request["rh"])
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

    @ma_query
    def on_ma_blacklist_nonpseudo(self, request) -> dict:
        index = self.store.first("app_index", rh=request["rh"])
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
        msg, cert, handle = opened
        if self.require_recertified_eca and cert.issuer_id not in self.recertified_ecas:
            self._deny(env, "issuing ECA not re-certified")
            return
        request = decode(msg.payload)
        self.send("eca", "reenroll.forward", {
            "old_cert": msg.cert_bytes,
            "new_pub": request["new_pub"],
            "reply_ref": env.payload["reply_ref"],
        })

    def on_reenroll_issued(self, env) -> None:
        self.send("lop", "reenroll.issued", {
            "reply_ref": env.payload["reply_ref"], "cert": env.payload["cert"],
        })

    # --- trust updates ---

    def on_ballot_publish(self, env) -> None:
        self.trust.process_ballot(Ballot.decode(env.payload["ballot"]))
