"""Linkage authority.

Keeps one seed chain per linkage chain identifier (LCI), hands out
pre-linkage values encrypted for the PCA (routed opaquely through the RA),
and answers two tightly controlled misbehavior-authority queries: whether
two encrypted pre-linkage values belong to the same chain (one bit), and
the chain's seed at the current period for CRL publication. Every served
query is rate-limited, signature-checked and written to the audit log.
"""

from __future__ import annotations

import hashlib

from ..certmodel import Certificate
from ..crypto import channel_encrypt, channel_key, hybrid_decrypt, hybrid_encrypt
from ..crypto.hybrid import HybridCiphertext
from ..encoding import decode, encode, fields
from ..errors import InvariantViolation
from ..linkage import LinkageSeed, check_la_id, pre_linkage_values, seed_at
from .base import MaQueryServer, ma_query


class LinkageAuthority(MaQueryServer):
    def __init__(self, component_id, bus, registry, rng, identity,
                 ma_cert: Certificate, ma_query_limit: int, la_id: bytes,
                 pca_enc_pub):
        super().__init__(component_id, bus, registry, rng, identity, ma_cert,
                         ma_query_limit)
        self.la_id = check_la_id(la_id)
        self._pca_channel = channel_key(
            self.enc_keypair.private, pca_enc_pub, b"la-to-pca|" + la_id
        )

    # --- chain management (RA-facing) ---

    def _chain_record(self, lci_digest: str) -> dict | None:
        return self.store.first("chain", lci_digest=lci_digest)

    def _seed_for(self, record: dict, period: int) -> LinkageSeed:
        start = LinkageSeed(record["seed0"], record["period0"])
        return seed_at(self.la_id, start, period)

    def _encrypted_plvs(self, record: dict, start: int, n_periods: int,
                        j_max: int, lci_digest: str) -> list:
        out = []
        for i in range(start, start + n_periods):
            seed = self._seed_for(record, i).value
            for j, plv in enumerate(pre_linkage_values(self.la_id, seed, j_max)):
                ct = channel_encrypt(
                    self._pca_channel,
                    encode({"plv": plv, "i": i, "j": j}),
                    self.rng,
                )
                self.store.put(
                    "plv_index",
                    {"ct_digest": hashlib.sha256(ct).hexdigest(),
                     "lci_digest": lci_digest},
                )
                out.append([i, j, ct])
        return out

    def on_chain_open(self, env) -> None:
        """Open a fresh chain for an anonymous device and return the LCI
        plus the requested grid of encrypted pre-linkage values."""
        ref, start, n_periods, j_max = fields(
            env.payload, ref=str, start=int, n_periods=int, j_max=int
        )
        seed0 = self.rng.randbytes(16)
        lci = hybrid_encrypt(
            self.enc_keypair.public,
            encode({"seed": seed0, "period": start}),
            self.rng,
        ).encode()
        lci_digest = hashlib.sha256(lci).hexdigest()
        record = self.store.put(
            "chain",
            {"lci_digest": lci_digest, "seed0": seed0, "period0": start,
             "la_id": self.la_id},
        )
        plvs = self._encrypted_plvs(record, start, n_periods, j_max, lci_digest)
        self.send(env.src, "chain.plvs", {"ref": ref, "lci": lci, "plvs": plvs})

    def on_plv_request(self, env) -> None:
        """Further pre-linkage values for an existing chain (top-off)."""
        ref, lci, start, n_periods, j_max = fields(
            env.payload, ref=str, lci=bytes, start=int, n_periods=int, j_max=int
        )
        lci_digest = hashlib.sha256(lci).hexdigest()
        record = self._chain_record(lci_digest)
        if record is None:
            self.send(env.src, "chain.error", {
                "ref": ref, "reason": "unknown chain",
            })
            return
        plvs = self._encrypted_plvs(record, start, n_periods, j_max, lci_digest)
        self.send(env.src, "chain.plvs", {"ref": ref, "lci": lci, "plvs": plvs})

    # --- misbehavior-authority queries ---

    @ma_query
    def on_ma_samedev(self, request) -> dict:
        rec_a = self.store.first(
            "plv_index", ct_digest=hashlib.sha256(request["ct_a"]).hexdigest()
        )
        rec_b = self.store.first(
            "plv_index", ct_digest=hashlib.sha256(request["ct_b"]).hexdigest()
        )
        same = (
            rec_a is not None
            and rec_b is not None
            and rec_a["lci_digest"] == rec_b["lci_digest"]
        )
        return {"same": same}

    @ma_query
    def on_ma_lci2seed(self, request) -> dict:
        lci = request["lci"]
        record = self._chain_record(hashlib.sha256(lci).hexdigest())
        if record is None:
            return {"found": False}
        # self-decryption sanity: the LCI must open to the stored seed
        opened = decode(
            hybrid_decrypt(
                self.enc_keypair.private, HybridCiphertext.decode(lci)
            )
        )
        if opened["seed"] != record["seed0"]:
            raise InvariantViolation("linkage chain identifier does not "
                                     "open to the stored seed")
        seed = self._seed_for(record, request["period"])
        return {"found": True, "ls": seed.value, "la_id": self.la_id}
