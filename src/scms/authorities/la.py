"""Linkage authority.

Keeps one seed chain per linkage chain identifier (LCI), hands out
pre-linkage values encrypted for the PCA (routed opaquely through the RA),
and answers two tightly controlled misbehavior-authority queries: whether
two encrypted pre-linkage values belong to the same chain (one bit), and
the chain's seed at the current period for CRL publication. Every served
query is rate-limited, signature-checked and written to the audit log.
A chain serves the periods from its first to the end of an enrollment
certificate issued then; a request or query outside them is refused, so
none walks a seed chain backward or for long.
"""

from __future__ import annotations

import hashlib

from ..certmodel import Certificate
from ..crypto import channel_encrypt, channel_key, hybrid_decrypt, hybrid_encrypt
from ..crypto.hybrid import HybridCiphertext
from ..encoding import decode, encode, fields
from ..errors import InvariantViolation
from ..linkage import (
    LinkageSeed,
    check_la_id,
    evolve_seed,
    pre_linkage_values,
    seed_at,
)
from .base import MaQueryServer, ma_query
from .enrollment import ENROLLMENT_VALIDITY


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

    @staticmethod
    def _serves(period0: int, start: int, n_periods: int) -> bool:
        """Whether a chain opened at ``period0`` serves the periods
        ``start`` .. ``start + n_periods - 1``: no period before its first,
        and none after an enrollment certificate issued then expires, so
        no request walks the chain backward or for long."""
        end = start + n_periods - 1
        return period0 <= start <= end <= period0 + ENROLLMENT_VALIDITY

    def _seed_for(self, record: dict, period: int) -> LinkageSeed:
        start = LinkageSeed(record["seed0"], record["period0"])
        return seed_at(self.la_id, start, period)

    def _encrypted_plvs(self, record: dict, start: int, n_periods: int,
                        j_max: int, lci_digest: str) -> list:
        out = []
        seed = self._seed_for(record, start)
        for i in range(start, start + n_periods):
            if i > start:
                seed = evolve_seed(self.la_id, seed)
            for j, plv in enumerate(pre_linkage_values(self.la_id, seed.value, j_max)):
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

    def _chain_error(self, dst: str, ref: str, reason: str) -> None:
        self.send(dst, "chain.error", {"ref": ref, "reason": reason})

    def on_chain_open(self, env) -> None:
        """Open a fresh chain for an anonymous device and return the LCI
        plus the requested grid of encrypted pre-linkage values."""
        ref, start, n_periods, j_max = fields(
            env.payload, ref=str, start=int, n_periods=int, j_max=int
        )
        if not self._serves(start, start, n_periods):
            self._chain_error(env.src, ref, "periods outside the chain")
            return
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
            self._chain_error(env.src, ref, "unknown chain")
            return
        if not self._serves(record["period0"], start, n_periods):
            self._chain_error(env.src, ref, "periods outside the chain")
            return
        plvs = self._encrypted_plvs(record, start, n_periods, j_max, lci_digest)
        self.send(env.src, "chain.plvs", {"ref": ref, "lci": lci, "plvs": plvs})

    # --- misbehavior-authority queries ---

    @ma_query(ct_a=bytes, ct_b=bytes)
    def on_ma_samedev(self, ct_a, ct_b) -> dict:
        rec_a = self.store.first(
            "plv_index", ct_digest=hashlib.sha256(ct_a).hexdigest()
        )
        rec_b = self.store.first(
            "plv_index", ct_digest=hashlib.sha256(ct_b).hexdigest()
        )
        same = (
            rec_a is not None
            and rec_b is not None
            and rec_a["lci_digest"] == rec_b["lci_digest"]
        )
        return {"same": same}

    @ma_query(lci=bytes, period=int)
    def on_ma_lci2seed(self, lci, period) -> dict:
        record = self._chain_record(hashlib.sha256(lci).hexdigest())
        # the chain runs forward only, and no further than it serves
        if record is None or not self._serves(record["period0"], period, 1):
            return {"found": False}
        # self-decryption sanity: the LCI must open to the stored seed
        (seed0,) = fields(decode(
            hybrid_decrypt(
                self.enc_keypair.private, HybridCiphertext.decode(lci)
            )
        ), seed=bytes)
        if seed0 != record["seed0"]:
            raise InvariantViolation("linkage chain identifier does not "
                                     "open to the stored seed")
        seed = self._seed_for(record, period)
        return {"found": True, "ls": seed.value, "la_id": self.la_id}
