"""Pass-through distribution components: CRL store and policy generator.

The CRL store keeps the latest CRL per (CRACA, series) and serves the
composite single-file download; devices pull it whenever they have
connectivity (the stand-in for collaborative distribution). The policy
generator component publishes its signed global policy and certificate
chain files into the same public store.
"""

from __future__ import annotations

from ..certmodel import Crl, CrlSet, encode_composite
from ..encoding import fields
from ..errors import ScmsError
from ..rootmgmt import PolicyGenerator
from .base import Authority, Component


class CrlStore(Component):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.crls = CrlSet()
        self._policy: dict[str, bytes] = {}

    def on_crl_publish(self, env) -> None:
        if env.src != "ma":
            raise ScmsError(f"CRL from {env.src!r}, not the MA")
        (raw,) = fields(env.payload, crl=bytes)
        crl = Crl.decode(raw)
        if self.crls.add(crl):
            self.store.put("crl", {
                "series": crl.series, "craca": crl.craca_id,
                "sequence": crl.sequence, "size": len(raw),
            })

    def composite(self) -> bytes:
        return encode_composite(self.crls.all_crls())

    def on_crl_fetch(self, env) -> None:
        fields(env.payload)
        self.send(env.src, "crl.composite", {
            "data": self.composite(),
            "reply_ref": env.payload.get("reply_ref"),
        })

    def on_policy_publish(self, env) -> None:
        if env.src != "pg":
            raise ScmsError(f"policy file from {env.src!r}, not the PG")
        name, data = fields(env.payload, name=str, data=bytes)
        self._policy[name] = data

    def on_policy_fetch(self, env) -> None:
        fields(env.payload)
        self.send(env.src, "policy.files", {
            "files": dict(self._policy),
            "reply_ref": env.payload.get("reply_ref"),
        })


class Pg(Authority):
    """Policy generator as a bus component wrapping the signing logic."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.generator = PolicyGenerator(self.keypair, self.cert)

    def publish_gpf(self, params: dict):
        artifact = self.generator.publish_gpf(params)
        self.send("crlstore", "policy.publish", {
            "name": "gpf", "data": artifact.encode(),
        })
        return artifact

    def publish_gccf(self, chains: list[list[bytes]]):
        artifact = self.generator.publish_gccf(chains)
        self.send("crlstore", "policy.publish", {
            "name": "gccf", "data": artifact.encode(),
        })
        return artifact
