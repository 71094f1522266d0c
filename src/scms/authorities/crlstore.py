"""Pass-through distribution components: CRL store and policy generator.

The CRL store keeps the latest CRL per (CRACA, series) and serves the
composite single-file download; devices pull it whenever they have
connectivity (the stand-in for collaborative distribution). The policy
generator signs and versions the global policy file (GPF, the settings
every device applies) and the global certificate chain file (GCCF), and
publishes them into the same public store.
"""

from __future__ import annotations

from ..certmodel import Crl, CrlSet, encode_composite, sign_message
from ..encoding import encode, fields
from ..errors import ScmsError
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
    """Policy generator: each file it publishes is signed and one version
    newer than the last file of its kind."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._versions: dict[str, int] = {}

    def _publish(self, name: str, body: dict) -> bytes:
        version = self._versions.get(name, 0) + 1
        self._versions[name] = version
        payload = encode({"name": name, "version": version, "body": body})
        data = sign_message(self.keypair.private, self.cert, payload).encode()
        self.send("crlstore", "policy.publish", {"name": name, "data": data})
        return data

    def publish_gpf(self, settings: dict) -> bytes:
        return self._publish("gpf", settings)

    def publish_gccf(self, chains: list[list[bytes]]) -> bytes:
        return self._publish("gccf", {"chains": chains})
