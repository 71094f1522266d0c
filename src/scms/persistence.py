"""Per-component record stores.

Every authority keeps its records in a namespace owned by its component
id. Cross-namespace access is refused at the API level, which is the
enforcement point for organizational separation: audits can scan each
namespace and assert exactly which content classes it holds.

Records are plain dicts restricted to the canonical value model so the
whole registry snapshots to a deterministic binary file and restores
bit-exactly.
"""

from __future__ import annotations

import struct

from .encoding import Reader, decode, encode, within
from .errors import ParseError, ScmsError, StoreAccessError

_SNAPSHOT_MAGIC = b"SNAP"
_SNAPSHOT_VERSION = 1
# magic | version, then the canonical encoding of {owner: {kind: [record]}}
_SNAPSHOT_HEADER = struct.Struct(">4sB")


class Namespace:
    """Records of one component, grouped by kind tag.

    Lookups by field are hash-indexed on first use; the indexed field's
    value must therefore stay stable after put() (other fields may be
    mutated freely).
    """

    def __init__(self, owner: str):
        self.owner = owner
        self._records: dict[str, list[dict]] = {}
        self._indexes: dict[tuple[str, str], dict] = {}

    def put(self, kind: str, record: dict) -> dict:
        self._records.setdefault(kind, []).append(record)
        for (ikind, field), index in self._indexes.items():
            if ikind == kind:
                index.setdefault(record.get(field), []).append(record)
        return record

    def scan(self, kind: str) -> list[dict]:
        return self._records.get(kind, [])

    def _index(self, kind: str, field: str) -> dict:
        key = (kind, field)
        index = self._indexes.get(key)
        if index is None:
            index = {}
            for record in self._records.get(kind, []):
                index.setdefault(record.get(field), []).append(record)
            self._indexes[key] = index
        return index

    def _candidates(self, kind: str, match: dict) -> list[dict]:
        field, value = next(iter(match.items()))
        rest = {k: v for k, v in match.items() if k != field}
        candidates = self._index(kind, field).get(value, [])
        if not rest:
            return candidates
        return [
            r for r in candidates
            if all(r.get(k) == v for k, v in rest.items())
        ]

    def first(self, kind: str, **match) -> dict | None:
        if not match:
            records = self._records.get(kind, [])
            return records[0] if records else None
        candidates = self._candidates(kind, match)
        return candidates[0] if candidates else None

    def where(self, kind: str, **match) -> list[dict]:
        if not match:
            return list(self._records.get(kind, []))
        return list(self._candidates(kind, match))

    def count(self, kind: str) -> int:
        return len(self._records.get(kind, []))

    def kinds(self) -> list[str]:
        return sorted(self._records)

    def to_value(self) -> dict:
        return {kind: self._records[kind] for kind in sorted(self._records)}

    def load_value(self, value: dict) -> None:
        self._records = {kind: list(records) for kind, records in value.items()}
        self._indexes = {}


class StoreRegistry:
    """All component namespaces of one simulated system."""

    def __init__(self):
        self._namespaces: dict[str, Namespace] = {}

    def create(self, owner: str) -> Namespace:
        if owner in self._namespaces:
            raise ValueError(f"namespace {owner!r} already exists")
        ns = Namespace(owner)
        self._namespaces[owner] = ns
        return ns

    def open(self, owner: str, caller: str) -> Namespace:
        """Only the owning component may open its namespace."""
        if owner != caller:
            raise StoreAccessError(
                f"component {caller!r} may not access namespace {owner!r}"
            )
        ns = self._namespaces.get(owner)
        if ns is None:
            raise KeyError(f"no namespace {owner!r}")
        return ns

    def audit_view(self, owner: str) -> Namespace:
        """Read access for post-run audits (not available to components)."""
        return self._namespaces[owner]

    def owners(self) -> list[str]:
        return sorted(self._namespaces)

    # --- snapshots ---

    def snapshot_bytes(self) -> bytes:
        body = encode(
            {owner: ns.to_value() for owner, ns in sorted(self._namespaces.items())}
        )
        return _SNAPSHOT_HEADER.pack(_SNAPSHOT_MAGIC, _SNAPSHOT_VERSION) + body

    def snapshot(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.snapshot_bytes())

    def restore(self, path) -> None:
        with open(path, "rb") as fh:
            data = fh.read()
        r = Reader(data)
        magic, version = r.unpack(_SNAPSHOT_HEADER, "snapshot header")
        if magic != _SNAPSHOT_MAGIC:
            raise ParseError("bad snapshot magic", 0)
        if version != _SNAPSHOT_VERSION:
            raise ParseError(f"unsupported snapshot version {version}", 4)
        value = within(decode, r.rest(), _SNAPSHOT_HEADER.size)
        if not _is_snapshot_body(value):
            raise ParseError("snapshot body is not owner -> kind -> records",
                             _SNAPSHOT_HEADER.size)
        # load into the live namespaces, which components hold references to
        if self._namespaces and set(value) != set(self._namespaces):
            raise ScmsError(
                f"snapshot owners {sorted(value)} differ from the registry's "
                f"{self.owners()}"
            )
        for owner, records in value.items():
            ns = self._namespaces.get(owner) or self.create(owner)
            ns.load_value(records)


def _is_snapshot_body(value) -> bool:
    return isinstance(value, dict) and all(
        isinstance(kinds, dict) and all(
            isinstance(recs, list) and all(isinstance(r, dict) for r in recs)
            for recs in kinds.values()
        ) for kinds in value.values()
    )
