"""Per-component record stores.

Every component keeps its records in the one namespace that its
constructor creates under its component id, and holds no other: that
structural isolation is the enforcement point for organizational
separation. Only the post-run audits read across namespaces, through
``StoreRegistry.audit_view``, and check each namespace against the content
classes that ``harness.SEPARATION`` says its holder may not hold.

Records are plain dicts restricted to the canonical value model of
``encoding``.
"""

from __future__ import annotations


class Namespace:
    """Records of one component, grouped by kind tag.

    Lookups by field are hash-indexed on first use; the indexed field's
    value must therefore stay stable after put() (other fields may be
    mutated freely).
    """

    def __init__(self):
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


class StoreRegistry:
    """All component namespaces of one simulated system."""

    def __init__(self):
        self._namespaces: dict[str, Namespace] = {}

    def create(self, owner: str) -> Namespace:
        if owner in self._namespaces:
            raise ValueError(f"namespace {owner!r} already exists")
        ns = Namespace()
        self._namespaces[owner] = ns
        return ns

    def audit_view(self, owner: str) -> Namespace:
        """Read access for post-run audits (not available to components)."""
        return self._namespaces[owner]
