"""Record store tests: put, lookups by field, namespace creation."""

import pytest

from scms.persistence import StoreRegistry


def test_owner_writes_and_reads_its_namespace():
    ns = StoreRegistry().create("ra")
    ns.put("enrollment", {"handle": b"\x01", "blacklisted": False})
    assert ns.count("enrollment") == 1
    assert ns.first("enrollment", handle=b"\x01") is not None
    assert ns.first("enrollment", handle=b"\x02") is None


def test_where_filters():
    reg = StoreRegistry()
    ns = reg.create("la1")
    for n in range(5):
        ns.put("chain", {"lci": bytes([n]), "active": n % 2 == 0})
    assert len(ns.where("chain", active=True)) == 3
    assert ns.kinds() == ["chain"]


def test_duplicate_namespace_rejected():
    reg = StoreRegistry()
    reg.create("ma")
    with pytest.raises(ValueError):
        reg.create("ma")
