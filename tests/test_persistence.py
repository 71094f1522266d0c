"""Store isolation and snapshot round-trip tests."""

import pytest

from scms.encoding import encode
from scms.errors import ParseError, ScmsError, StoreAccessError
from scms.persistence import StoreRegistry


def test_owner_can_open_and_write():
    reg = StoreRegistry()
    ns = reg.create("ra")
    ns.put("enrollment", {"handle": b"\x01", "blacklisted": False})
    same = reg.open("ra", caller="ra")
    assert same.count("enrollment") == 1
    assert same.first("enrollment", handle=b"\x01") is not None
    assert same.first("enrollment", handle=b"\x02") is None


def test_cross_component_access_refused():
    reg = StoreRegistry()
    reg.create("ra")
    reg.create("pca")
    with pytest.raises(StoreAccessError):
        reg.open("pca", caller="ra")
    with pytest.raises(StoreAccessError):
        reg.open("ra", caller="pca")


def test_where_filters():
    reg = StoreRegistry()
    ns = reg.create("la1")
    for n in range(5):
        ns.put("chain", {"lci": bytes([n]), "active": n % 2 == 0})
    assert len(ns.where("chain", active=True)) == 3
    assert ns.kinds() == ["chain"]


def test_snapshot_restore_identical(tmp_path):
    reg = StoreRegistry()
    ra = reg.create("ra")
    pca = reg.create("pca")
    ra.put("enrollment", {"handle": b"\xaa", "hashes": [b"\x01", b"\x02"]})
    pca.put("issued", {"lv": b"\x09" * 9, "i": 3, "j": 14, "meta": None})
    path = tmp_path / "state.snap"
    reg.snapshot(path)

    restored = StoreRegistry()
    restored.restore(path)
    assert restored.owners() == ["pca", "ra"]
    assert restored.audit_view("ra").scan("enrollment") == ra.scan("enrollment")
    assert restored.audit_view("pca").scan("issued") == pca.scan("issued")
    # byte-exact: snapshotting the restored registry reproduces the file
    assert restored.snapshot_bytes() == reg.snapshot_bytes()


def test_restore_loads_into_live_namespaces(tmp_path):
    reg = StoreRegistry()
    ra = reg.create("ra")
    ra.put("enrollment", {"handle": b"\xaa"})
    path = tmp_path / "state.snap"
    reg.snapshot(path)
    ra.put("enrollment", {"handle": b"\xbb"})

    reg.restore(path)
    # a component's own namespace object shows the restored records
    assert ra.scan("enrollment") == [{"handle": b"\xaa"}]
    assert ra.first("enrollment", handle=b"\xbb") is None
    ra.put("enrollment", {"handle": b"\xcc"})
    after = StoreRegistry()
    after.create("ra").put("enrollment", {"handle": b"\xaa"})
    after.audit_view("ra").put("enrollment", {"handle": b"\xcc"})
    assert reg.snapshot_bytes() == after.snapshot_bytes()


def test_restore_refuses_a_different_owner_set(tmp_path):
    reg = StoreRegistry()
    reg.create("ra").put("enrollment", {"handle": b"\xaa"})
    path = tmp_path / "state.snap"
    reg.snapshot(path)

    live = StoreRegistry()
    pca = live.create("pca")
    pca.put("issued", {"lv": b"\x01"})
    with pytest.raises(ScmsError):
        live.restore(path)
    assert live.owners() == ["pca"]
    assert pca.scan("issued") == [{"lv": b"\x01"}]


def test_duplicate_namespace_rejected():
    reg = StoreRegistry()
    reg.create("ma")
    with pytest.raises(ValueError):
        reg.create("ma")


@pytest.mark.parametrize("data", [
    b"SNAP",
    b"SNAP\x01" + encode(["ra"]),
    b"SNAP\x01" + encode({"ra": 5}),
    b"SNAP\x01" + encode({"ra": {"k": [5]}}),
], ids=["header-cut", "body-list", "namespace-int", "record-int"])
@pytest.mark.parametrize("populated", [False, True])
def test_malformed_snapshot_rejected_before_any_change(tmp_path, data, populated):
    reg = StoreRegistry()
    if populated:
        reg.create("ra").put("enrollment", {"handle": b"\xaa"})
    before = reg.snapshot_bytes()
    path = tmp_path / "bad.snap"
    path.write_bytes(data)
    with pytest.raises(ParseError) as err:
        reg.restore(path)
    assert err.value.offset <= len(data)
    assert reg.owners() == (["ra"] if populated else [])
    assert reg.snapshot_bytes() == before
