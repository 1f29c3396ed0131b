import pytest

from dnas.content_store import ContentId
from dnas.errors import NotFoundError, RoleError
from dnas.records import RecordDatabase, WineRecord, WineStatus


def make_record(wine_id="W1"):
    return WineRecord(
        wine_id=wine_id,
        pedigree_data={"producer": "Chateau Test", "vintage": 2019, "varietal": "merlot"},
    )


@pytest.fixture
def db():
    return RecordDatabase()


def test_create_then_get(db):
    record = db.create("winemaker", make_record())
    assert db.get("W1") is record


def test_duplicate_create_rejected(db):
    db.create("winemaker", make_record())
    with pytest.raises(NotFoundError):
        db.create("winemaker", make_record())


def test_participant_cannot_create_or_update(db):
    with pytest.raises(RoleError):
        db.create("participant", make_record())
    db.create("winemaker", make_record())
    with pytest.raises(RoleError):
        db.update("participant", "W1", {"device_id": "d"})


def test_update_preserves_transaction_history(db):
    db.create("winemaker", make_record())
    db.append_transaction_entry("W1", {"tx_hash": "0xaa", "block_number": 1})
    with pytest.raises(RoleError):
        db.update("winemaker", "W1", {"transaction_data": []})
    db.update("winemaker", "W1", {"device_id": "d-new"})
    assert len(db.get("W1").transaction_data) == 1


def test_subset_deterministic():
    a, b = make_record(), make_record()
    assert a.subset() == b.subset()


def test_subset_sensitive_to_pedigree():
    a, b = make_record(), make_record()
    b.pedigree_data["vintage"] = 2020
    assert a.subset() != b.subset()
    assert ContentId.for_content(a.subset()) != ContentId.for_content(b.subset())


def test_subset_includes_custody_entries_and_version():
    import json
    record = make_record()
    record.write_counter = 3
    for hop in range(3):
        record.supply_chain_data.append({"holder": f"node-{hop}", "at": hop})
    payload = json.loads(record.subset())
    assert payload["subset_version"] == 3
    assert len(payload["supply_chain_data"]) == 3
    assert set(payload) == {"wine_id", "pedigree_data", "wine_status",
                            "supply_chain_data", "subset_version"}
    assert "unsuccessful_validation_data" not in payload


def test_log_unsuccessful_validation_flags_record(db):
    db.create("winemaker", make_record())
    db.log_unsuccessful_validation("W1", "modification", "off_chain_db", "sig mismatch")
    record = db.get("W1")
    assert record.wine_status is WineStatus.FLAGGED
    assert len(record.unsuccessful_validation_data) == 1


def test_two_attacks_logged_in_order(db):
    db.create("winemaker", make_record())
    db.log_unsuccessful_validation("W1", "cloning", "off_chain_db", "uid")
    db.log_unsuccessful_validation("W1", "reapplication", "on_chain", "counter")
    classes = [e["attack_class"] for e in db.get("W1").unsuccessful_validation_data]
    assert classes == ["cloning", "reapplication"]


def test_log_unknown_record(db):
    with pytest.raises(NotFoundError):
        db.log_unsuccessful_validation("ghost", "cloning", "off_chain_db", "x")

