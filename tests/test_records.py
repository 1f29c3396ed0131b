import json

import pytest

from dnas.content_store import ContentId
from dnas.encoding import canonical_json_bytes
from dnas.errors import NotFoundError
from dnas.records import RecordDatabase, WineRecord, WineStatus
from dnas.service import MemberRole, NodeType
from dnas.tags import NfcTag, counterfeit_copy

from conftest import built_consortium


def make_record(wine_id="W1"):
    return WineRecord(
        wine_id=wine_id,
        pedigree_data={"producer": "Chateau Test", "vintage": 2019, "varietal": "merlot"},
    )


@pytest.fixture
def db():
    return RecordDatabase()


def test_create_then_get(db):
    record = db.create(make_record())
    assert db.get("W1") is record


def test_duplicate_create_rejected(db):
    db.create(make_record())
    with pytest.raises(NotFoundError):
        db.create(make_record())


def test_get_unknown_record(db):
    with pytest.raises(NotFoundError):
        db.get("ghost")


def test_wine_ids_are_sorted(db):
    for wine_id in ("W2", "W10", "W1"):
        db.create(make_record(wine_id))
    assert db.wine_ids() == ["W1", "W10", "W2"]


def test_subset_deterministic():
    a, b = make_record(), make_record()
    assert a.subset() == b.subset()


def test_subset_sensitive_to_pedigree():
    a, b = make_record(), make_record()
    b.pedigree_data["vintage"] = 2020
    assert a.subset() != b.subset()
    assert ContentId.for_content(a.subset()) != ContentId.for_content(b.subset())


def test_subset_includes_custody_entries_and_version():
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


# -- the validation flow logs each failed scan on the record it read --------------------

THREE_MEMBERS = [
    ("admin", MemberRole.ADMINISTRATOR, NodeType.VALIDATOR),
    ("maker", MemberRole.WINEMAKER, NodeType.VALIDATOR),
    ("dist", MemberRole.PARTICIPANT, NodeType.VALIDATOR),
]


@pytest.fixture
def created():
    """A consortium with W1 created, and W1's genuine tag."""
    consortium = built_consortium(seed=3, initial_members=THREE_MEMBERS)
    tag = NfcTag(uid=consortium.randbytes(7))
    consortium.services["maker"].create_record_flow({"wine_id": "W1"}, tag, "device-maker")
    consortium.run_until_idle()
    return consortium, tag


def scan(consortium, tag):
    outcomes, _, _ = consortium.services["dist"].validate_record_flow(tag)
    return outcomes[-1].result.value


def test_log_unsuccessful_validation_flags_record(created):
    consortium, tag = created
    assert scan(consortium, counterfeit_copy(tag, randbytes=consortium.randbytes)) == "cloning"
    record = consortium.db.get("W1")
    assert record.wine_status is WineStatus.FLAGGED
    assert [(e["attack_class"], e["layer"], e["timestamp"])
            for e in record.unsuccessful_validation_data] == [
                ("cloning", "off_chain_db", consortium.now)]


def test_two_attacks_logged_in_order(created):
    consortium, tag = created
    scan(consortium, counterfeit_copy(tag, randbytes=consortium.randbytes))
    tag.read_counter += 5
    assert scan(consortium, tag) == "reapplication"
    classes = [e["attack_class"] for e in consortium.db.get("W1").unsuccessful_validation_data]
    assert classes == ["cloning", "reapplication"]


def test_log_unknown_record(created):
    consortium, tag = created
    fake = counterfeit_copy(tag, randbytes=consortium.randbytes)
    fake.memory = canonical_json_bytes({**json.loads(fake.memory), "wine_id": "ghost"})
    assert scan(consortium, fake) == "modification"
    assert consortium.notifications[-1]["wine_id"] == "ghost"
    # no record is made for the unknown wine, and W1's log stays empty
    assert consortium.db.wine_ids() == ["W1"]
    assert not consortium.db.get("W1").unsuccessful_validation_data
