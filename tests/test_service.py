import copy
import json

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from dnas import content_store, keccak, secp256k1
from dnas.content_store import ContentId
from dnas.contracts import ContractEvent, WineDataContractV1
from dnas.encoding import canonical_json_bytes
from dnas.errors import (
    AuthError,
    DnasError,
    FlowError,
    MembershipError,
    NotFoundError,
    SealError,
)
from dnas.keys import KeyPair, hash_identifier, sign_tag_payload
from dnas.records import WineStatus
from dnas.service import (
    AttackClass,
    BlockchainService,
    Consortium,
    MemberRole,
    NodeType,
    ValidationLayer,
)
from dnas.tags import TAG_MEMORY_BYTES, NfcTag, counterfeit_copy
from dnas.vault import secret_path

from conftest import built_consortium

FIVE_MEMBERS = [
    ("admin", MemberRole.ADMINISTRATOR, NodeType.VALIDATOR),
    ("maker", MemberRole.WINEMAKER, NodeType.VALIDATOR),
    ("dist", MemberRole.PARTICIPANT, NodeType.VALIDATOR),
    ("retail", MemberRole.PARTICIPANT, NodeType.VALIDATOR),
    ("ship", MemberRole.PARTICIPANT, NodeType.LISTENER),
]


@pytest.fixture
def consortium():
    return built_consortium(seed=7, initial_members=FIVE_MEMBERS, bootstrap_count=5)


def create_wine(consortium, wine_id="W1"):
    tag = NfcTag(uid=consortium.randbytes(7))
    flow = consortium.services["maker"].create_record_flow(
        {"wine_id": wine_id, "pedigree_data": {"producer": "Chateau Test", "vintage": 2019}},
        tag, "device-maker")
    consortium.run_until_idle()
    assert flow.status == "ok"
    return tag, flow


def tamper_payload(tag, **changes):
    fields = json.loads(tag.memory)
    fields.update(changes)
    tag.memory = canonical_json_bytes(fields)


# -- bootstrap ------------------------------------------------------------------------

def test_a_consortium_needs_exactly_one_administrator():
    none = [m for m in FIVE_MEMBERS if m[1] is not MemberRole.ADMINISTRATOR]
    two = FIVE_MEMBERS + [("admin2", MemberRole.ADMINISTRATOR, NodeType.VALIDATOR)]
    for members in (none, two):
        with pytest.raises(DnasError, match="^the consortium needs exactly one administrator$"):
            Consortium(seed=7, initial_members=members)


def test_bootstrap_five_members_zero_votes(consortium):
    assert len(consortium.chain.call_view("get_peers", {})) == 5
    # four validator members sealed in genesis; the listener never seals
    assert len(consortium.chain.validators) == 4


def test_peer_validate(consortium):
    service = consortium.services["maker"]
    assert service.peer_validate(service.address) is True
    assert service.peer_validate("0x" + "99" * 20) is False


def test_sixth_member_requires_votes(consortium):
    result = consortium.onboard_member("late", MemberRole.PARTICIPANT, NodeType.VALIDATOR)
    assert result["mode"] == "vote"
    consortium.run_until_idle()
    late_address = consortium.services["late"].address
    assert consortium.services["maker"].peer_validate(late_address)
    assert late_address in consortium.chain.validators


def test_onboarding_vote_asks_each_registered_member_in_address_order(consortium):
    result = consortium.onboard_member("late", MemberRole.PARTICIPANT, NodeType.VALIDATOR)
    members = [p["member_id"] for p in consortium.chain.call_view("get_peers", {})]
    assert members != [m for m in consortium.services if m != "late"]  # not join order
    responses = result["responses"]
    assert list(responses) == members and result["contacted"] == 5
    assert all(responses[m]["voted"] for m in members)
    pooled = consortium.chain.pool
    assert [tx.method for tx in pooled] == ["propose_peer"] * 5
    assert [tx.sender for tx in pooled] == [consortium.services[m].address for m in members]
    assert [tx.tx_hash for tx in pooled] == [responses[m]["tx_hash"] for m in members]
    consortium.run_until_idle()
    assert consortium.services["maker"].peer_validate(consortium.services["late"].address)


def test_insufficient_votes_leave_candidate_pending(consortium):
    # all five members vote, and the level asks for six
    consortium.services["admin"].set_consensus_level(6)
    consortium.run_until_idle()
    consortium.onboard_member("late", MemberRole.PARTICIPANT, NodeType.VALIDATOR)
    consortium.run_until_idle()
    late_address = consortium.services["late"].address
    assert not consortium.services["maker"].peer_validate(late_address)
    assert late_address not in consortium.chain.validators


def test_duplicate_onboard_rejected(consortium):
    with pytest.raises(Exception):
        consortium.onboard_member("maker", MemberRole.WINEMAKER, NodeType.VALIDATOR)


def test_listener_member_not_proposed_as_validator(consortium):
    consortium.onboard_member("late", MemberRole.PARTICIPANT, NodeType.LISTENER)
    consortium.run_until_idle()
    late_address = consortium.services["late"].address
    assert consortium.services["maker"].peer_validate(late_address)
    assert late_address not in consortium.chain.validators


def test_removal_round_trip(consortium):
    retail_address = consortium.services["retail"].address
    consortium.propose_member_removal("admin", "retail")
    consortium.run_until_idle()
    assert not consortium.services["maker"].peer_validate(retail_address)
    assert retail_address not in consortium.chain.validators


def error_receipts(consortium, first_block):
    return [receipt.error for block in consortium.chain.blocks[first_block:]
            for receipt in (consortium.chain.receipts[tx.tx_hash] for tx in block.transactions)
            if receipt.status != "ok"]


def test_vote_rounds_leave_no_error_receipts(consortium):
    # admitting a sixth member, then removing one: the votes that arrive
    # after each change is applied are no-ops, not errors
    first_block = consortium.chain.height + 1
    consortium.onboard_member("late", MemberRole.WINEMAKER, NodeType.VALIDATOR)
    consortium.run_until_idle()
    consortium.propose_member_removal("admin", "ship")
    consortium.run_until_idle()
    assert error_receipts(consortium, first_block) == []
    peers = {p["member_id"] for p in consortium.chain.call_view("get_peers", {})}
    assert "late" in peers and "ship" not in peers


def test_concurrent_onboardings_both_admitted(consortium):
    # at six members the level is 3; the first admission raises it to 4
    # before the second round's votes execute
    consortium.onboard_member("late", MemberRole.PARTICIPANT, NodeType.VALIDATOR)
    consortium.run_until_idle()
    first_block = consortium.chain.height + 1
    consortium.onboard_member("x", MemberRole.PARTICIPANT, NodeType.LISTENER)
    consortium.onboard_member("y", MemberRole.PARTICIPANT, NodeType.LISTENER)
    consortium.run_until_idle()
    for member_id in ("x", "y"):
        address = consortium.services[member_id].address
        assert consortium.services["maker"].peer_validate(address)
    assert error_receipts(consortium, first_block) == []


def test_member_onboarded_by_vote_gets_store_node_and_vault_keystore(consortium):
    assert consortium.onboard_member("late", MemberRole.PARTICIPANT,
                                     NodeType.LISTENER)["mode"] == "vote"
    consortium.run_until_idle()
    service = consortium.services["late"]
    assert "store-late" in consortium.store.members()
    token = service.vault.issue_token(["dnas"])
    keystore = service.vault.get(token, secret_path("late", "nodekey"))
    assert keystore["address"] == service.address


def test_removal_at_consensus_level_equal_to_member_count(consortium):
    # every member's vote is needed, the removed member's own included
    consortium.services["admin"].set_consensus_level(5)
    consortium.run_until_idle()
    retail_address = consortium.services["retail"].address
    consortium.propose_member_removal("admin", "retail")
    consortium.run_until_idle()
    assert not consortium.services["maker"].peer_validate(retail_address)


def test_removed_member_can_rejoin(consortium):
    tag, _ = create_wine(consortium)
    consortium.propose_member_removal("admin", "retail")
    consortium.run_until_idle()
    assert "retail" not in consortium.services
    result = consortium.onboard_member("retail", MemberRole.PARTICIPANT, NodeType.VALIDATOR)
    assert result["mode"] == "vote"
    consortium.run_until_idle()
    retail = consortium.services["retail"]
    assert consortium.services["maker"].peer_validate(retail.address)
    assert retail.address in consortium.chain.validators
    outcomes, _, _ = retail.validate_record_flow(tag)
    consortium.run_until_idle()
    assert all(o.passed for o in outcomes)
    assert consortium.counters_in_sync("W1", tag)


def test_removed_member_store_node_is_revoked_after_hand_over(consortium):
    tag, _ = create_wine(consortium)
    dist = consortium.services["dist"]
    _, _, session = dist.validate_record_flow(tag)
    consortium.run_until_idle()
    flow = dist.accept_record_flow(tag, session)
    consortium.run_until_idle()
    assert flow.status == "ok"
    store, cid = consortium.store, ContentId(flow.content_id)
    assert store.holders(cid) == {"store-dist"}  # the accepted subset's only copy
    consortium.propose_member_removal("admin", "dist")
    consortium.run_until_idle()
    assert "store-dist" not in store.members()
    with pytest.raises(MembershipError):
        store.add("store-dist", b"after removal")
    with pytest.raises(MembershipError):
        store.get("store-dist", cid)
    assert store.holders(cid) == {"store-shared"}
    assert cid.text in store.pinned("store-shared")
    outcomes, _, _ = consortium.services["retail"].validate_record_flow(tag)
    assert [o.result for o in outcomes] == ["pass"] * 3


def test_removal_does_not_reopen_the_bootstrap_stage(consortium):
    consortium.propose_member_removal("admin", "retail")
    consortium.run_until_idle()
    consortium.services["admin"].set_consensus_level(5)  # four members are left to vote
    consortium.run_until_idle()
    result = consortium.onboard_member("stranger", MemberRole.WINEMAKER, NodeType.VALIDATOR)
    assert result["mode"] == "vote"
    consortium.run_until_idle()
    stranger = consortium.services["stranger"].address
    assert not consortium.services["maker"].peer_validate(stranger)
    assert stranger not in consortium.chain.validators


def test_removed_administrator_keeps_its_service(consortium):
    # the administrator's service hosts the event listener and the shared service
    admin_address = consortium.services["admin"].address
    consortium.propose_member_removal("maker", "admin")
    consortium.run_until_idle()
    assert not consortium.services["maker"].peer_validate(admin_address)
    assert admin_address not in consortium.chain.validators
    assert consortium.shared_service.address == admin_address
    create_wine(consortium)


# -- sealing ---------------------------------------------------------------------------------

def member_at(consortium, address):
    return next(m for m, s in consortium.services.items() if s.address == address)


def test_halted_in_turn_sealer_is_skipped_after_one_grace_period(consortium):
    parent = consortium.chain.head
    in_turn, next_up = (consortium.chain.sealer_at_offset(offset) for offset in (0, 1))
    consortium.halted.add(member_at(consortium, in_turn))
    consortium.services["admin"].set_consensus_level(3)
    consortium.run_until_idle()
    head = consortium.chain.head
    assert head.number == parent.number + 1
    assert head.timestamp == parent.timestamp + 2 * consortium.chain.genesis.period
    assert head.sealer == next_up


def test_no_live_validator_leaves_the_transaction_pooled(consortium):
    for address in consortium.chain.validators:
        consortium.halted.add(member_at(consortium, address))
    tx_hash = consortium.services["admin"].set_consensus_level(3)
    with pytest.raises(SealError, match="^no live validator can seal$"):
        consortium.run_until_idle()
    assert [tx.tx_hash for tx in consortium.chain.pool] == [tx_hash]


# -- event listener -----------------------------------------------------------------------

def next_header_voters(consortium):
    """Seal until idle and name the voters in the first new block's header."""
    height = consortium.chain.height
    consortium.run_until_idle()
    votes = consortium.chain.blocks[height + 1].votes
    return [member_at(consortium, vote["voter"]) for vote in votes]


def test_peer_added_fans_out_to_every_member(consortium):
    # retail's vote would come after the threshold (3 of 4 validators), and
    # ship is a listener: the chain refuses both, so neither is queued
    consortium.onboard_member("late", MemberRole.PARTICIPANT, NodeType.VALIDATOR)
    late = consortium.services["late"].address
    consortium.services["admin"]._validator_round(late, "late", add=True)
    assert next_header_voters(consortium) == ["admin", "maker", "dist"]
    assert late in consortium.chain.validators


def test_peer_added_five_validator_members_queue_a_threshold_of_votes():
    all_validators = [(m, r, NodeType.VALIDATOR) for m, r, _ in FIVE_MEMBERS]
    consortium = built_consortium(seed=8, initial_members=all_validators, bootstrap_count=5)
    consortium.onboard_member("late", MemberRole.PARTICIPANT, NodeType.VALIDATOR)
    late = consortium.services["late"].address
    consortium.services["admin"]._validator_round(late, "late", add=True)
    assert next_header_voters(consortium) == ["admin", "maker", "dist"]
    assert late in consortium.chain.validators


def test_duplicate_event_delivery_is_idempotent(consortium):
    consortium.onboard_member("late", MemberRole.PARTICIPANT, NodeType.VALIDATOR)
    admin = consortium.services["admin"]
    event = ContractEvent(kind="PeerAdded", fields={
        "candidate": consortium.services["late"].address,
        "member_id": "late", "role": "participant", "node_id": "enode-late",
    }, tx_hash="0xsame")
    admin.on_contract_event(event)
    validators_after_first = list(consortium.chain.validators)
    admin.on_contract_event(event)
    assert consortium.chain.validators == validators_after_first


def listener_state(consortium):
    chain = consortium.chain
    return (list(chain.validators), sorted(consortium.services), consortium.store.members(),
            list(chain._pending_votes))


def test_a_redelivered_peer_removed_changes_nothing(consortium):
    admin = consortium.services["admin"]
    retail = consortium.services["retail"].address
    states = []

    def deliver_twice(event):
        for _ in range(2):
            BlockchainService.on_contract_event(admin, event)
            if event.kind == "PeerRemoved":
                states.append(listener_state(consortium))

    admin.on_contract_event = deliver_twice  # the consortium looks it up at each block
    consortium.propose_member_removal("admin", "retail")
    consortium.run_until_idle()
    assert len(states) == 2 and states[1] == states[0]
    validators, services, store_members, votes = states[0]
    assert retail not in validators and "retail" not in services
    assert "store-retail" not in store_members
    assert [vote["candidate"] for vote in votes] == [retail] * len(votes) != []


def test_administrator_keeps_no_state_for_wine_events(consortium):
    admin = consortium.services["admin"]

    def shape():
        return {name: len(value) if isinstance(value, (dict, set, list)) else None
                for name, value in vars(admin).items()}

    kept = shape()
    create_wine(consortium, "W1")
    create_wine(consortium, "W2")
    consortium.onboard_member("late", MemberRole.PARTICIPANT, NodeType.VALIDATOR)
    consortium.run_until_idle()
    consortium.propose_member_removal("admin", "late")
    consortium.run_until_idle()
    assert "late" not in consortium.services
    assert shape() == kept


# -- creation flow ---------------------------------------------------------------------------

def test_create_flow_happy_path(consortium):
    tag, flow = create_wine(consortium)
    assert flow.content_id and flow.tx_hash and flow.block_number
    record = consortium.db.get("W1")
    assert record.wine_status is WineStatus.CREATED
    assert record.write_counter == 1
    assert tag.password is not None
    receipt = consortium.chain.query_tx(flow.tx_hash)
    assert receipt.events[0].kind == "WineRecordCreated"


@pytest.mark.parametrize("drive", ["tick", "run_until_idle"])
def test_a_create_completes_on_the_tick_after_its_block(consortium, flow_statuses, drive):
    flows, statuses = flow_statuses
    consortium.services["maker"].create_record_flow(
        {"wine_id": "W1"}, NfcTag(uid=consortium.randbytes(7)), "device-maker")
    if drive == "tick":
        for _ in range(3):
            consortium.tick(consortium.now + 1)
    else:
        consortium.run_until_idle()
    sealed = consortium.chain.blocks[flows[0].block_number].timestamp
    assert (statuses[sealed], statuses[sealed + 1]) == (["pending"], ["ok"])
    assert consortium.db.get("W1").transaction_data[0]["timestamp"] == sealed + 1


def test_create_flow_rejects_non_winemaker(consortium):
    tag = NfcTag(uid=consortium.randbytes(7))
    with pytest.raises(FlowError) as err:
        consortium.services["dist"].create_record_flow(
            {"wine_id": "W9", "pedigree_data": {}}, tag, "device-dist")
    assert err.value.stage == "peer-validate"


def test_create_flow_duplicate_off_chain(consortium):
    create_wine(consortium)
    tag = NfcTag(uid=consortium.randbytes(7))
    with pytest.raises(FlowError) as err:
        consortium.services["maker"].create_record_flow(
            {"wine_id": "W1", "pedigree_data": {}}, tag, "device-maker")
    assert err.value.stage == "off-chain-create"


def test_create_flow_on_chain_duplicate_keeps_audit_record(consortium):
    create_wine(consortium)
    # the off-chain record disappears but the chain entry is immutable, so
    # the retry fails at the on-chain stage
    consortium.db._records.pop("W1")
    tag = NfcTag(uid=consortium.randbytes(7))
    flow = consortium.services["maker"].create_record_flow(
        {"wine_id": "W1", "pedigree_data": {}}, tag, "device-maker")
    consortium.run_until_idle()
    assert flow.status == "error"
    record = consortium.db.get("W1")  # retained for audit
    assert record.wine_status is WineStatus.ERROR
    assert any(n["type"] == "creation_failed" for n in consortium.notifications)


def test_create_flow_on_locked_tag_fails_at_tag_write(consortium):
    tag, _ = create_wine(consortium)
    with pytest.raises(FlowError) as err:
        consortium.services["maker"].create_record_flow(
            {"wine_id": "W2", "pedigree_data": {}}, tag, "device-maker")
    assert err.value.stage == "tag-write"
    assert json.loads(tag.memory)["wine_id"] == "W1"
    assert not consortium.chain.pool


def test_create_flow_on_locked_tag_leaves_no_record(consortium):
    tag, _ = create_wine(consortium)
    with pytest.raises(FlowError, match="protection already enabled"):
        consortium.services["maker"].create_record_flow(
            {"wine_id": "W2", "pedigree_data": {}}, tag, "device-maker")
    with pytest.raises(NotFoundError):
        consortium.db.get("W2")
    create_wine(consortium, wine_id="W2")  # the retry, on a fresh tag, reaches ok
    assert consortium.db.get("W2").wine_status is WineStatus.CREATED


def test_a_create_with_an_empty_wine_id_leaves_no_record_and_an_unlocked_tag(consortium):
    # the tag digest is derived before the database write, so its refusal orphans nothing
    tag = NfcTag(uid=consortium.randbytes(7))
    with pytest.raises(FlowError, match="wine_id must be non-empty"):
        consortium.services["maker"].create_record_flow({"wine_id": ""}, tag, "device-maker")
    assert consortium.db.wine_ids() == []
    assert tag.password is None and tag.memory == b"" and tag.write_counter == 0
    assert not consortium.chain.pool
    assert all(not consortium.store.pinned(node) for node in consortium.store.members())


def test_a_create_whose_payload_overflows_the_tag_leaves_no_record_and_an_unlocked_tag(
        consortium):
    # a wine id is bounded at 64 UTF-8 bytes, so that every later write fits its tag
    blank = NfcTag(uid=consortium.randbytes(7))
    with pytest.raises(FlowError, match="wine_id is 65 UTF-8 bytes; at most 64"):
        consortium.services["maker"].create_record_flow({"wine_id": "X" * 65}, blank,
                                                        "device-maker")
    assert consortium.db.wine_ids() == []
    assert blank.password is None and blank.memory == b""
    assert not consortium.chain.pool
    # 64 characters that JSON escapes to six bytes each: the longest payload a wine id makes
    tag, _ = create_wine(consortium, wine_id="\x00" * 64)
    for _ in range(12):
        flow = consortium.services["maker"].ship_record_flow(tag)
        consortium.run_until_idle()
        assert flow.status == "ok"
    assert json.loads(tag.memory)["write_counter"] == 13
    assert len(tag.memory) + 300 < TAG_MEMORY_BYTES  # room for a counter of 300 more digits


@pytest.mark.parametrize("fields, device_id", [
    ({"wine_id": "W1", "pedigree_data": {"lots": {1, 2}}}, "device-maker"),
    ({"wine_id": "W1", "pedigree_data": {"v": "\udfff"}}, "device-maker"),
    ({"wine_id": "W1"}, "device-\ud800"),
    ({"wine_id": "W\ud800"}, "device-maker"),
    # mistyped library input: no AttributeError or TypeError escapes the encoders
    ({"wine_id": 5}, "device-maker"),
    ({"wine_id": "W1"}, 5),
    ({"wine_id": "W1", "pedigree_data": [1]}, "device-maker"),
    ({"pedigree_data": {}}, "device-maker"),
], ids=["set_pedigree", "surrogate_pedigree", "surrogate_device", "surrogate_wine_id",
        "integer_wine_id", "integer_device_id", "list_pedigree", "no_wine_id"])
def test_a_create_that_cannot_be_encoded_leaves_no_record_and_an_unlocked_tag(
        consortium, fields, device_id):
    # the fields are typed, and the binding, tag digest and subset derived, before
    # the database write
    tag = NfcTag(uid=consortium.randbytes(7))
    with pytest.raises(FlowError) as err:
        consortium.services["maker"].create_record_flow(fields, tag, device_id)
    assert err.value.stage == "off-chain-create"
    assert consortium.db.wine_ids() == []
    assert tag.password is None and tag.memory == b""
    assert not consortium.chain.pool
    flow = consortium.services["maker"].create_record_flow({"wine_id": "W1"}, tag, "device-maker")
    consortium.run_until_idle()
    assert flow.status == "ok"


# -- validation flow ---------------------------------------------------------------------------

def test_validation_happy_path_counters(consortium):
    tag, _ = create_wine(consortium)
    outcomes, view, session = consortium.services["dist"].validate_record_flow(tag)
    consortium.run_until_idle()
    assert [o.passed for o in outcomes] == [True, True, True]
    assert [o.layer for o in outcomes] == [ValidationLayer.OFF_CHAIN_DB,
                                           ValidationLayer.ON_CHAIN,
                                           ValidationLayer.CONTENT_STORE]
    assert view["status"] == "created"
    assert view["custodian"] == consortium.services["maker"].address
    assert view["tx_hash"] and view["block_number"]
    assert session is not None
    assert consortium.counters_in_sync("W1", tag)


def test_a_scan_of_a_tag_never_written_is_refused_at_the_tag_read(consortium):
    with pytest.raises(FlowError, match="tag has never been written$") as err:
        consortium.services["dist"].validate_record_flow(NfcTag(uid=consortium.randbytes(7)))
    assert err.value.stage == "tag-read"
    assert consortium.notifications == []


def test_repeated_validations_stay_in_sync(consortium):
    tag, _ = create_wine(consortium)
    for _ in range(3):
        outcomes, _, _ = consortium.services["dist"].validate_record_flow(tag)
        consortium.run_until_idle()
        assert all(o.passed for o in outcomes)
    assert tag.read_counter == 3
    assert consortium.counters_in_sync("W1", tag)


def test_wine_id_corruption_is_layer1_modification(consortium):
    tag, _ = create_wine(consortium)
    tamper_payload(tag, wine_id="W-forged")
    outcomes, view, session = consortium.services["dist"].validate_record_flow(tag)
    assert view is None and session is None
    assert len(outcomes) == 1
    assert outcomes[0].layer is ValidationLayer.OFF_CHAIN_DB
    assert outcomes[0].result is AttackClass.MODIFICATION


def test_signature_corruption_is_layer1_modification(consortium):
    tag, _ = create_wine(consortium)
    fields = json.loads(tag.memory)
    sig = bytearray(bytes.fromhex(fields["signature"]))
    sig[0] ^= 0x01
    tamper_payload(tag, signature=sig.hex())
    outcomes, _, _ = consortium.services["dist"].validate_record_flow(tag)
    assert outcomes[-1].result is AttackClass.MODIFICATION
    assert outcomes[-1].layer is ValidationLayer.OFF_CHAIN_DB


def test_cloned_tag_is_cloning(consortium):
    tag, _ = create_wine(consortium)
    fake = counterfeit_copy(tag, randbytes=consortium.randbytes)
    outcomes, _, _ = consortium.services["dist"].validate_record_flow(fake)
    assert outcomes[-1].result is AttackClass.CLONING
    assert outcomes[-1].layer is ValidationLayer.OFF_CHAIN_DB
    record = consortium.db.get("W1")
    assert record.wine_status is WineStatus.FLAGGED
    assert record.unsuccessful_validation_data[-1]["attack_class"] == "cloning"


def test_write_counter_corruption_is_reapplication(consortium):
    tag, _ = create_wine(consortium)
    tamper_payload(tag, write_counter=7)
    outcomes, _, _ = consortium.services["dist"].validate_record_flow(tag)
    assert outcomes[-1].result is AttackClass.REAPPLICATION
    assert outcomes[-1].layer is ValidationLayer.OFF_CHAIN_DB


def test_read_counter_drift_is_reapplication(consortium):
    tag, _ = create_wine(consortium)
    tag.read_counter += 5  # reapplied tag scanned elsewhere
    outcomes, _, _ = consortium.services["dist"].validate_record_flow(tag)
    assert outcomes[-1].result is AttackClass.REAPPLICATION
    assert outcomes[-1].layer is ValidationLayer.OFF_CHAIN_DB


def test_subset_drift_is_layer3_modification(consortium):
    tag, _ = create_wine(consortium)
    consortium.db.get("W1").pedigree_data["vintage"] = 1900
    outcomes, _, _ = consortium.services["dist"].validate_record_flow(tag)
    assert [o.passed for o in outcomes] == [True, True, False]
    assert outcomes[-1].layer is ValidationLayer.CONTENT_STORE
    assert outcomes[-1].result is AttackClass.MODIFICATION


def _bump_tag_reads(consortium, tag):
    tag.read_counter += 1  # read off the network by a skimmer


def _bump_tag_and_row_reads(consortium, tag):
    tag.read_counter += 1  # an insider who runs the database hides the skim there
    consortium.db.get("W1").read_counter += 1


def _tamper_row(consortium, tag):
    consortium.db.get("W1").pedigree_data["vintage"] = 1900


def _corrupt_stored_subsets(consortium, tag):
    # the store re-verifies every copy it serves, so none of these is returned
    cid = ContentId.for_content(consortium.db.get("W1").subset())
    for node_id in consortium.store.holders(cid):
        consortium.store._nodes[node_id].blocks[cid.text] = b"corrupted"


@pytest.mark.parametrize("tamper, layer, attack, details", [
    (_bump_tag_reads, ValidationLayer.OFF_CHAIN_DB, AttackClass.REAPPLICATION,
     "read counter differs from the database"),
    (_bump_tag_and_row_reads, ValidationLayer.ON_CHAIN, AttackClass.REAPPLICATION,
     "read counter differs from on-chain state"),
    (_tamper_row, ValidationLayer.CONTENT_STORE, AttackClass.MODIFICATION,
     "database subset hash differs from on-chain hash"),
    (_corrupt_stored_subsets, ValidationLayer.CONTENT_STORE, AttackClass.MODIFICATION,
     "stored subset unavailable: no member holds Qm"),
], ids=["off_chain_db", "on_chain", "content_store", "stored_copies"])
def test_a_failed_scan_counts_no_read_in_any_store(consortium, tamper, layer, attack, details):
    # every layer peeks at the tag; only a full pass counts its read, so a
    # failed scan leaves the tag, the database and the chain where they were
    tag, _ = create_wine(consortium)
    tamper(consortium, tag)
    record = consortium.db.get("W1")

    def read_counts():
        chain = consortium.chain.call_view("get_record", {"wine_id": "W1"})["read_count"]
        return tag.read_counter, record.read_counter, chain

    before = read_counts()
    for _ in range(2):  # a re-scan finds the same attack, not a read it left behind
        outcomes, view, session = consortium.services["dist"].validate_record_flow(tag)
        consortium.run_until_idle()
        assert (outcomes[-1].layer, outcomes[-1].result) == (layer, attack)
        assert outcomes[-1].details.startswith(details)
        assert view is None and session is None
        assert read_counts() == before


def test_a_full_pass_session_is_its_read_count_transaction(consortium):
    tag, _ = create_wine(consortium)
    _, view, session = consortium.services["dist"].validate_record_flow(tag)
    consortium.run_until_idle()
    receipt = consortium.chain.query_tx(session)
    tx = next(tx for tx in consortium.chain.blocks[receipt.block_number].transactions
              if tx.tx_hash == session)
    assert (tx.method, tx.params, tx.sender) == (
        "increment_read_count", {"wine_id": "W1"}, consortium.services["dist"].address)
    assert (receipt.status, receipt.result) == ("ok", 1)
    assert tag.read_counter == view["read_counter"] == 1
    assert consortium.counters_in_sync("W1", tag)


@pytest.mark.parametrize("wine_id, attack_class", [
    ("W1", "cloning"),        # a cloned tag: the database holds the record
    ("ghost", "modification"),  # a wine id the database lacks
])
def test_flagging_emits_notification(consortium, wine_id, attack_class):
    tag, _ = create_wine(consortium)
    fake = counterfeit_copy(tag, randbytes=consortium.randbytes)
    tamper_payload(fake, wine_id=wine_id)
    before = len(consortium.notifications)
    outcomes, _, _ = consortium.services["dist"].validate_record_flow(fake)
    assert outcomes[-1].result.value == attack_class
    assert [n["type"] for n in consortium.notifications[before:]] == ["record_flagged"]
    flagged = consortium.notifications[-1]
    assert (flagged["wine_id"], flagged["attack_class"]) == (wine_id, attack_class)


def test_full_pass_reads_each_source_once(consortium, monkeypatch):
    tag, _ = create_wine(consortium)
    views, gets = [], []
    call_view, get = consortium.chain.call_view, consortium.db.get
    monkeypatch.setattr(consortium.chain, "call_view",
                        lambda method, params: views.append(method) or call_view(method, params))
    monkeypatch.setattr(consortium.db, "get", lambda wine_id: gets.append(wine_id) or get(wine_id))
    outcomes, _, _ = consortium.services["dist"].validate_record_flow(tag)
    assert all(o.passed for o in outcomes)
    assert views.count("get_record") == 1
    assert gets == ["W1"]


def test_second_genuine_scan_hashes_and_verifies_nothing_in_its_view_checks(consortium,
                                                                            count_calls):
    tag, _ = create_wine(consortium)
    dist = consortium.services["dist"]
    assert all(o.passed for o in dist.validate_record_flow(tag)[0])
    consortium.run_until_idle()

    calls = count_calls(
        [(WineDataContractV1, "validate_signature"), (BlockchainService, "_check_record")],
        [("verify", secp256k1.verify), ("_keccak_f", keccak._keccak_f)])
    outcomes, _, _ = dist.validate_record_flow(tag)
    assert all(o.passed for o in outcomes)
    assert calls["_keccak_f", "validate_signature"] == 0
    assert calls["verify", "validate_signature"] == 0
    assert calls["_keccak_f", "_check_record"] == 0
    assert calls["verify", None] >= 1  # the read-count transaction's pool admission
    consortium.run_until_idle()
    assert consortium.counters_in_sync("W1", tag)


def test_write_reuses_the_binding_and_still_signs_and_verifies(consortium, count_calls):
    tags = {wine_id: create_wine(consortium, wine_id)[0] for wine_id in ("W1", "W2")}
    dist = consortium.services["dist"]
    calls = count_calls(
        [(BlockchainService, "create_record_flow"), (BlockchainService, "_write_iteration"),
         (BlockchainService, "_binding"), (BlockchainService, "submit_tx"),
         (WineDataContractV1, "validate_signature")],
        [("_keccak_f", keccak._keccak_f),
         ("sign_digest", secp256k1.sign_digest), ("verify", secp256k1.verify)])

    def accept(service, wine_id):
        _, _, session = service.validate_record_flow(tags[wine_id])
        consortium.run_until_idle()
        before = calls.copy()
        flow = service.accept_record_flow(tags[wine_id], session)
        consortium.run_until_idle()
        assert flow.status == "ok"
        return calls - before

    for write in (accept(dist, "W1"), accept(dist, "W2")):
        # the binding is two SHA-256 digests, and the tag digest is the
        # chain's since the maker's create
        assert write["_keccak_f", "_binding"] == write["_keccak_f", "_write_iteration"] == 0
        # a fresh tag signature and a fresh transaction signature, and pool
        # admission still verifies the transaction
        assert write["sign_digest", "_write_iteration"] == 1
        assert write["sign_digest", "submit_tx"] == 1
        assert write["verify", "submit_tx"] == 1
    # the write remembers no check: the next scan verifies dist's new signature
    before = calls.copy()
    outcomes, _, _ = consortium.services["retail"].validate_record_flow(tags["W2"])
    assert all(o.passed for o in outcomes)
    assert (calls - before)["verify", "validate_signature"] == 1

    # a third create by the maker: its one Keccak-f permutation is the
    # one-block tag digest, derived before the database write and reused by the write
    before = calls.copy()
    create_wine(consortium, "W3")
    third = calls - before
    assert third["_keccak_f", "_binding"] == third["_keccak_f", "_write_iteration"] == 0
    assert third["_keccak_f", "create_record_flow"] == 1
    assert third["sign_digest", "_write_iteration"] == 1
    consortium.run_until_idle()
    for wine_id, tag in tags.items():
        assert consortium.counters_in_sync(wine_id, tag)


def test_genuine_scan_decodes_no_content_id(consortium, count_calls):
    tag, _ = create_wine(consortium)
    calls = count_calls([(BlockchainService, "_check_record")],
                        [("base58_decode", content_store.base58_decode)])
    outcomes, _, _ = consortium.services["dist"].validate_record_flow(tag)
    assert all(o.passed for o in outcomes)
    # the id the scan built is the chain's latest once its hash view passes
    assert calls["base58_decode", "_check_record"] == 0


def test_a_create_runs_one_keccak_permutation_and_its_later_writes_and_scans_none(
        consortium, count_calls):
    # a member's first transaction recovers its key, and an address is the
    # Keccak of a key: W1 has the maker, dist and retail each send one first
    first, _ = create_wine(consortium, "W1")
    for member in ("dist", "retail"):
        service = consortium.services[member]
        session = service.validate_record_flow(first)[2]
        consortium.run_until_idle()
        service.accept_record_flow(first, session)
        consortium.run_until_idle()
    calls = count_calls([], [("_keccak_f", keccak._keccak_f)])
    tag, _ = create_wine(consortium, "W2")
    # the EIP-191 tag digest; the tag uid and the device id are SHA-256
    assert calls["_keccak_f", None] == 1
    for member in ("dist", "retail"):
        service = consortium.services[member]
        session = service.validate_record_flow(tag)[2]
        consortium.run_until_idle()
        flow = service.accept_record_flow(tag, session)
        consortium.run_until_idle()
        assert flow.status == "ok"
    # a uid the chain has never seen fails on-chain, hashed with no permutation
    clone = counterfeit_copy(tag, randbytes=consortium.randbytes)
    consortium.db.get("W2").tag_uid = clone.tag_id
    outcomes, _, _ = consortium.services["retail"].validate_record_flow(clone)
    assert (outcomes[-1].layer, outcomes[-1].result) == (ValidationLayer.ON_CHAIN,
                                                         AttackClass.CLONING)
    consortium.run_until_idle()
    assert calls["_keccak_f", None] == 1


def test_write_hashes_the_identifiers_the_record_holds_now(consortium):
    tag, _ = create_wine(consortium)
    dist = consortium.services["dist"]
    _, _, session = dist.validate_record_flow(tag)
    consortium.run_until_idle()
    flow = dist.accept_record_flow(tag, session)
    consortium.run_until_idle()
    assert flow.status == "ok"
    # dist has written W1 once; its device id no longer matches the chain's
    record = consortium.db.get("W1")
    record.device_id = "device-forged"
    before = (tag.write_counter, tag.memory, record.write_counter,
              len(record.supply_chain_data), record.wine_status)
    # the shipment hashes the identifiers the record holds now, sees that the
    # chain would refuse the append, and writes nothing
    with pytest.raises(FlowError, match="inconsistent device identifier on-chain") as err:
        dist.ship_record_flow(tag)
    assert err.value.stage == "shipping"
    assert (tag.write_counter, tag.memory, record.write_counter,
            len(record.supply_chain_data), record.wine_status) == before
    assert not consortium.chain.pool
    assert consortium.counters_in_sync("W1", tag)
    # a scan makes the same check
    outcomes, _, _ = consortium.services["retail"].validate_record_flow(tag)
    assert [(o.layer, o.result) for o in outcomes[1:]] == [
        (ValidationLayer.ON_CHAIN, AttackClass.MODIFICATION)]


def test_removed_member_can_neither_validate_nor_accept(consortium):
    tag, _ = create_wine(consortium)
    ship = consortium.services["ship"]
    _, _, session = ship.validate_record_flow(tag)
    consortium.run_until_idle()
    consortium.propose_member_removal("admin", "ship")
    consortium.run_until_idle()
    for flow in (lambda: ship.validate_record_flow(tag),
                 lambda: ship.accept_record_flow(tag, session)):
        with pytest.raises(FlowError) as err:
            flow()
        assert err.value.stage == "peer-validate"
    assert not consortium.chain.pool
    assert consortium.counters_in_sync("W1", tag)
    # the counters stayed in step, so the next genuine scan passes
    outcomes, _, _ = consortium.services["dist"].validate_record_flow(tag)
    consortium.run_until_idle()
    assert all(o.passed for o in outcomes)


# -- acceptance flow -----------------------------------------------------------------------------

def test_accept_transfers_custody(consortium):
    tag, _ = create_wine(consortium)
    dist = consortium.services["dist"]
    _, _, session = dist.validate_record_flow(tag)
    consortium.run_until_idle()
    flow = dist.accept_record_flow(tag, session)
    consortium.run_until_idle()
    assert flow.status == "ok"
    record = consortium.db.get("W1")
    assert record.wine_status is WineStatus.ACCEPTED
    assert record.write_counter == 2
    assert record.custodian_address == dist.address
    on_chain = consortium.chain.call_view("get_record", {"wine_id": "W1"})
    assert on_chain["write_count"] == 2
    assert on_chain["pub_addr"] == dist.address
    assert consortium.counters_in_sync("W1", tag)


def test_accept_without_validation_is_sequencing_error(consortium):
    tag, _ = create_wine(consortium)
    with pytest.raises(FlowError) as err:
        consortium.services["dist"].accept_record_flow(tag, "session-unknown")
    assert err.value.stage == "session"


def test_session_single_use(consortium):
    tag, _ = create_wine(consortium)
    dist = consortium.services["dist"]
    _, _, session = dist.validate_record_flow(tag)
    consortium.run_until_idle()
    dist.accept_record_flow(tag, session)
    consortium.run_until_idle()
    with pytest.raises(FlowError):
        dist.accept_record_flow(tag, session)


def test_an_accept_in_its_scans_tick_is_refused_as_pending_and_spends_the_session(consortium):
    tag, _ = create_wine(consortium)
    dist = consortium.services["dist"]
    _, _, session = dist.validate_record_flow(tag)
    with pytest.raises(FlowError, match="'W1' is not yet mined") as err:
        dist.accept_record_flow(tag, session)  # the scan's read is still pooled
    assert err.value.stage == "chain-pending"
    assert not dist._sessions and tag.write_counter == 1
    consortium.run_until_idle()
    with pytest.raises(FlowError, match="fresh full-pass validation"):
        dist.accept_record_flow(tag, session)
    _, _, session = dist.validate_record_flow(tag)
    consortium.run_until_idle()
    flow = dist.accept_record_flow(tag, session)
    consortium.run_until_idle()
    assert flow.status == "ok" and consortium.counters_in_sync("W1", tag)


def test_a_newer_full_pass_replaces_the_older_session(consortium):
    tag, _ = create_wine(consortium)
    shared = consortium.shared_service
    sessions = []
    for _ in range(4):
        sessions.append(shared.validate_record_flow(tag)[2])
        consortium.run_until_idle()
    assert len(shared._sessions) == 1
    for older in sessions[:-1]:
        with pytest.raises(FlowError, match="acceptance requires a fresh full-pass validation"):
            shared.accept_record_flow(tag, older)
    flow = shared.accept_record_flow(tag, sessions[-1])
    consortium.run_until_idle()
    assert flow.status == "ok"
    assert not shared._sessions
    assert consortium.counters_in_sync("W1", tag)


def test_session_is_spent_and_bound_to_the_validated_tag(consortium):
    tag, _ = create_wine(consortium)
    dist = consortium.services["dist"]
    _, _, session = dist.validate_record_flow(tag)
    consortium.run_until_idle()
    clone = counterfeit_copy(tag, randbytes=consortium.randbytes)
    with pytest.raises(FlowError, match="inconsistent tag identifier") as err:
        dist.accept_record_flow(clone, session)
    assert err.value.stage == "acceptance"
    assert clone.write_counter == tag.write_counter == 1
    assert not consortium.chain.pool
    assert not dist._sessions
    outcomes, _, session = dist.validate_record_flow(tag)
    consortium.run_until_idle()
    dist.accept_record_flow(tag, session)
    consortium.run_until_idle()
    assert all(o.passed for o in outcomes)
    assert not dist._sessions
    assert consortium.counters_in_sync("W1", tag)


def test_failed_append_receipt_marks_the_record_error(consortium):
    tag, _ = create_wine(consortium)
    dist = consortium.services["dist"]
    _, _, session = dist.validate_record_flow(tag)
    consortium.run_until_idle()
    # dist's removal is voted before its append is mined, so the contract
    # refuses the append: the caller is no longer a registered member
    consortium.propose_member_removal("admin", "dist")
    flow = dist.accept_record_flow(tag, session)
    consortium.run_until_idle()
    assert not dist.peer_validate(dist.address)
    assert flow.status == "error"
    assert flow.error == "append_wine_record requires a registered consortium member"
    assert consortium.db.get("W1").wine_status is WineStatus.ERROR
    assert not [n for n in consortium.notifications if n["type"] == "creation_failed"]


def test_a_scan_of_a_record_the_chain_refused_is_refused_not_flagged(consortium):
    # the tag and row are one write ahead of the chain: no attack to log
    tag, _ = create_wine(consortium)
    dist, retail = consortium.services["dist"], consortium.services["retail"]
    _, _, session = dist.validate_record_flow(tag)
    consortium.run_until_idle()
    consortium.propose_member_removal("admin", "dist")
    dist.accept_record_flow(tag, session)
    consortium.run_until_idle()
    record, notices = consortium.db.get("W1"), len(consortium.notifications)
    reads = (record.read_counter, tag.read_counter)
    with pytest.raises(FlowError, match="refused the last write") as err:
        retail.validate_record_flow(tag)
    assert err.value.stage == "chain-refused"
    assert len(consortium.notifications) == notices and not consortium.chain.pool
    assert record.wine_status is WineStatus.ERROR and not record.unsuccessful_validation_data
    assert (record.read_counter, tag.read_counter) == reads
    # a clone of it is still caught off the chain, where the checks start
    outcomes, _, _ = retail.validate_record_flow(
        counterfeit_copy(tag, randbytes=consortium.randbytes))
    assert (outcomes[-1].layer, outcomes[-1].result) == (ValidationLayer.OFF_CHAIN_DB,
                                                         AttackClass.CLONING)


def chain_named_content_ids(consortium):
    """Every content id some wine entry on the chain names, at any iteration."""
    return {cid for entry in consortium.chain.runtime.proxy.records.values()
            for cid in entry.data_hash.values()}


def test_refused_append_of_a_removed_member_leaves_no_pin_the_chain_does_not_name(consortium):
    tag, _ = create_wine(consortium)
    dist = consortium.services["dist"]
    _, _, session = dist.validate_record_flow(tag)
    consortium.run_until_idle()
    consortium.propose_member_removal("admin", "dist")
    flow = dist.accept_record_flow(tag, session)
    # the removal is mined ahead of the append in one block: dist's pins move
    # to the shared node and store-dist is revoked before the append's receipt
    consortium.run_until_idle()
    assert flow.status == "error"
    store = consortium.store
    assert dist.store_node_id not in store.members()
    named = chain_named_content_ids(consortium)
    assert flow.content_id not in named
    assert set(store.pinned(consortium.shared_service.store_node_id)) <= named
    assert {cid for node in store.members() for cid in store.pinned(node)} == named


def test_refused_create_unpins_its_subset_on_the_makers_node(consortium):
    create_wine(consortium)
    maker = consortium.services["maker"]
    # the database forgets W1, so only the chain refuses the second create
    consortium.db._records.pop("W1")
    flow = maker.create_record_flow({"wine_id": "W1"}, NfcTag(uid=consortium.randbytes(7)),
                                    "device-maker")
    consortium.run_until_idle()
    assert flow.status == "error" and "already exists" in flow.error
    assert [n["type"] for n in consortium.notifications] == ["creation_failed"]
    named = chain_named_content_ids(consortium)
    assert flow.content_id not in named
    assert set(consortium.store.pinned(maker.store_node_id)) == named


def test_accept_on_flagged_record_rejected(consortium):
    tag, _ = create_wine(consortium)
    dist = consortium.services["dist"]
    _, _, session = dist.validate_record_flow(tag)
    consortium.run_until_idle()
    clone = counterfeit_copy(tag, randbytes=consortium.randbytes)
    outcomes, _, _ = consortium.services["retail"].validate_record_flow(clone)
    assert outcomes[-1].result is AttackClass.CLONING
    with pytest.raises(FlowError) as err:
        dist.accept_record_flow(tag, session)
    assert "flagged" in str(err.value)


def test_consumer_purchase_and_post_sale_transfer(consortium):
    tag, _ = create_wine(consortium)
    shared = consortium.shared_service
    alice = consortium.add_consumer("alice")
    _, _, session = shared.validate_record_flow(tag)
    consortium.run_until_idle()
    flow = shared.accept_record_flow(tag, session, custodian_key=alice, purchase=True)
    consortium.run_until_idle()
    assert flow.status == "ok"
    assert consortium.db.get("W1").wine_status is WineStatus.SOLD
    # consumer-to-consumer transfer stays validatable after the sale
    outcomes, view, _ = shared.validate_record_flow(tag)
    consortium.run_until_idle()
    assert all(o.passed for o in outcomes)
    assert view["status"] == "sold"
    assert consortium.counters_in_sync("W1", tag)


def test_full_two_hop_chain_counters(consortium):
    tag, _ = create_wine(consortium)
    for member in ("dist", "retail"):
        service = consortium.services[member]
        _, _, session = service.validate_record_flow(tag)
        consortium.run_until_idle()
        service.accept_record_flow(tag, session)
        consortium.run_until_idle()
    shared = consortium.shared_service
    buyer = consortium.add_consumer("bob")
    _, _, session = shared.validate_record_flow(tag)
    consortium.run_until_idle()
    shared.accept_record_flow(tag, session, custodian_key=buyer, purchase=True)
    consortium.run_until_idle()
    record = consortium.db.get("W1")
    assert record.write_counter == 4
    assert record.wine_status is WineStatus.SOLD
    assert consortium.counters_in_sync("W1", tag)
    on_chain = consortium.chain.call_view("get_record", {"wine_id": "W1"})
    assert sorted(on_chain["data_hash_history"]) == [1, 2, 3, 4]


# -- shipping flow ----------------------------------------------------------------------------------

def test_a_shipped_wine_validates_and_is_accepted(consortium):
    tag, _ = create_wine(consortium)
    flow = consortium.services["maker"].ship_record_flow(tag)
    consortium.run_until_idle()
    assert flow.status == "ok"
    record = consortium.db.get("W1")
    assert (record.wine_status, record.write_counter) == (WineStatus.IN_TRANSIT, 2)
    # the shipment is a write iteration: the next genuine scan passes every layer
    dist = consortium.services["dist"]
    outcomes, view, session = dist.validate_record_flow(tag)
    assert all(o.passed for o in outcomes)
    assert view["status"] == "in_transit"
    consortium.run_until_idle()
    dist.accept_record_flow(tag, session)
    consortium.run_until_idle()
    # and so does every later hop: a retailer's acceptance, then a consumer's purchase
    retail, shared = consortium.services["retail"], consortium.shared_service
    session = retail.validate_record_flow(tag)[2]
    consortium.run_until_idle()
    retail.accept_record_flow(tag, session)
    consortium.run_until_idle()
    outcomes, _, session = shared.validate_record_flow(tag)
    assert all(o.passed for o in outcomes)
    consortium.run_until_idle()
    shared.accept_record_flow(tag, session, custodian_key=consortium.add_consumer("alice"),
                              purchase=True)
    consortium.run_until_idle()
    assert record.wine_status is WineStatus.SOLD
    assert [e["event"] for e in record.supply_chain_data] == [
        "created", "shipped", "accepted", "accepted", "purchased"]
    assert [e["event"] for e in record.transaction_data] == [
        "on-chain-created"] + ["on-chain-appended"] * 4
    assert consortium.counters_in_sync("W1", tag) and tag.read_counter == 3
    assert consortium.chain.call_view("get_record", {"wine_id": "W1"})["write_count"] == 5
    assert not consortium.notifications


def test_ship_refuses_a_caller_that_is_not_the_custodian_and_a_cloned_tag(consortium):
    tag, _ = create_wine(consortium)
    with pytest.raises(FlowError, match="not the record's custodian") as err:
        consortium.services["dist"].ship_record_flow(tag)
    assert err.value.stage == "shipping"
    clone = counterfeit_copy(tag, randbytes=consortium.randbytes)
    with pytest.raises(FlowError, match="inconsistent tag identifier"):
        consortium.services["maker"].ship_record_flow(clone)
    assert consortium.db.get("W1").write_counter == tag.write_counter == 1
    assert not consortium.chain.pool


def test_ship_before_the_create_is_mined_is_refused(consortium):
    tag = NfcTag(uid=consortium.randbytes(7))
    maker = consortium.services["maker"]
    maker.create_record_flow({"wine_id": "W1"}, tag, "device-maker")
    with pytest.raises(FlowError, match="'W1' is not yet mined") as err:
        maker.ship_record_flow(tag)
    assert err.value.stage == "chain-pending"
    assert tag.write_counter == 1
    consortium.run_until_idle()
    assert consortium.counters_in_sync("W1", tag)


def test_ship_refuses_a_flagged_record(consortium):
    tag, _ = create_wine(consortium)
    consortium.services["dist"].validate_record_flow(
        counterfeit_copy(tag, randbytes=consortium.randbytes))
    with pytest.raises(FlowError, match="flagged") as err:
        consortium.services["maker"].ship_record_flow(tag)
    assert err.value.stage == "shipping"
    assert consortium.db.get("W1").wine_status is WineStatus.FLAGGED
    assert tag.write_counter == 1


def test_ship_refuses_a_tampered_record_and_leaves_the_evidence(consortium):
    tag, _ = create_wine(consortium)
    record = consortium.db.get("W1")
    record.pedigree_data["vintage"] = 1899
    with pytest.raises(FlowError, match="subset hash differs") as err:
        consortium.services["maker"].ship_record_flow(tag)
    assert err.value.stage == "shipping"
    assert (record.write_counter, tag.write_counter, tag.read_counter) == (1, 1, 0)
    assert not consortium.chain.pool
    outcomes, _, _ = consortium.services["dist"].validate_record_flow(tag)
    assert (outcomes[-1].layer, outcomes[-1].result) == (ValidationLayer.CONTENT_STORE,
                                                         AttackClass.MODIFICATION)


@pytest.mark.parametrize("changes, attack", [
    ({"write_counter": 9}, AttackClass.REAPPLICATION),
    ({"signature": "00" * 65}, AttackClass.MODIFICATION),
    ({"read_counter": 4}, AttackClass.REAPPLICATION),
])
def test_ship_refuses_a_tampered_tag_and_leaves_the_evidence(consortium, changes, attack):
    tag, _ = create_wine(consortium)
    if "read_counter" in changes:
        tag.read_counter = changes["read_counter"]
    else:
        tamper_payload(tag, **changes)
    memory = tag.memory
    with pytest.raises(FlowError, match="differs from the database") as err:
        consortium.services["maker"].ship_record_flow(tag)
    assert err.value.stage == "shipping"
    # the check reads the tag without counting a read, and writes nothing
    assert tag.memory == memory and tag.read_counter == changes.get("read_counter", 0)
    assert consortium.db.get("W1").write_counter == 1
    assert not consortium.chain.pool
    outcomes, _, _ = consortium.services["dist"].validate_record_flow(tag)
    assert (outcomes[-1].layer, outcomes[-1].result) == (ValidationLayer.OFF_CHAIN_DB, attack)


def test_a_write_counter_bumped_in_tag_and_row_is_caught_on_chain(consortium):
    # the tag and the database agree, so only the chain's write count tells
    tag, _ = create_wine(consortium)
    record = consortium.db.get("W1")
    tamper_payload(tag, write_counter=2)
    record.write_counter = 2
    message = "write counter differs from on-chain state"
    with pytest.raises(FlowError, match=f"^shipping: {message}$"):
        consortium.services["maker"].ship_record_flow(tag)
    assert not consortium.chain.pool
    outcomes, _, _ = consortium.services["dist"].validate_record_flow(tag)
    assert (outcomes[-1].layer, outcomes[-1].result, outcomes[-1].details) == (
        ValidationLayer.ON_CHAIN, AttackClass.REAPPLICATION, message)
    assert record.unsuccessful_validation_data[-1]["layer"] == "on_chain"
    assert record.unsuccessful_validation_data[-1]["attack_class"] == "reapplication"


# -- the pre-write check of every append ---------------------------------------------------------

def _tamper(consortium, tag, what, value):
    if what == "pedigree":
        consortium.db.get("W1").pedigree_data["vintage"] = value
    else:
        tamper_payload(tag, **{what: value})


def _written_state(consortium, tag):
    record, store = consortium.db.get("W1"), consortium.store
    return (tag.memory, tag.write_counter, tag.read_counter, record.write_counter,
            list(record.supply_chain_data), {n: store.pinned(n) for n in store.members()})


@pytest.mark.parametrize("purchase", [False, True], ids=["accept", "purchase"])
@pytest.mark.parametrize("what, value, layer, attack", [
    ("pedigree", 1899, ValidationLayer.CONTENT_STORE, AttackClass.MODIFICATION),
    ("write_counter", 7, ValidationLayer.OFF_CHAIN_DB, AttackClass.REAPPLICATION),
    ("signature", "00" * 65, ValidationLayer.OFF_CHAIN_DB, AttackClass.MODIFICATION),
], ids=["pedigree", "write_counter", "signature"])
def test_an_append_after_a_tamper_writes_nothing(consortium, purchase, what, value, layer,
                                                 attack):
    tag, _ = create_wine(consortium)
    service = consortium.shared_service if purchase else consortium.services["dist"]
    custodian = consortium.add_consumer("alice") if purchase else None
    outcomes, _, session = service.validate_record_flow(tag)
    consortium.run_until_idle()
    assert all(o.passed for o in outcomes)
    _tamper(consortium, tag, what, value)
    before = _written_state(consortium, tag)
    with pytest.raises(FlowError) as err:
        service.accept_record_flow(tag, session, custodian_key=custodian, purchase=purchase)
    assert err.value.stage == "acceptance"
    assert _written_state(consortium, tag) == before
    assert not consortium.chain.pool
    assert consortium.chain.call_view("get_record", {"wine_id": "W1"})["write_count"] == 1
    # the refused append re-anchored nothing: the next scan still catches the attack
    outcomes, _, _ = consortium.services["retail"].validate_record_flow(tag)
    assert (outcomes[-1].layer, outcomes[-1].result) == (layer, attack)


@pytest.mark.parametrize("signature", ["zz", 5, "00"])
def test_a_tag_signature_that_does_not_parse_is_refused_and_caught(consortium, signature):
    tag, _ = create_wine(consortium)
    dist = consortium.services["dist"]
    _, _, session = dist.validate_record_flow(tag)
    consortium.run_until_idle()
    tamper_payload(tag, signature=signature)
    before = _written_state(consortium, tag)
    for append, stage in ((lambda: dist.accept_record_flow(tag, session), "acceptance"),
                          (lambda: consortium.services["maker"].ship_record_flow(tag),
                           "shipping")):
        with pytest.raises(FlowError, match="tag payload does not parse") as err:
            append()
        assert err.value.stage == stage
    assert _written_state(consortium, tag) == before
    assert not consortium.chain.pool
    outcomes, _, _ = consortium.services["retail"].validate_record_flow(tag)
    assert (outcomes[-1].layer, outcomes[-1].result) == (ValidationLayer.OFF_CHAIN_DB,
                                                         AttackClass.MODIFICATION)
    assert "tag payload does not parse" in outcomes[-1].details


def _drop(key):
    def tamper(tag):
        fields = json.loads(tag.memory)
        del fields[key]
        tag.memory = canonical_json_bytes(fields)
    return tamper


def _set_memory(memory):
    def tamper(tag):
        tag.memory = memory
    return tamper


@pytest.mark.parametrize("tamper, named", [
    (_set_memory(b"\xff\x00garbage"), None),
    (_drop("wine_id"), None),
    (_set_memory(b"[1,2]"), None),
    (_drop("write_counter"), "W1"),
    (lambda tag: tamper_payload(tag, wine_id=["W1"]), None),
], ids=["not_json", "no_wine_id", "a_list", "no_write_counter", "a_list_wine_id"])
def test_a_tag_payload_that_does_not_parse_is_refused_and_caught(consortium, tamper, named):
    """Every payload but an object with exactly a non-empty string wine id, a
    130-character hex signature and a non-negative counter: accept and ship
    refuse it and write nothing, and a scan logs a modification at the
    off-chain layer, naming the payload's wine id when it is a string."""
    tag, _ = create_wine(consortium)
    dist = consortium.services["dist"]
    _, _, session = dist.validate_record_flow(tag)
    consortium.run_until_idle()
    tamper(tag)
    before = _written_state(consortium, tag)
    for append in (lambda: dist.accept_record_flow(tag, session),
                   lambda: consortium.services["maker"].ship_record_flow(tag)):
        with pytest.raises(FlowError, match="tag payload does not parse"):
            append()
    assert _written_state(consortium, tag) == before
    assert not consortium.chain.pool
    outcomes, view, _ = consortium.services["retail"].validate_record_flow(tag)
    assert view is None
    assert (outcomes[-1].layer, outcomes[-1].result) == (ValidationLayer.OFF_CHAIN_DB,
                                                         AttackClass.MODIFICATION)
    assert outcomes[-1].details.startswith("tag payload does not parse")
    flagged = consortium.notifications[-1]
    assert (flagged["type"], flagged["wine_id"]) == ("record_flagged", named)
    assert (consortium.db.get("W1").wine_status is WineStatus.FLAGGED) == (named == "W1")


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=12) | st.sampled_from(["W1", "", "00" * 65, "AB" * 65]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=6)
_PAYLOAD_KEYS = ["wine_id", "signature", "write_counter"]
_TAG_MEMORY = st.one_of(
    st.binary(max_size=TAG_MEMORY_BYTES),
    st.tuples(st.sets(st.sampled_from(_PAYLOAD_KEYS)),
              st.dictionaries(st.sampled_from(_PAYLOAD_KEYS), _JSON_VALUES),
              st.dictionaries(st.text(max_size=8), _JSON_VALUES, max_size=2)))
_SCANNED = []  # one (consortium, tag, session) after a full scan, copied per example


def _scanned_wine():
    if not _SCANNED:
        consortium = built_consortium(seed=7, initial_members=FIVE_MEMBERS, bootstrap_count=5)
        tag, _ = create_wine(consortium)
        outcomes, _, session = consortium.services["dist"].validate_record_flow(tag)
        consortium.run_until_idle()
        assert all(o.passed for o in outcomes)
        _SCANNED.append((consortium, tag, session))
    return copy.deepcopy(_SCANNED[0])


@seed(31)
@settings(max_examples=150, deadline=None, database=None)
@given(memory=_TAG_MEMORY)
def test_fuzzed_tag_memory_is_refused_and_caught(memory):
    """Whatever a counterfeiter writes into a scanned wine's tag: an accept
    and a ship raise ``FlowError`` and write nothing, and a scan returns
    failing outcomes or raises ``FlowError``."""
    consortium, tag, session = _scanned_wine()
    if isinstance(memory, tuple):  # the genuine payload with keys dropped, retyped and added
        dropped, retyped, added = memory
        fields = {**json.loads(tag.memory), **retyped, **added}
        memory = canonical_json_bytes({k: v for k, v in fields.items() if k not in dropped})
    assume(memory != tag.memory)
    tag.memory = memory
    before = _written_state(consortium, tag)
    for append in (lambda: consortium.services["dist"].accept_record_flow(tag, session),
                   lambda: consortium.services["maker"].ship_record_flow(tag)):
        with pytest.raises(FlowError):
            append()
    assert _written_state(consortium, tag) == before
    assert not consortium.chain.pool
    try:
        outcomes, view, _ = consortium.services["retail"].validate_record_flow(tag)
    except FlowError:
        return
    assert view is None and not outcomes[-1].passed

_CREATED = []  # one (consortium, tag) with W1 mined, copied per example
_SCAN_OPS = st.lists(st.tuples(
    st.sampled_from(["genuine", "clone", "bumped", "accept", "tick"]),
    st.sampled_from([member for member, _, _ in FIVE_MEMBERS]), st.integers(1, 3)), max_size=8)


@seed(32)
@settings(max_examples=100, deadline=None, database=None)
@given(ops=_SCAN_OPS)
def test_nothing_but_a_write_moves_the_published_subset(ops):
    """Scans that pass, fail or meet a pooled read, refused accepts and ticks
    leave W1's subset hashing to the chain's latest content id: a flag is a
    local annotation."""
    if not _CREATED:
        consortium = built_consortium(seed=7, initial_members=FIVE_MEMBERS, bootstrap_count=5)
        _CREATED.append((consortium, create_wine(consortium)[0]))
    consortium, tag = copy.deepcopy(_CREATED[0])
    for kind, member, k in ops:
        service = consortium.services[member]
        if kind == "tick":
            consortium.tick(consortium.now + 1)
        elif kind == "accept":
            with pytest.raises(FlowError, match="session"):
                service.accept_record_flow(tag, "no-session")
        else:
            if kind == "bumped":
                tag.read_counter += k
            scanned = (counterfeit_copy(tag, randbytes=consortium.randbytes)
                       if kind == "clone" else tag)
            try:
                service.validate_record_flow(scanned)
            except FlowError as exc:  # an earlier scan's read is still pooled
                assert exc.stage == "chain-pending"
    consortium.run_until_idle()
    record = consortium.db.get("W1")
    on_chain = consortium.chain.call_view("get_record", {"wine_id": "W1"})
    assert ContentId.for_content(record.subset()).text == on_chain["data_hash_latest"]


def resign(consortium, tag, key):
    """An insider who knows W1's tag password re-signs its tag under ``key``
    and copies the signature into the database row."""
    record = consortium.db.get("W1")
    signature = sign_tag_payload(consortium.chain.runtime.signers.tag_digest(
        "W1", hash_identifier(record.tag_uid), hash_identifier(record.device_id)), key)
    tag.write("W1", signature, write_counter=record.write_counter,
              password=bytes.fromhex(record.tag_password))
    record.last_signature = signature.hex


def bump_reads(consortium, tag):
    """An insider adds a read to the tag's counter and to the row's."""
    tag.read_counter += 1
    consortium.db.get("W1").read_counter += 1


@pytest.mark.parametrize("insider, attack, details", [
    (lambda consortium, tag: resign(consortium, tag, consortium.add_consumer("mallory")),
     AttackClass.MODIFICATION, "recovered public address does not match on-chain custodian"),
    (bump_reads, AttackClass.REAPPLICATION, "read counter differs from on-chain state"),
], ids=["resigned", "bumped_reads"])
def test_an_insiders_edit_of_row_and_tag_is_refused_at_the_append_and_caught_by_a_scan(
        consortium, insider, attack, details):
    tag, _ = create_wine(consortium)
    insider(consortium, tag)
    before = _written_state(consortium, tag)
    with pytest.raises(FlowError, match=details) as err:
        consortium.services["maker"].ship_record_flow(tag)
    assert err.value.stage == "shipping"
    assert _written_state(consortium, tag) == before
    assert not consortium.chain.pool
    outcomes, _, _ = consortium.services["dist"].validate_record_flow(tag)
    assert (outcomes[-1].layer, outcomes[-1].result, outcomes[-1].details) == (
        ValidationLayer.ON_CHAIN, attack, details)


def _insider(consortium, tag, kind, value):
    """One edit of W1's tag or database row; returns the tag presented next."""
    record = consortium.db.get("W1")
    if kind == "clone":
        return counterfeit_copy(tag, randbytes=consortium.randbytes)
    if kind == "tag_field":
        tamper_payload(tag, **dict([value]))
    elif kind == "tag_reads":
        tag.read_counter += value
    elif kind == "bumped_reads":
        bump_reads(consortium, tag)
    elif kind == "pedigree":
        record.pedigree_data["vintage"] = value
    elif kind == "row_tag_uid":  # the presented tag's, a clone's after a clone
        record.tag_uid = tag.tag_id
    elif kind in ("write_counter", "read_counter"):
        setattr(record, kind, getattr(record, kind) + value)
    elif kind == "last_signature":
        record.last_signature = value
    else:  # a re-signed tag
        resign(consortium, tag, consortium.services[value]._key if value in
               consortium.services else consortium.add_consumer(value))
    return tag


_INSIDER_EDITS = st.one_of(
    st.tuples(st.just("clone"), st.none()),
    st.tuples(st.just("tag_field"), st.tuples(
        st.sampled_from(_PAYLOAD_KEYS), st.sampled_from(["W1", "W2", 1, 2, "00" * 65]))),
    st.tuples(st.sampled_from(["tag_reads", "write_counter", "read_counter"]),
              st.integers(-1, 1)),
    st.tuples(st.just("pedigree"), st.sampled_from([2019, 1899])),
    st.tuples(st.sampled_from(["row_tag_uid", "bumped_reads"]), st.none()),
    st.tuples(st.just("last_signature"), st.just("00" * 65)),
    st.tuples(st.just("resign"), st.sampled_from(["maker", "dist", "mallory"])))


@seed(34)
@settings(max_examples=150, deadline=None, database=None)
@given(edits=st.lists(_INSIDER_EDITS, min_size=1, max_size=3),
       append=st.sampled_from(["accept", "ship"]))
def test_an_append_is_refused_exactly_where_a_scan_would_flag(edits, append):
    """After any edits of the tag and the database row, dist's accept or the
    maker's shipment is refused exactly when a scan of a copy fails, and a
    refused append writes nothing anywhere."""
    consortium, tag, session = _scanned_wine()
    for kind, value in edits:
        tag = _insider(consortium, tag, kind, value)
    twin, twin_tag = copy.deepcopy((consortium, tag))
    flagged = not twin.services["retail"].validate_record_flow(twin_tag)[0][-1].passed
    before = (_written_state(consortium, tag), list(consortium.chain.pool))
    try:
        if append == "accept":
            flow = consortium.services["dist"].accept_record_flow(tag, session)
        else:
            flow = consortium.services["maker"].ship_record_flow(tag)
    except FlowError:
        assert flagged
        assert (_written_state(consortium, tag), list(consortium.chain.pool)) == before
    else:
        assert not flagged
        consortium.run_until_idle()
        assert flow.status == "ok"


# -- admin operations ------------------------------------------------------------------------------

def test_admin_operations_refuse_a_non_administrator(consortium):
    maker = consortium.services["maker"]
    with pytest.raises(AuthError):
        maker.upgrade_contract("winedata-v2")
    with pytest.raises(AuthError):
        maker.set_consensus_level(2)
    assert not consortium.chain.pool


def test_vault_backed_signing_key(consortium):
    # the service signs with the key fetched from its vault keystore
    service = consortium.services["maker"]
    token = service.vault.issue_token(["dnas"])
    keystore = service.vault.get(token, secret_path("maker", "nodekey"))
    assert service.address == keystore["address"]


def test_member_keys_live_only_in_their_services(consortium):
    member_addresses = {service.address for service in consortium.services.values()}
    found, seen = [], set()

    def walk(value, path):
        if id(value) in seen or isinstance(value, (str, bytes, int, float, bool)):
            return
        seen.add(id(value))
        if isinstance(value, KeyPair):
            if value.address.hex0x in member_addresses:
                found.append(path)
        elif isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{path}[{key!r}]")
        elif isinstance(value, (list, tuple, set, frozenset)):
            for item in value:
                walk(item, f"{path}[]")
        elif hasattr(value, "__dict__") and not callable(value):
            for name, item in vars(value).items():
                walk(item, f"{path}.{name}")

    for name, value in vars(consortium).items():
        if name != "services":
            walk(value, name)
    assert found == []


# -- copies of a built consortium ----------------------------------------------------------------

def test_a_copys_vault_leases_expire_on_the_copys_clock(consortium):
    twin = copy.deepcopy(consortium)
    vault, key = twin.services["maker"].vault, secret_path("maker", "nodekey")
    token = vault.issue_token(["dnas/maker/"], lease_seconds=5)
    consortium.now += 10  # the template's clock alone moves
    assert vault.get(token, key)["address"] == twin.services["maker"].address
    twin.now += 10
    with pytest.raises(AuthError, match="lease expired"):
        vault.get(token, key)


def test_a_token_drawn_on_a_copy_leaves_the_templates_rng_as_it_was(consortium):
    state = consortium.rng.getstate()
    twin = copy.deepcopy(consortium)
    twin.services["maker"].vault.issue_token(["dnas/maker/"])
    assert consortium.rng.getstate() == state
    assert twin.rng.getstate() != state


def observed(consortium):
    """What work on a copy must leave as it was on the template."""
    store, chain = consortium.store, consortium.chain
    return copy.deepcopy((
        chain.head.hash, chain.head.state_root, [tx.tx_hash for tx in chain.pool],
        consortium.now, {node: store.pinned(node) for node in sorted(store.members())},
        {m: s.vault._secrets for m, s in consortium.services.items()}))


def test_work_on_a_copy_leaves_the_template_as_it_was(consortium):
    before = observed(consortium)
    twin = copy.deepcopy(consortium)
    tag, _ = create_wine(twin)
    dist = twin.services["dist"]
    _, _, session = dist.validate_record_flow(tag)
    twin.run_until_idle()
    dist.accept_record_flow(tag, session)
    twin.onboard_member("late", MemberRole.PARTICIPANT, NodeType.VALIDATOR)
    vault = twin.services["maker"].vault
    vault.put(vault.issue_token(["dnas/maker/"]), secret_path("maker", "note"), "copy only")
    twin.run_until_idle()
    assert twin.counters_in_sync("W1", tag)
    assert observed(twin) != before
    assert observed(consortium) == before


def test_a_copy_taken_during_a_write_completes_only_its_own_record(consortium):
    tag = NfcTag(uid=consortium.randbytes(7))
    flow = consortium.services["maker"].create_record_flow({"wine_id": "W1"}, tag,
                                                           "device-maker")
    twin = copy.deepcopy(consortium)
    twin.run_until_idle()
    assert [e["event"] for e in twin.db.get("W1").transaction_data] == ["on-chain-created"]
    assert twin.counters_in_sync("W1", tag)
    assert flow.status == "pending" and consortium.db.get("W1").transaction_data == []
    consortium.run_until_idle()
    assert flow.status == "ok" and len(consortium.db.get("W1").transaction_data) == 1
