import copy
import json

import pytest

from dnas import content_store, keccak, secp256k1
from dnas.content_store import ContentId
from dnas.contracts import ContractEvent, WineDataContractV1
from dnas.encoding import canonical_json_bytes
from dnas.errors import (
    AuthError,
    FlowError,
    MembershipError,
    NotFoundError,
    SealError,
)
from dnas.keys import KeyPair, hash_identifier
from dnas.ledger import Chain
from dnas.records import WineStatus
from dnas.service import (
    AttackClass,
    BlockchainService,
    MemberRole,
    NodeType,
    ValidationLayer,
)
from dnas.tags import NfcTag, counterfeit_copy
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
    token = service.vault.issue_token(["dnas"], lease_seconds=None)
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


def test_administrator_keeps_no_state_for_wine_events(consortium):
    admin = consortium.services["admin"]
    kept = set(admin._seen_events)
    create_wine(consortium, "W1")
    create_wine(consortium, "W2")
    assert admin._seen_events == kept
    consortium.onboard_member("late", MemberRole.PARTICIPANT, NodeType.VALIDATOR)
    rounds = []
    admin._validator_round = lambda *args, **kwargs: rounds.append(args)
    event = ContractEvent(kind="PeerAdded", fields={
        "candidate": consortium.services["late"].address,
        "member_id": "late", "role": "participant", "node_id": "enode-late",
    }, tx_hash="0xtwice")
    admin.on_contract_event(event)
    admin.on_contract_event(event)
    assert len(rounds) == 1


# -- creation flow ---------------------------------------------------------------------------

def test_create_flow_happy_path(consortium):
    tag, flow = create_wine(consortium)
    assert flow.content_id and flow.tx_hash and flow.block_number
    record = consortium.db.get("W1")
    assert record.wine_status is WineStatus.CREATED
    assert record.write_counter == 1
    assert tag.protection_enabled
    receipt = consortium.chain.query_tx(flow.tx_hash)
    assert receipt.events[0].kind == "WineRecordCreated"


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


# -- validation flow ---------------------------------------------------------------------------

def test_validation_happy_path_counters(consortium):
    tag, _ = create_wine(consortium)
    outcomes, view, session = consortium.services["dist"].validate_record_flow(tag)
    consortium.run_until_idle()
    assert [o.passed for o in outcomes] == [True, True, True]
    assert [o.layer for o in outcomes] == [ValidationLayer.OFF_CHAIN_DB,
                                           ValidationLayer.ON_CHAIN,
                                           ValidationLayer.CONTENT_STORE]
    assert view["wine_status"] == "created"
    assert view["tx_hash"] and view["block_number"]
    assert session is not None
    assert consortium.counters_in_sync("W1", tag)


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
        [(WineDataContractV1, "validate_signature"), (BlockchainService, "_walk_layers")],
        [("verify", secp256k1.verify), ("keccak256", keccak.keccak256),
         ("hash_identifier", hash_identifier)])
    outcomes, _, _ = dist.validate_record_flow(tag)
    assert all(o.passed for o in outcomes)
    assert calls["keccak256", "validate_signature"] == 0
    assert calls["verify", "validate_signature"] == 0
    assert calls["hash_identifier", "_walk_layers"] == 0
    assert calls["verify", None] >= 1  # the read-count transaction's pool admission
    consortium.run_until_idle()
    assert consortium.counters_in_sync("W1", tag)


def test_write_reuses_the_binding_and_still_signs_and_verifies(consortium, count_calls):
    tags = {wine_id: create_wine(consortium, wine_id)[0] for wine_id in ("W1", "W2")}
    dist = consortium.services["dist"]
    calls = count_calls(
        [(BlockchainService, "_write_iteration"), (BlockchainService, "_binding"),
         (BlockchainService, "submit_tx"), (WineDataContractV1, "validate_signature")],
        [("keccak256", keccak.keccak256), ("hash_identifier", hash_identifier),
         ("_keccak_f", keccak._keccak_f),
         ("sign_digest", secp256k1.sign_digest), ("verify", secp256k1.verify)])

    def accept(service, wine_id):
        _, _, session = service.validate_record_flow(tags[wine_id])
        before = calls.copy()
        flow = service.accept_record_flow(tags[wine_id], session)
        consortium.run_until_idle()
        assert flow.status == "ok"
        return calls - before

    # the maker's create hashed the tag uid and the device id through the
    # chain's memo, and the digest is the chain's since then
    first = accept(dist, "W1")
    assert first["keccak256", "_binding"] == 0
    assert first["hash_identifier", "_binding"] == 0
    assert first["keccak256", "_write_iteration"] == 0
    # a second wine from that device: the write derives nothing
    second = accept(dist, "W2")
    assert second["keccak256", "_binding"] == 0
    assert second["keccak256", "_write_iteration"] == 0
    assert second["hash_identifier", "_binding"] == 0
    for write in (first, second):
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

    # a second create by the maker with the same device hashes only the new
    # tag uid, then the one-block digest: two Keccak-f permutations in all
    before = calls.copy()
    create_wine(consortium, "W3")
    third = calls - before
    assert third["hash_identifier", "_binding"] == 1
    assert third["keccak256", "_binding"] == 1
    assert third["keccak256", "_write_iteration"] == 1
    assert third["_keccak_f", "_binding"] == third["_keccak_f", "_write_iteration"] == 1
    assert third["sign_digest", "_write_iteration"] == 1
    consortium.run_until_idle()
    for wine_id, tag in tags.items():
        assert consortium.counters_in_sync(wine_id, tag)


def test_genuine_scan_decodes_no_content_id(consortium, count_calls):
    tag, _ = create_wine(consortium)
    calls = count_calls([(BlockchainService, "_walk_layers")],
                        [("base58_decode", content_store.base58_decode)])
    outcomes, _, _ = consortium.services["dist"].validate_record_flow(tag)
    assert all(o.passed for o in outcomes)
    # the id the scan built is the chain's latest once its hash view passes
    assert calls["base58_decode", "_walk_layers"] == 0


def test_identifier_hashes_are_kept_once_per_chain(consortium, count_calls):
    tag, _ = create_wine(consortium)
    calls = count_calls([(BlockchainService, "_walk_layers")], [("keccak256", keccak.keccak256)])
    # the maker's create hashed the tag uid and the device id: retail's first
    # walk of the layers hashes nothing, as the tag digest is the chain's too
    retail = consortium.services["retail"]
    outcomes, _, _ = retail.validate_record_flow(tag)
    assert [o.result for o in outcomes] == ["pass"] * 3
    assert calls["keccak256", "_walk_layers"] == 0
    consortium.run_until_idle()

    # a uid the chain has not seen is hashed once, and still fails on-chain
    clone = counterfeit_copy(tag, randbytes=consortium.randbytes)
    consortium.db.get("W1").tag_uid = clone.tag_id
    outcomes, _, _ = retail.validate_record_flow(clone)
    assert (outcomes[-1].layer, outcomes[-1].result) == (ValidationLayer.ON_CHAIN,
                                                         AttackClass.CLONING)
    assert calls["keccak256", "_walk_layers"] == 1

    # each chain keeps its own memo: hashing through one leaves another's empty
    first, second = (Chain(consortium.chain.genesis, contract_admin=consortium.chain.runtime.admin)
                     for _ in range(2))
    assert first.runtime.signers.hashed(clone.tag_id) == hash_identifier(clone.tag_id)
    assert second.runtime.signers._identifier_hashes == {}


def test_write_hashes_the_identifiers_the_record_holds_now(consortium):
    tag, _ = create_wine(consortium)
    dist = consortium.services["dist"]
    _, _, session = dist.validate_record_flow(tag)
    flow = dist.accept_record_flow(tag, session)
    consortium.run_until_idle()
    assert flow.status == "ok"
    # dist has written W1 once; its device id no longer matches the chain's
    consortium.db.get("W1").device_id = "device-forged"
    _, _, session = dist.validate_record_flow(tag)
    consortium.run_until_idle()
    record = consortium.db.get("W1")
    before = (tag.write_counter, tag.memory, record.write_counter,
              len(record.supply_chain_data), record.wine_status)
    # the accept hashes the identifiers the record holds now, sees that the
    # chain would refuse the append, and writes nothing
    with pytest.raises(FlowError) as err:
        dist.accept_record_flow(tag, session)
    assert err.value.stage == "acceptance"
    assert "differs from the chain" in str(err.value)
    assert (tag.write_counter, tag.memory, record.write_counter,
            len(record.supply_chain_data), record.wine_status) == before
    assert not consortium.chain.pool
    assert consortium.counters_in_sync("W1", tag)
    outcomes, _, _ = consortium.services["retail"].validate_record_flow(tag)
    consortium.run_until_idle()
    assert all(o.passed for o in outcomes)


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
    dist.accept_record_flow(tag, session)
    consortium.run_until_idle()
    with pytest.raises(FlowError):
        dist.accept_record_flow(tag, session)


def test_session_is_spent_and_bound_to_the_validated_tag(consortium):
    tag, _ = create_wine(consortium)
    dist = consortium.services["dist"]
    _, _, session = dist.validate_record_flow(tag)
    consortium.run_until_idle()
    clone = counterfeit_copy(tag, randbytes=consortium.randbytes)
    with pytest.raises(FlowError) as err:
        dist.accept_record_flow(clone, session)
    assert err.value.stage == "session"
    assert clone.write_counter == tag.write_counter == 1
    assert not consortium.chain.pool
    assert not dist._sessions
    outcomes, _, session = dist.validate_record_flow(tag)
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
    flow = shared.accept_record_flow(tag, session, custodian_key=alice, purchase=True)
    consortium.run_until_idle()
    assert flow.status == "ok"
    assert consortium.db.get("W1").wine_status is WineStatus.SOLD
    # consumer-to-consumer transfer stays validatable after the sale
    outcomes, view, _ = shared.validate_record_flow(tag)
    consortium.run_until_idle()
    assert all(o.passed for o in outcomes)
    assert view["wine_status"] == "sold"
    assert consortium.counters_in_sync("W1", tag)


def test_full_two_hop_chain_counters(consortium):
    tag, _ = create_wine(consortium)
    for member in ("dist", "retail"):
        service = consortium.services[member]
        _, _, session = service.validate_record_flow(tag)
        service.accept_record_flow(tag, session)
        consortium.run_until_idle()
    shared = consortium.shared_service
    buyer = consortium.add_consumer("bob")
    _, _, session = shared.validate_record_flow(tag)
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
    assert view["wine_status"] == "in_transit"
    dist.accept_record_flow(tag, session)
    consortium.run_until_idle()
    assert [e["event"] for e in record.supply_chain_data] == ["created", "shipped", "accepted"]
    assert [e["event"] for e in record.transaction_data] == [
        "on-chain-created", "on-chain-appended", "on-chain-appended"]
    assert consortium.counters_in_sync("W1", tag)
    assert consortium.chain.call_view("get_record", {"wine_id": "W1"})["write_count"] == 3
    assert not consortium.notifications


def test_ship_refuses_a_caller_that_is_not_the_custodian_and_a_cloned_tag(consortium):
    tag, _ = create_wine(consortium)
    with pytest.raises(FlowError, match="not the record's custodian") as err:
        consortium.services["dist"].ship_record_flow(tag)
    assert err.value.stage == "shipping"
    clone = counterfeit_copy(tag, randbytes=consortium.randbytes)
    with pytest.raises(FlowError, match="tag is not the record's"):
        consortium.services["maker"].ship_record_flow(clone)
    assert consortium.db.get("W1").write_counter == tag.write_counter == 1
    assert not consortium.chain.pool


def test_ship_before_the_create_is_mined_is_refused(consortium):
    tag = NfcTag(uid=consortium.randbytes(7))
    maker = consortium.services["maker"]
    maker.create_record_flow({"wine_id": "W1"}, tag, "device-maker")
    with pytest.raises(FlowError, match="no wine record") as err:
        maker.ship_record_flow(tag)
    assert err.value.stage == "shipping"
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
    with pytest.raises(FlowError, match="differ from the database") as err:
        consortium.services["maker"].ship_record_flow(tag)
    assert err.value.stage == "shipping"
    # the check reads the tag without counting a read, and writes nothing
    assert tag.memory == memory and tag.read_counter == changes.get("read_counter", 0)
    assert consortium.db.get("W1").write_counter == 1
    assert not consortium.chain.pool
    outcomes, _, _ = consortium.services["dist"].validate_record_flow(tag)
    assert (outcomes[-1].layer, outcomes[-1].result) == (ValidationLayer.OFF_CHAIN_DB, attack)


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
    token = service.vault.issue_token(["dnas"], lease_seconds=None)
    keystore = service.vault.get(token, secret_path("maker", "nodekey"))
    assert service.address == keystore["address"]


def test_deployment_secret_stored(consortium):
    vault = consortium.services["admin"].vault
    token = vault.issue_token(["dnas"], lease_seconds=None)
    secret = vault.get(token, consortium.deployment_secret_path)
    assert secret["kind"] == "SCDeploymentSecret"
    assert secret["owner"] == consortium.services["admin"].address


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
    dist.accept_record_flow(tag, session)
    twin.onboard_member("late", MemberRole.PARTICIPANT, NodeType.VALIDATOR)
    vault = twin.services["maker"].vault
    vault.put(vault.issue_token(["dnas/maker/"]), secret_path("maker", "note"), "copy only")
    twin.run_until_idle()
    assert twin.counters_in_sync("W1", tag)
    assert observed(twin) != before
    assert observed(consortium) == before
