import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnas.contracts import (
    ContractRuntime,
    Proxy,
    WineDataContractV1,
    WineDataContractV2,
)
from dnas.content_store import ContentId
from dnas.encoding import canonical_json_bytes
from dnas.errors import AuthError, ContractError, ProxyError, RecoveryError, RoleError
from dnas.keys import (
    Signature,
    SignerDirectory,
    generate_keypair,
    hash_identifier,
    prefixed_digest,
    sign_tag_payload,
)
from dnas.ledger import Chain, GenesisConfig, StateTree, sign_transaction


def entry_dict(address, role="participant", member_id="m"):
    return {"address": address, "role": role, "node_id": f"node-{member_id}",
            "member_id": member_id, "joined_at": 0}


@pytest.fixture
def keys():
    return {name: generate_keypair(bytes([i + 1]) * 32)
            for i, name in enumerate(["admin", "maker", "part_a", "part_b", "part_c", "part_d"])}


@pytest.fixture
def runtime(keys):
    rt = ContractRuntime(admin=keys["admin"].address.hex0x, bootstrap_count=5)
    roles = {"admin": "participant", "maker": "winemaker", "part_a": "participant",
             "part_b": "participant", "part_c": "participant"}
    for name, role in roles.items():
        rt.execute(keys["admin"].address.hex0x, "registry", "bootstrap_add_peer",
                   {"entry": entry_dict(keys[name].address.hex0x, role=role, member_id=name)})
    return rt


def single_validator_chain(keys):
    admin = keys["admin"].address.hex0x
    return Chain(GenesisConfig(chain_id=77, period=1, initial_validators=(admin,)),
                 contract_admin=admin)


def commitment(runtime):
    """A from-scratch commitment over every contract leaf of the runtime."""
    return StateTree(runtime.state_bytes, set(runtime.state_keys())).root()


def make_cid(tag=b"subset"):
    return ContentId.for_content(tag).text


def create_record(runtime, keys, wine_id="W1"):
    maker = keys["maker"]
    tag_hash = hash_identifier("tag-uid-1")
    dev_hash = hash_identifier("device-1")
    cid = make_cid(wine_id.encode())
    result, events = runtime.execute(maker.address.hex0x, "proxy", "create_wine_record", {
        "wine_id": wine_id, "wine_data_hash": cid,
        "new_public_address": maker.address.hex0x,
        "tag_id": tag_hash, "device_id": dev_hash,
    })
    return result, events, cid, tag_hash, dev_hash


# -- Algorithm: on-chain creation ------------------------------------------------

def test_create_sets_all_mappings(runtime, keys):
    result, events, cid, tag_hash, dev_hash = create_record(runtime, keys)
    assert result is True
    record = runtime.call_view("get_record", {"wine_id": "W1"})
    assert record["write_count"] == 1
    assert record["data_hash_latest"] == cid
    assert record["pub_addr"] == keys["maker"].address.hex0x
    assert record["tag_id"] == tag_hash
    assert record["device_id"] == dev_hash
    assert len(events) == 1
    assert events[0].kind == "WineRecordCreated"
    assert events[0].fields["creator"] == keys["maker"].address.hex0x
    assert events[0].fields["hashed_device_id"] == dev_hash


def test_wine_leaf_commits_exactly_the_six_fields(runtime, keys):
    _, _, cid, tag_hash, dev_hash = create_record(runtime, keys)
    runtime.execute(keys["part_a"].address.hex0x, "proxy", "increment_read_count",
                    {"wine_id": "W1"})
    assert runtime.state_bytes("wine:W1") == canonical_json_bytes({
        "data_hash": {"1": cid}, "pub_addr": keys["maker"].address.hex0x,
        "tag_id": tag_hash, "device_id": dev_hash, "write_count": 1, "read_count": 1,
    })


def test_create_twice_error_no_state_change(runtime, keys):
    _, _, cid, tag_hash, dev_hash = create_record(runtime, keys)
    before = commitment(runtime)
    with pytest.raises(ContractError):
        runtime.execute(keys["maker"].address.hex0x, "proxy", "create_wine_record", {
            "wine_id": "W1", "wine_data_hash": make_cid(b"other"),
            "new_public_address": keys["part_a"].address.hex0x,
            "tag_id": tag_hash, "device_id": dev_hash,
        })
    assert commitment(runtime) == before


def test_create_requires_winemaker_role(runtime, keys):
    before = commitment(runtime)
    with pytest.raises(RoleError):
        runtime.execute(keys["part_a"].address.hex0x, "proxy", "create_wine_record", {
            "wine_id": "W9", "wine_data_hash": make_cid(),
            "new_public_address": keys["part_a"].address.hex0x,
            "tag_id": hash_identifier("t"), "device_id": hash_identifier("d"),
        })
    assert commitment(runtime) == before


# -- Algorithm: hash validation -----------------------------------------------------

def test_validate_hash_latest_iteration(runtime, keys):
    _, _, cid, _, _ = create_record(runtime, keys)
    assert runtime.call_view("validate_wine_record_hash",
                             {"wine_id": "W1", "wine_data_hash": cid}) is True
    assert runtime.call_view("validate_wine_record_hash",
                             {"wine_id": "W1", "wine_data_hash": make_cid(b"not it")}) is False


def test_validate_hash_unknown_record(runtime, keys):
    with pytest.raises(ContractError):
        runtime.call_view("validate_wine_record_hash",
                          {"wine_id": "ghost", "wine_data_hash": make_cid()})


def test_validate_is_read_only(runtime, keys):
    _, _, cid, _, _ = create_record(runtime, keys)
    before = commitment(runtime)
    runtime.call_view("validate_wine_record_hash", {"wine_id": "W1", "wine_data_hash": cid})
    runtime.call_view("validate_signature", {"wine_id": "W1", "v": 27, "r": 1, "s": 1})
    assert commitment(runtime) == before


# -- Algorithm: signature validation ----------------------------------------------

def test_validate_signature_of_registered_custodian(runtime, keys):
    create_record(runtime, keys)
    digest = prefixed_digest("W1", hash_identifier("tag-uid-1"), hash_identifier("device-1"))
    sig = sign_tag_payload(digest, keys["maker"])
    assert runtime.call_view("validate_signature",
                             {"wine_id": "W1", "v": sig.v, "r": sig.r, "s": sig.s}) is True


def test_validate_signature_other_key_false(runtime, keys):
    create_record(runtime, keys)
    digest = prefixed_digest("W1", hash_identifier("tag-uid-1"), hash_identifier("device-1"))
    sig = sign_tag_payload(digest, keys["part_a"])
    assert runtime.call_view("validate_signature",
                             {"wine_id": "W1", "v": sig.v, "r": sig.r, "s": sig.s}) is False


def test_validate_signature_against_a_known_custodian(runtime, keys, recoveries):
    create_record(runtime, keys)
    tag, device = hash_identifier("tag-uid-1"), hash_identifier("device-1")
    for key, expected in (("maker", True), ("maker", True), ("part_a", False)):
        sig = sign_tag_payload(prefixed_digest("W1", tag, device), keys[key])
        assert runtime.call_view("validate_signature",
                                 {"wine_id": "W1", "v": sig.v, "r": sig.r, "s": sig.s}) is expected
    assert len(recoveries) == 1  # every later check used the maker's known key
    assert runtime.call_view("validate_signature",
                             {"wine_id": "W1", "v": 27, "r": 123, "s": 456}) is False


def test_validate_signature_mismatched_tag_id_false(runtime, keys):
    create_record(runtime, keys)
    digest = prefixed_digest("W1", hash_identifier("some-other-tag"), hash_identifier("device-1"))
    sig = sign_tag_payload(digest, keys["maker"])
    assert runtime.call_view("validate_signature",
                             {"wine_id": "W1", "v": sig.v, "r": sig.r, "s": sig.s}) is False


def test_validate_signature_unknown_wine(runtime, keys):
    with pytest.raises(ContractError):
        runtime.call_view("validate_signature", {"wine_id": "ghost", "v": 27, "r": 1, "s": 1})


def test_validate_signature_garbage_is_false_not_error(runtime, keys):
    create_record(runtime, keys)
    assert runtime.call_view("validate_signature",
                             {"wine_id": "W1", "v": 27, "r": 123, "s": 456}) is False


# Wines for the memo property: W1 and W3 name the maker as custodian, W2 names
# part_b; W1 stores tag-uid-1, W2 and W3 store tag-uid-2.
_MEMO_WINES = {"W1": ("maker", "tag-uid-1"), "W2": ("part_b", "tag-uid-2"),
               "W3": ("maker", "tag-uid-2")}
_present = st.tuples(st.just("present"), st.sampled_from(sorted(_MEMO_WINES)),
                     st.sampled_from(["maker", "part_a", "part_b"]),
                     st.sampled_from(["tag-uid-1", "tag-uid-2"]), st.booleans(),
                     st.sampled_from(sorted(_MEMO_WINES)))
_append = st.tuples(st.just("append"), st.sampled_from(sorted(_MEMO_WINES)),
                    st.sampled_from(["maker", "part_a", "part_b"]))


def _memo_free_check(runtime, wine_id, sig):
    """``signed_by`` on a fresh directory, so the key is recovered anew."""
    record = runtime.call_view("get_record", {"wine_id": wine_id})
    digest = prefixed_digest(wine_id, record["tag_id"], record["device_id"])
    try:
        return SignerDirectory().signed_by(digest, sig, record["pub_addr"])
    except RecoveryError:
        return False


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(st.one_of(_present, _append), max_size=6))
# another address: the maker's signature over W2, whose custodian is part_b
@example(steps=[("present", "W2", "maker", "tag-uid-2", False, "W2")])
# a flipped v on the accepted signature
@example(steps=[("present", "W1", "maker", "tag-uid-1", True, "W1")])
# a second valid signature over the same digest, by another key
@example(steps=[("present", "W1", "part_a", "tag-uid-1", False, "W1")])
# custody moves to part_a: the maker's accepted signature is refused, part_a's accepted
@example(steps=[("append", "W1", "part_a"), ("present", "W1", "maker", "tag-uid-1", False, "W1"),
                ("present", "W1", "part_a", "tag-uid-1", False, "W1")])
# the signed tag id is not the stored one
@example(steps=[("present", "W1", "maker", "tag-uid-2", False, "W1"),
                ("present", "W3", "maker", "tag-uid-1", False, "W1")])
def test_validate_signature_memo_agrees_with_signed_by(steps):
    keys = {name: generate_keypair(bytes([i + 1]) * 32)
            for i, name in enumerate(["admin", "maker", "part_a", "part_b"])}
    runtime = ContractRuntime(admin=keys["admin"].address.hex0x, bootstrap_count=5)
    for name in keys:
        runtime.execute(keys["admin"].address.hex0x, "registry", "bootstrap_add_peer", {
            "entry": entry_dict(keys[name].address.hex0x,
                                role="winemaker" if name == "maker" else "participant",
                                member_id=name)})
    device = hash_identifier("device-1")
    for wine_id, (custodian, tag_uid) in _MEMO_WINES.items():
        runtime.execute(keys["maker"].address.hex0x, "proxy", "create_wine_record", {
            "wine_id": wine_id, "wine_data_hash": make_cid(wine_id.encode()),
            "new_public_address": keys[custodian].address.hex0x,
            "tag_id": hash_identifier(tag_uid), "device_id": device})

    def present(wine_id, sig):
        return runtime.call_view("validate_signature",
                                 {"wine_id": wine_id, "v": sig.v, "r": sig.r, "s": sig.s})

    genuine = sign_tag_payload(prefixed_digest("W1", hash_identifier("tag-uid-1"), device),
                               keys["maker"])
    assert present("W1", genuine) is True  # the accepted check every step follows
    for step in steps:
        if step[0] == "append":
            _, wine_id, custodian = step
            record = runtime.call_view("get_record", {"wine_id": wine_id})
            runtime.execute(keys["part_a"].address.hex0x, "proxy", "append_wine_record", {
                "wine_id": wine_id, "new_wine_data_hash": make_cid(b"next " + wine_id.encode()),
                "new_public_address": keys[custodian].address.hex0x,
                "tag_id": record["tag_id"], "device_id": record["device_id"]})
            continue
        _, wine_id, signer, tag_uid, flip_v, signed_for = step
        sig = sign_tag_payload(prefixed_digest(signed_for, hash_identifier(tag_uid), device),
                               keys[signer])
        if flip_v:
            sig = Signature(v=55 - sig.v, r=sig.r, s=sig.s)
        assert present(wine_id, sig) is _memo_free_check(runtime, wine_id, sig)
    assert present("W1", genuine) is _memo_free_check(runtime, "W1", genuine)


# -- append -----------------------------------------------------------------------------

def test_append_transfers_custody(runtime, keys):
    _, _, _, tag_hash, dev_hash = create_record(runtime, keys)
    new_cid = make_cid(b"subset v2")
    result, events = runtime.execute(keys["part_a"].address.hex0x, "proxy", "append_wine_record", {
        "wine_id": "W1", "new_wine_data_hash": new_cid,
        "new_public_address": keys["part_a"].address.hex0x,
        "tag_id": tag_hash, "device_id": dev_hash,
    })
    assert result is True
    record = runtime.call_view("get_record", {"wine_id": "W1"})
    assert record["write_count"] == 2
    assert record["pub_addr"] == keys["part_a"].address.hex0x
    assert record["data_hash_latest"] == new_cid
    assert events[0].kind == "WineRecordAppended"
    assert events[0].fields["previous"] == keys["maker"].address.hex0x
    assert events[0].fields["current"] == keys["part_a"].address.hex0x


def test_append_unknown_wine(runtime, keys):
    with pytest.raises(ContractError):
        runtime.execute(keys["part_a"].address.hex0x, "proxy", "append_wine_record", {
            "wine_id": "ghost", "new_wine_data_hash": make_cid(),
            "new_public_address": keys["part_a"].address.hex0x,
            "tag_id": hash_identifier("t"), "device_id": hash_identifier("d"),
        })


def test_append_requires_membership(runtime, keys):
    _, _, _, tag_hash, dev_hash = create_record(runtime, keys)
    with pytest.raises(RoleError):
        runtime.execute(keys["part_d"].address.hex0x, "proxy", "append_wine_record", {
            "wine_id": "W1", "new_wine_data_hash": make_cid(b"v2"),
            "new_public_address": keys["part_d"].address.hex0x,
            "tag_id": tag_hash, "device_id": dev_hash,
        })


def test_append_rejects_stale_identifiers(runtime, keys):
    create_record(runtime, keys)
    with pytest.raises(ContractError):
        runtime.execute(keys["part_a"].address.hex0x, "proxy", "append_wine_record", {
            "wine_id": "W1", "new_wine_data_hash": make_cid(b"v2"),
            "new_public_address": keys["part_a"].address.hex0x,
            "tag_id": hash_identifier("wrong-tag"), "device_id": hash_identifier("device-1"),
        })


def test_two_appends_keep_full_iteration_history(runtime, keys):
    _, _, cid1, tag_hash, dev_hash = create_record(runtime, keys)
    cids = [cid1]
    for i, actor in enumerate(["part_a", "part_b"]):
        cid = make_cid(b"iteration-%d" % (i + 2))
        cids.append(cid)
        runtime.execute(keys[actor].address.hex0x, "proxy", "append_wine_record", {
            "wine_id": "W1", "new_wine_data_hash": cid,
            "new_public_address": keys[actor].address.hex0x,
            "tag_id": tag_hash, "device_id": dev_hash,
        })
    record = runtime.call_view("get_record", {"wine_id": "W1"})
    assert record["write_count"] == 3
    assert record["data_hash_history"] == {1: cids[0], 2: cids[1], 3: cids[2]}
    assert len(set(cids)) == 3


# -- registry ------------------------------------------------------------------------

def test_get_peers_after_bootstrap(runtime):
    assert len(runtime.call_view("get_peers", {})) == 5


def test_get_peers_empty_registry(keys):
    rt = ContractRuntime(admin=keys["admin"].address.hex0x)
    assert rt.call_view("get_peers", {}) == []


def test_bootstrap_closes_at_threshold(runtime, keys):
    with pytest.raises(ContractError):
        runtime.execute(keys["admin"].address.hex0x, "registry", "bootstrap_add_peer",
                        {"entry": entry_dict(keys["part_d"].address.hex0x, member_id="late")})


def test_bootstrap_stays_closed_after_a_removal(runtime, keys):
    # four members left is below bootstrap_count, but only votes admit now
    leaving = entry_dict(keys["part_c"].address.hex0x, member_id="part_c")
    for voter in ("admin", "maker", "part_a"):
        runtime.execute(keys[voter].address.hex0x, "registry", "propose_peer",
                        {"entry": leaving, "add": False})
    assert len(runtime.call_view("get_peers", {})) == 4
    assert runtime.call_view("in_bootstrap_stage", {}) is False
    with pytest.raises(ContractError):
        runtime.execute(keys["admin"].address.hex0x, "registry", "bootstrap_add_peer",
                        {"entry": entry_dict(keys["part_d"].address.hex0x, member_id="late")})


def test_no_bootstrap_stage_without_a_bootstrap_count(keys):
    rt = ContractRuntime(admin=keys["admin"].address.hex0x, bootstrap_count=0)
    assert rt.call_view("in_bootstrap_stage", {}) is False


@pytest.mark.parametrize("change, message", [
    ({"role": "auditor"}, "unknown peer role 'auditor'"),
    ({"node_id": 7}, "node_id and member_id must be strings"),
    ({"member_id": None}, "node_id and member_id must be strings"),
    ({"joined_at": "0"}, "joined_at must be an integer"),
], ids=["unknown_role", "integer_node_id", "null_member_id", "string_joined_at"])
def test_a_mistyped_peer_entry_seals_an_error_receipt(keys, change, message):
    chain, admin = single_validator_chain(keys), keys["admin"].address.hex0x
    entry = {**entry_dict(keys["maker"].address.hex0x), **change}
    tx_hash = chain.submit_transaction(sign_transaction(
        keys["admin"], 77, "registry", "bootstrap_add_peer", {"entry": entry}, nonce=0))
    chain.seal_block(admin, timestamp=1)
    receipt = chain.query_tx(tx_hash)
    assert (receipt.status, receipt.error) == ("error", message)
    assert chain.call_view("get_peers", {}) == []


def test_a_repeated_bootstrap_insertion_seals_an_error_receipt(keys):
    chain, admin = single_validator_chain(keys), keys["admin"].address.hex0x
    entry = entry_dict(keys["maker"].address.hex0x, role="winemaker")
    first, again = [chain.submit_transaction(sign_transaction(
        keys["admin"], 77, "registry", "bootstrap_add_peer", {"entry": entry}, nonce=nonce))
        for nonce in (0, 1)]
    chain.seal_block(admin, timestamp=1)
    assert chain.call_view("in_bootstrap_stage", {}) is True
    assert chain.query_tx(first).status == "ok"
    receipt = chain.query_tx(again)
    assert (receipt.status, receipt.error) == (
        "error", f"peer {keys['maker'].address.hex0x} already registered")
    assert [e.kind for tx in (first, again) for e in chain.query_tx(tx).events] == ["PeerAdded"]


def test_an_outsiders_read_count_update_seals_an_error_receipt(keys):
    chain, admin = single_validator_chain(keys), keys["admin"].address.hex0x
    maker, outsider = keys["maker"], keys["part_d"]
    chain.submit_transaction(sign_transaction(
        keys["admin"], 77, "registry", "bootstrap_add_peer",
        {"entry": entry_dict(maker.address.hex0x, role="winemaker")}, nonce=0))
    chain.seal_block(admin, timestamp=1)
    chain.submit_transaction(sign_transaction(maker, 77, "proxy", "create_wine_record", {
        "wine_id": "W1", "wine_data_hash": make_cid(), "new_public_address": maker.address.hex0x,
        "tag_id": hash_identifier("t"), "device_id": hash_identifier("d")}, nonce=0))
    read = chain.submit_transaction(sign_transaction(
        outsider, 77, "proxy", "increment_read_count", {"wine_id": "W1"}, nonce=0))
    chain.seal_block(admin, timestamp=2)
    receipt = chain.query_tx(read)
    assert (receipt.status, receipt.error) == (
        "error", "read-count updates require a registered consortium member")
    assert chain.call_view("get_record", {"wine_id": "W1"})["read_count"] == 0


def test_bootstrap_admin_only(keys):
    rt = ContractRuntime(admin=keys["admin"].address.hex0x)
    with pytest.raises(AuthError):
        rt.execute(keys["maker"].address.hex0x, "registry", "bootstrap_add_peer",
                   {"entry": entry_dict(keys["maker"].address.hex0x)})


def test_admission_at_consensus_level(runtime, keys):
    # 5 members, default level = ceil(5/2) = 3
    candidate = entry_dict(keys["part_d"].address.hex0x, member_id="part_d")
    for voter, expect_applied in (("admin", False), ("maker", False), ("part_a", True)):
        result, events = runtime.execute(keys[voter].address.hex0x, "registry",
                                         "propose_peer", {"entry": candidate, "add": True})
        assert result["applied"] is expect_applied
    assert runtime.call_view("is_member", {"address": keys["part_d"].address.hex0x})
    assert any(e.kind == "PeerAdded" for e in events)


def test_duplicate_votes_do_not_advance_tally(runtime, keys):
    candidate = entry_dict(keys["part_d"].address.hex0x, member_id="part_d")
    for _ in range(3):
        result, _ = runtime.execute(keys["admin"].address.hex0x, "registry",
                                    "propose_peer", {"entry": candidate, "add": True})
        assert result == {"tally": 1, "required": 3, "applied": False}


def test_non_member_cannot_vote(runtime, keys):
    with pytest.raises(AuthError):
        runtime.execute(keys["part_d"].address.hex0x, "registry", "propose_peer",
                        {"entry": entry_dict(keys["part_d"].address.hex0x), "add": True})


def test_removal_revokes_role_checks(runtime, keys):
    target = entry_dict(keys["maker"].address.hex0x, role="winemaker", member_id="maker")
    for voter in ("admin", "part_a", "part_b"):
        runtime.execute(keys[voter].address.hex0x, "registry", "propose_peer",
                        {"entry": target, "add": False})
    assert not runtime.call_view("is_member", {"address": keys["maker"].address.hex0x})
    with pytest.raises(RoleError):
        runtime.execute(keys["maker"].address.hex0x, "proxy", "create_wine_record", {
            "wine_id": "W2", "wine_data_hash": make_cid(),
            "new_public_address": keys["maker"].address.hex0x,
            "tag_id": hash_identifier("t"), "device_id": hash_identifier("d"),
        })


def test_votes_on_a_change_in_effect_are_no_ops(runtime, keys):
    candidate = entry_dict(keys["part_d"].address.hex0x, member_id="part_d")
    target = entry_dict(keys["maker"].address.hex0x, role="winemaker", member_id="maker")
    for voter in ("admin", "maker", "part_a"):
        runtime.execute(keys[voter].address.hex0x, "registry", "propose_peer",
                        {"entry": candidate, "add": True})
    for voter in ("admin", "part_a", "part_b"):
        runtime.execute(keys[voter].address.hex0x, "registry", "propose_peer",
                        {"entry": target, "add": False})
    before = commitment(runtime)
    # a late admission vote, and the removed member's own late removal vote
    for voter, entry, add in (("part_b", candidate, True), ("maker", target, False)):
        result, events = runtime.execute(keys[voter].address.hex0x, "registry",
                                         "propose_peer", {"entry": entry, "add": add})
        assert result["applied"] is False and events == []
    assert commitment(runtime) == before


def test_consensus_level_admin_only(runtime, keys):
    with pytest.raises(AuthError):
        runtime.execute(keys["maker"].address.hex0x, "registry", "set_consensus_level",
                        {"level": 2})
    with pytest.raises(ContractError):
        runtime.execute(keys["admin"].address.hex0x, "registry", "set_consensus_level",
                        {"level": 0})
    runtime.execute(keys["admin"].address.hex0x, "registry", "set_consensus_level", {"level": 4})
    assert runtime.call_view("consensus_level", {}) == 4


def test_level_lowered_mid_tally_applies_on_next_vote(runtime, keys):
    candidate = entry_dict(keys["part_d"].address.hex0x, member_id="part_d")
    runtime.execute(keys["admin"].address.hex0x, "registry", "propose_peer",
                    {"entry": candidate, "add": True})
    runtime.execute(keys["maker"].address.hex0x, "registry", "propose_peer",
                    {"entry": candidate, "add": True})
    assert not runtime.call_view("is_member", {"address": keys["part_d"].address.hex0x})
    runtime.execute(keys["admin"].address.hex0x, "registry", "set_consensus_level", {"level": 2})
    # evaluation happens on vote events; a repeat vote triggers it
    result, _ = runtime.execute(keys["admin"].address.hex0x, "registry", "propose_peer",
                                {"entry": candidate, "add": True})
    assert result["applied"] is True


# -- proxy -------------------------------------------------------------------------------

def test_proxy_preserves_caller_identity(runtime, keys):
    # role checks inside the implementation observe the original sender
    create_record(runtime, keys)  # succeeds because caller is the winemaker
    record = runtime.call_view("get_record", {"wine_id": "W1"})
    assert record["pub_addr"] == keys["maker"].address.hex0x


def test_proxy_is_deployed_with_its_first_implementation_live(keys):
    owner = keys["admin"].address.hex0x
    proxy = Proxy(owner=owner, implementations=(WineDataContractV1(), WineDataContractV2()))
    assert proxy.snapshot() == {"owner": owner, "current_implementation": "winedata-v1",
                                "initialize_counter": {"winedata-v1": 1}}
    assert ContractRuntime(admin=owner).state_bytes("proxy_admin") == canonical_json_bytes(
        proxy.snapshot())


def test_upgrade_to_an_unknown_version_is_refused(runtime, keys):
    with pytest.raises(ProxyError, match="unknown implementation version 'winedata-v3'"):
        runtime.execute(keys["admin"].address.hex0x, "proxy_admin", "upgrade_to",
                        {"version": "winedata-v3"})
    assert runtime.proxy.current_implementation == "winedata-v1"


def test_upgrade_preserves_storage(runtime, keys):
    _, _, cid, tag_hash, dev_hash = create_record(runtime, keys)
    runtime.execute(keys["admin"].address.hex0x, "proxy_admin", "upgrade_to",
                    {"version": WineDataContractV2.version})
    assert runtime.proxy.current_implementation == "winedata-v2"
    assert runtime.call_view("validate_wine_record_hash",
                             {"wine_id": "W1", "wine_data_hash": cid}) is True
    # append still works against the same storage
    runtime.execute(keys["part_a"].address.hex0x, "proxy", "append_wine_record", {
        "wine_id": "W1", "new_wine_data_hash": make_cid(b"post-upgrade"),
        "new_public_address": keys["part_a"].address.hex0x,
        "tag_id": tag_hash, "device_id": dev_hash,
    })
    assert runtime.call_view("get_record", {"wine_id": "W1"})["write_count"] == 2
    assert runtime.call_view("record_count", {}) == 1


def test_upgrade_emits_event(runtime, keys):
    _, events = runtime.execute(keys["admin"].address.hex0x, "proxy_admin", "upgrade_to",
                                {"version": WineDataContractV2.version})
    assert [e.kind for e in events] == ["Upgraded"]
    assert events[0].fields["version"] == "winedata-v2"


def test_reinitialization_rejected(runtime, keys):
    runtime.execute(keys["admin"].address.hex0x, "proxy_admin", "upgrade_to",
                    {"version": WineDataContractV2.version})
    for version in (WineDataContractV1.version, WineDataContractV2.version):
        with pytest.raises(ProxyError):
            runtime.execute(keys["admin"].address.hex0x, "proxy_admin", "upgrade_to",
                            {"version": version})


def test_non_admin_upgrade_rejected(runtime, keys):
    with pytest.raises(AuthError):
        runtime.execute(keys["maker"].address.hex0x, "proxy_admin", "upgrade_to",
                        {"version": WineDataContractV2.version})


def test_view_methods_rejected_as_transactions(runtime, keys):
    with pytest.raises(ContractError):
        runtime.execute(keys["maker"].address.hex0x, "proxy", "validate_signature",
                        {"wine_id": "W1", "v": 27, "r": 1, "s": 1})
