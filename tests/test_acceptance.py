"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module stays within a desk-scale time budget.
"""

import hashlib
import itertools
import json
import random

import pytest

from dnas import secp256k1
from dnas.content_store import ContentId, base58_decode
from dnas.contracts import ContractRuntime, WineDataContractV2
from dnas.encoding import canonical_json_bytes
from dnas.errors import AuthError, ContractError
from dnas.keccak import keccak256
from dnas.keys import generate_keypair, hash_identifier, prefixed_digest, sign_tag_payload
from dnas.ledger import GAS_LIMIT_FLOOR, Chain, GenesisConfig, next_gas_limit
from dnas.scenario import MemberSpec, Scenario, Step
from dnas.service import (
    AttackClass,
    MemberRole,
    NodeType,
    ValidationLayer,
)
from dnas.simnet import replay_determinism_check, run_scenario
from dnas.tags import NfcTag, counterfeit_copy

import reference_ecdsa
from conftest import built_consortium
from test_secp256k1 import FIXED_VECTORS

FIVE_MEMBERS = [
    ("admin", MemberRole.ADMINISTRATOR, NodeType.VALIDATOR),
    ("maker", MemberRole.WINEMAKER, NodeType.VALIDATOR),
    ("dist", MemberRole.PARTICIPANT, NodeType.VALIDATOR),
    ("retail", MemberRole.PARTICIPANT, NodeType.VALIDATOR),
    ("ship", MemberRole.PARTICIPANT, NodeType.VALIDATOR),
]


def announce(number: int, text: str) -> None:
    print(f"\n[PASS] criterion {number}: {text}")


def five_member_consortium(seed=99):
    return built_consortium(seed=seed, initial_members=FIVE_MEMBERS, bootstrap_count=5)


def create_and_ship(consortium, wine_id="W1"):
    """Create a record and move it one custody hop (maker -> dist)."""
    tag = NfcTag(uid=consortium.randbytes(7))
    consortium.services["maker"].create_record_flow(
        {"wine_id": wine_id, "pedigree_data": {"producer": "Chateau A", "vintage": 2018}},
        tag, "device-maker")
    consortium.run_until_idle()
    dist = consortium.services["dist"]
    _, _, session = dist.validate_record_flow(tag)
    consortium.run_until_idle()  # the scan's read is mined before the accept checks the chain
    dist.accept_record_flow(tag, session)
    consortium.run_until_idle()
    return tag


# -- criterion 1: algorithm fidelity ------------------------------------------------------

def test_criterion_1_algorithm_fidelity():
    admin = generate_keypair(b"\x51" * 32)
    maker = generate_keypair(b"\x52" * 32)
    other = generate_keypair(b"\x53" * 32)
    runtime = ContractRuntime(admin=admin.address.hex0x, bootstrap_count=3)
    for key, role in ((admin, "participant"), (maker, "winemaker"), (other, "participant")):
        runtime.execute(admin.address.hex0x, "registry", "bootstrap_add_peer", {
            "entry": {"address": key.address.hex0x, "role": role,
                      "node_id": "n", "member_id": key.address.hex0x[:8], "joined_at": 0}})

    right_tag = hash_identifier("tag-right")
    right_dev = hash_identifier("device-right")
    cid1 = ContentId.for_content(b"iteration one").text
    cid2 = ContentId.for_content(b"iteration two").text

    # create succeeds exactly once per wine identifier
    assert runtime.execute(maker.address.hex0x, "proxy", "create_wine_record", {
        "wine_id": "W", "wine_data_hash": cid1,
        "new_public_address": maker.address.hex0x,
        "tag_id": right_tag, "device_id": right_dev})[0] is True
    with pytest.raises(ContractError):
        runtime.execute(maker.address.hex0x, "proxy", "create_wine_record", {
            "wine_id": "W", "wine_data_hash": cid1,
            "new_public_address": maker.address.hex0x,
            "tag_id": right_tag, "device_id": right_dev})

    # hash validation is equality on the latest iteration
    assert runtime.call_view("validate_wine_record_hash",
                             {"wine_id": "W", "wine_data_hash": cid1}) is True
    runtime.execute(other.address.hex0x, "proxy", "append_wine_record", {
        "wine_id": "W", "new_wine_data_hash": cid2,
        "new_public_address": other.address.hex0x,
        "tag_id": right_tag, "device_id": right_dev})
    assert runtime.call_view("validate_wine_record_hash",
                             {"wine_id": "W", "wine_data_hash": cid2}) is True
    assert runtime.call_view("validate_wine_record_hash",
                             {"wine_id": "W", "wine_data_hash": cid1}) is False

    # signature validation: exhaustive 2^3 mismatch sweep over
    # (key, tag identifier, device identifier); only the identity passes
    custodian = other  # current MapPubAddr holder after the append
    for use_key, use_tag, use_dev in itertools.product((True, False), repeat=3):
        key = custodian if use_key else maker
        tag = right_tag if use_tag else hash_identifier("tag-wrong")
        dev = right_dev if use_dev else hash_identifier("device-wrong")
        sig = sign_tag_payload(prefixed_digest("W", tag, dev), key)
        outcome = runtime.call_view("validate_signature",
                                    {"wine_id": "W", "v": sig.v, "r": sig.r, "s": sig.s})
        assert outcome is (use_key and use_tag and use_dev), (use_key, use_tag, use_dev)

    announce(1, "create-once, latest-iteration hash check, signature sweep 2^3")


# -- criterion 2: attack-detection matrix ---------------------------------------------------

def corrupt_wine_id(consortium, tag):
    fields = json.loads(tag.memory)
    fields["wine_id"] = "W-forged"
    tag.memory = canonical_json_bytes(fields)
    return tag


def corrupt_signature(consortium, tag):
    fields = json.loads(tag.memory)
    sig = bytearray(bytes.fromhex(fields["signature"]))
    sig[1] ^= 0x40
    fields["signature"] = sig.hex()
    tag.memory = canonical_json_bytes(fields)
    return tag


def corrupt_uid(consortium, tag):
    return counterfeit_copy(tag, randbytes=consortium.randbytes)


def corrupt_write_counter(consortium, tag):
    fields = json.loads(tag.memory)
    fields["write_counter"] += 3
    tag.memory = canonical_json_bytes(fields)
    return tag


def corrupt_read_counter(consortium, tag):
    tag.read_counter += 4
    return tag


def corrupt_subset(consortium, tag):
    consortium.db.get("W1").pedigree_data["vintage"] = 1901
    return tag


ATTACK_MATRIX = [
    ("wine_id", corrupt_wine_id, ValidationLayer.OFF_CHAIN_DB, AttackClass.MODIFICATION),
    ("signature", corrupt_signature, ValidationLayer.OFF_CHAIN_DB, AttackClass.MODIFICATION),
    ("tag uid", corrupt_uid, ValidationLayer.OFF_CHAIN_DB, AttackClass.CLONING),
    ("write_counter", corrupt_write_counter, ValidationLayer.OFF_CHAIN_DB,
     AttackClass.REAPPLICATION),
    ("read_counter", corrupt_read_counter, ValidationLayer.OFF_CHAIN_DB,
     AttackClass.REAPPLICATION),
    ("subset bytes", corrupt_subset, ValidationLayer.CONTENT_STORE, AttackClass.MODIFICATION),
]


def test_criterion_2_attack_detection_matrix():
    for index, (name, corrupt, expected_layer, expected_class) in enumerate(ATTACK_MATRIX):
        consortium = five_member_consortium(seed=200 + index)
        tag = create_and_ship(consortium)
        scan_tag = corrupt(consortium, tag)
        outcomes, view, session = consortium.services["retail"].validate_record_flow(scan_tag)
        assert view is None and session is None, f"{name}: corruption not detected"
        failing = outcomes[-1]
        assert not failing.passed, f"{name}: no failing layer"
        assert failing.layer is expected_layer, (
            f"{name}: detected at {failing.layer}, expected {expected_layer}")
        assert failing.result is expected_class, (
            f"{name}: classified {failing.result}, expected {expected_class}")
        # layers strictly ordered; earlier layers passed
        for outcome in outcomes[:-1]:
            assert outcome.passed
    announce(2, "6/6 single-field corruptions detected with expected class and layer")


# -- criterion 3: consensus thresholds ---------------------------------------------------------

def test_criterion_3_consensus_thresholds():
    for n in range(3, 10):
        admin = "0x" + f"a{n:x}".rjust(40, "0")
        members = [admin] + ["0x" + f"{n:x}{i:x}".rjust(40, "0") for i in range(1, n)]
        runtime = ContractRuntime(admin=admin, bootstrap_count=n)
        for address in members:
            runtime.execute(admin, "registry", "bootstrap_add_peer", {
                "entry": {"address": address, "role": "participant",
                          "node_id": "n", "member_id": address[:6], "joined_at": 0}})
        level = runtime.call_view("consensus_level", {})
        assert level == (n + 1) // 2, f"default level for N={n}"
        candidate = {"address": "0x" + "c".rjust(40, "0"), "role": "participant",
                     "node_id": "n", "member_id": "cand", "joined_at": 0}
        for i, voter in enumerate(members[:level]):
            # a duplicate vote from the first member never advances the tally
            result, _ = runtime.execute(members[0], "registry", "propose_peer",
                                        {"entry": candidate, "add": True})
            if i + 1 < level:
                assert result["applied"] is False
            result, _ = runtime.execute(voter, "registry", "propose_peer",
                                        {"entry": candidate, "add": True})
            assert result["applied"] is (i + 1 == level), f"N={n}, vote {i + 1}"

        # chain-level validator admission at exactly floor(N/2)+1 distinct votes
        chain = Chain(GenesisConfig(chain_id=1, period=1,
                                    initial_validators=tuple(members)),
                      contract_admin=admin, bootstrap_count=n)
        threshold = n // 2 + 1
        target = "0x" + "d".rjust(40, "0")
        duplicate = chain.propose_validator(members[0], target, True)
        for i, voter in enumerate(members[:threshold]):
            if i == 0:
                result = duplicate
            else:
                repeat = chain.propose_validator(members[0], target, True)
                assert repeat["tally"] == i and repeat["applied"] is False
                result = chain.propose_validator(voter, target, True)
            applied = result["applied"]
            assert applied is (i + 1 == threshold), f"N={n}, chain vote {i + 1}"
        assert target in chain.validators
    announce(3, "registry admits at ceil(N/2), chain at floor(N/2)+1, for N in 3..9")


# -- criterion 4: bootstrap semantics -------------------------------------------------------------

def test_criterion_4_bootstrap_semantics():
    consortium = five_member_consortium(seed=400)
    # the first five members joined with zero admission votes
    assert len(consortium.chain.call_view("get_peers", {})) == 5
    methods = [tx.method for block in consortium.chain.blocks for tx in block.transactions]
    assert methods.count("bootstrap_add_peer") == 5
    assert "propose_peer" not in methods
    # the sixth member requires a voting round
    result = consortium.onboard_member("late", MemberRole.PARTICIPANT, NodeType.VALIDATOR)
    consortium.run_until_idle()
    assert result["mode"] == "vote"
    methods = [tx.method for block in consortium.chain.blocks for tx in block.transactions]
    assert "propose_peer" in methods
    assert consortium.services["maker"].peer_validate(
        consortium.services["late"].address)
    announce(4, "five members admitted vote-free, the sixth needed the voting round")


# -- criterion 5: gas-limit rule --------------------------------------------------------------------

def test_criterion_5_gas_limit_rule():
    rng = random.Random(500)
    for _ in range(10_000):
        limit = rng.randint(GAS_LIMIT_FLOOR, 30_000_000)
        used = rng.randint(0, limit)
        result = next_gas_limit(limit, used)
        step = limit // 1024
        assert abs(result - limit) <= step, "clamp exceeded limit/1024"
        if used * 3 > limit * 2:
            if step > 0:
                assert result > limit, f"should increase: limit={limit}, used={used}"
        else:
            assert result <= limit, f"should not increase: limit={limit}, used={used}"
    assert next_gas_limit(3_000_000, 2_999_999) == 3_002_929  # hand-computed clamp
    announce(5, "10^4 random (limit, used) pairs follow the direction rule and clamp")


# -- criterion 6: crypto roundtrip --------------------------------------------------------------------

def test_criterion_6_crypto_roundtrip():
    rng = random.Random(600)
    for _ in range(1000):
        key = generate_keypair(rng.randbytes(32))
        digest = rng.randbytes(32)
        v, r, s = secp256k1.sign_digest(key.secret, digest)
        x, y = secp256k1.recover_pubkey(digest, v, r, s)
        recovered = keccak256(x.to_bytes(32, "big") + y.to_bytes(32, "big"))[-20:]
        assert recovered == bytes(key.address)
    assert len(FIXED_VECTORS) == 10
    for secret, digest_hex, v, r, s in FIXED_VECTORS:
        digest = bytes.fromhex(digest_hex)
        assert secp256k1.sign_digest(secret, digest) == (v, r, s)
        assert reference_ecdsa.sign(secret, digest) == (v, r, s)
    announce(6, "10^3 sign/recover roundtrips, 10 fixed vectors byte-equal to the reference")


# -- criterion 7: content addressing -----------------------------------------------------------------

def test_criterion_7_content_addressing():
    ids = set()
    sample_payloads = []
    for i in range(100_000):
        payload = canonical_json_bytes({"wine_id": f"W{i}", "subset_version": 1,
                                        "pedigree_data": {"lot": i}})
        cid = ContentId.for_content(payload)
        assert len(cid.text) == 46 and cid.text[0] == "Q"
        ids.add(cid.text)
        if i % 40_000 == 0:
            sample_payloads.append((payload, cid))
    assert len(ids) == 100_000, "content id collision inside the corpus"
    # decoded form is 0x12 || 0x20 || sha256(content); checked on samples plus
    # every single-byte perturbation changes the id
    for payload, cid in sample_payloads:
        raw = base58_decode(cid.text)
        assert raw[:2] == b"\x12\x20"
        assert raw[2:] == hashlib.sha256(payload).digest()
        for position in range(len(payload)):
            mutated = bytearray(payload)
            mutated[position] ^= 0x01
            assert ContentId.for_content(bytes(mutated)) != cid
    announce(7, "10^5 distinct 46-char ids decode to 0x12||0x20||sha256; perturbations differ")


# -- criterion 8: proxy upgrade ------------------------------------------------------------------------

def test_criterion_8_proxy_upgrade():
    consortium = five_member_consortium(seed=800)
    tag = create_and_ship(consortium)  # created and appended under v1
    admin = consortium.services["admin"]
    maker_record_before = consortium.chain.call_view("get_record", {"wine_id": "W1"})

    with pytest.raises(AuthError):
        consortium.services["maker"].upgrade_contract(WineDataContractV2.version)

    admin.upgrade_contract(WineDataContractV2.version)
    consortium.run_until_idle()
    assert consortium.chain.runtime.proxy.current_implementation == "winedata-v2"

    # state preserved: pre-upgrade record reads identically through the proxy
    assert consortium.chain.call_view("get_record", {"wine_id": "W1"}) == maker_record_before

    # validate and append under v2
    retail = consortium.services["retail"]
    outcomes, _, session = retail.validate_record_flow(tag)
    consortium.run_until_idle()
    assert all(o.passed for o in outcomes)
    retail.accept_record_flow(tag, session)
    consortium.run_until_idle()
    assert consortium.chain.call_view("get_record", {"wine_id": "W1"})["write_count"] == 3
    assert consortium.counters_in_sync("W1", tag)

    # re-initialization of a live version is rejected
    tx_hash = admin.submit_tx("proxy_admin", "upgrade_to",
                              {"version": WineDataContractV2.version})
    consortium.run_until_idle()
    receipt = consortium.chain.query_tx(tx_hash)
    assert receipt.status == "error" and "already initialized" in receipt.error
    announce(8, "v1 state preserved across upgrade; v2 validates and appends; re-init rejected")


# -- criterion 9: end-to-end scenario --------------------------------------------------------------------

def build_end_to_end_scenario(records=20):
    members = [MemberSpec(m, r, n) for m, r, n in FIVE_MEMBERS]
    consumers = [f"buyer{i}" for i in range(records)]
    steps = [Step(2, "admin", "onboard_member",
                  {"member_id": "late", "role": "participant", "node_type": "validator"})]
    wine_ids = [f"W{i:02d}" for i in range(records)]
    for wine_id in wine_ids:
        steps.append(Step(6, "maker", "create_record",
                          {"wine_id": wine_id, "pedigree": {"lot": wine_id}}))
    for wine_id in wine_ids:
        steps.append(Step(10, "dist", "validate_record", {"wine_id": wine_id}))
    for wine_id in wine_ids:
        steps.append(Step(12, "dist", "accept_record", {"wine_id": wine_id}))
    for wine_id in wine_ids:
        steps.append(Step(16, "late", "validate_record", {"wine_id": wine_id}))
    for wine_id in wine_ids:
        steps.append(Step(18, "late", "accept_record", {"wine_id": wine_id}))
    for wine_id, buyer in zip(wine_ids, consumers):
        steps.append(Step(22, buyer, "validate_record", {"wine_id": wine_id}))
    for wine_id, buyer in zip(wine_ids, consumers):
        steps.append(Step(24, buyer, "purchase_record", {"wine_id": wine_id}))
    expectations = [
        {"kind": "sold_count", "equals": records},
        {"kind": "registry_size", "equals": 6},
        {"kind": "validator_count", "equals": 6},
        {"kind": "no_attacks"},
    ]
    expectations += [{"kind": "counters_in_sync", "wine_id": w} for w in wine_ids]
    expectations += [{"kind": "write_count", "wine_id": w, "equals": 4} for w in wine_ids]
    return Scenario(name="end_to_end", seed=900, members=members, steps=steps,
                    expectations=expectations, extras=consumers, end_time=32)


@pytest.mark.fresh_builds
def test_criterion_9_end_to_end_scenario():
    scenario = build_end_to_end_scenario(records=20)
    result = replay_determinism_check(scenario, runs=3)
    assert result["identical"], "three replays diverged"
    assert len(set(result["state_roots"])) == 1
    report = run_scenario(scenario)
    assert report.passed, report.render_text()
    sold = [w for w, info in report.records.items() if info["status"] == "sold"]
    assert len(sold) == 20
    assert report.attack_log == []
    announce(9, "20 records through 2 hops + purchase; identical state root over 3 replays")


# -- criterion 10: determinism and liveness ---------------------------------------------------------------

@pytest.mark.fresh_builds
def test_criterion_10_determinism_and_liveness():
    from dnas.scenario import bundled_scenario_names, load_scenario
    for name in bundled_scenario_names():
        result = replay_determinism_check(load_scenario(name), runs=2)
        assert result["identical"], f"{name} replays diverged"
    halted = run_scenario(load_scenario("halted_validator"))
    assert halted.passed
    assert halted.chain_height >= 20, "block production stalled with one validator down"
    announce(10, "bundled scenarios replay identically; liveness survives a halted validator")
