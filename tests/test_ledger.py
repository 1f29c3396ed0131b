import copy
import hashlib
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnas import ledger, secp256k1
from dnas.content_store import ContentId
from dnas.contracts import tally_snapshot
from dnas.errors import ConfigError, NotFoundError, PoolError, SealError
from dnas.keys import Signature, generate_keypair, hash_identifier
from dnas.ledger import (
    GAS_LIMIT_FLOOR,
    TX_GAS,
    Block,
    Chain,
    GenesisConfig,
    SignedTransaction,
    StateTree,
    next_gas_limit,
    sign_transaction,
)


@pytest.fixture
def keys():
    return [generate_keypair(bytes([i + 1]) * 32) for i in range(6)]


def make_genesis(keys, count=5, period=1, **kw):
    return GenesisConfig(
        chain_id=77,
        period=period,
        initial_validators=tuple(k.address.hex0x for k in keys[:count]),
        **kw,
    )


def bootstrapped_chain(keys):
    """Five validators; keys[1] is the winemaker, the other four participants."""
    chain = Chain(make_genesis(keys), contract_admin=keys[0].address.hex0x, bootstrap_count=5)
    admin = keys[0].address.hex0x
    for i, key in enumerate(keys[:5]):
        role = "winemaker" if i == 1 else "participant"
        tx = sign_transaction(keys[0], 77, "registry", "bootstrap_add_peer", {
            "entry": {"address": key.address.hex0x, "role": role,
                      "node_id": f"enode-{i}", "member_id": f"m{i}", "joined_at": 0},
        }, nonce=chain.next_nonce(admin))
        chain.submit_transaction(tx)
    chain.seal_block(chain.sealer_at_offset(0), timestamp=1)
    return chain


@pytest.fixture
def chain(keys):
    return bootstrapped_chain(keys)


def rebuilt_root(chain):
    """The state root built from scratch over every key the chain commits to."""
    return StateTree(chain.state_bytes, set(chain.state_keys())).root()


# -- genesis ---------------------------------------------------------------------

def test_genesis_five_sealers(chain, keys):
    assert chain.query_block(0).number == 0
    assert len(chain.validators) == 5


def test_genesis_period_zero_rejected(keys):
    with pytest.raises(ConfigError):
        Chain(make_genesis(keys, period=0), contract_admin=keys[0].address.hex0x)


def test_genesis_empty_validators_rejected(keys):
    with pytest.raises(ConfigError):
        Chain(GenesisConfig(chain_id=1, period=1, initial_validators=()),
              contract_admin=keys[0].address.hex0x)


# -- gas limit rule -----------------------------------------------------------------

def test_gas_rule_increase_direction():
    # limits above the floor, so only the rule acts
    assert next_gas_limit(30_000, 21_000) > 30_000


def test_gas_rule_decrease_at_two_thirds():
    assert next_gas_limit(30_000, 20_000) <= 30_000


def test_gas_rule_clamp_hand_oracle():
    # used just below limit: target is far above, so the step clamps at
    # 3_000_000 // 1024 == 2929
    assert next_gas_limit(3_000_000, 2_999_999) == 3_000_000 + 2929


def test_gas_rule_floor():
    assert next_gas_limit(GAS_LIMIT_FLOOR, 0) == GAS_LIMIT_FLOOR


@given(limit=st.integers(min_value=GAS_LIMIT_FLOOR, max_value=30_000_000),
       used_fraction=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=300, deadline=None)
def test_gas_rule_direction_property(limit, used_fraction):
    used = int(limit * used_fraction)
    result = next_gas_limit(limit, used)
    step = limit // 1024
    assert abs(result - limit) <= step
    if used * 3 > limit * 2 and step > 0:
        assert result > limit
    elif used * 3 <= limit * 2:
        assert result <= limit


# -- transaction pool ------------------------------------------------------------------

def peer_tx(key, chain, nonce=None, member="mx"):
    nonce = chain.next_nonce(key.address.hex0x) if nonce is None else nonce
    return sign_transaction(key, 77, "registry", "propose_peer", {
        "entry": {"address": "0x" + "ab" * 20, "role": "participant",
                  "node_id": "enode-x", "member_id": member, "joined_at": 0},
        "add": True,
    }, nonce=nonce)


def test_valid_tx_grows_pool(chain, keys):
    chain.submit_transaction(peer_tx(keys[0], chain))
    assert len(chain.pool) == 1


def test_duplicate_tx_rejected(chain, keys):
    tx = peer_tx(keys[0], chain)
    chain.submit_transaction(tx)
    with pytest.raises(PoolError):
        chain.submit_transaction(tx)


def test_nonce_gap_rejected(chain, keys):
    with pytest.raises(PoolError):
        chain.submit_transaction(peer_tx(keys[0], chain,
                                         nonce=chain.next_nonce(keys[0].address.hex0x) + 2))


def test_tampered_sender_rejected(chain, keys):
    tx = peer_tx(keys[0], chain)
    forged = SignedTransaction(
        sender=keys[1].address.hex0x, target=tx.target, method=tx.method,
        params=tx.params, nonce=chain.next_nonce(keys[1].address.hex0x),
        chain_id=tx.chain_id, signature=tx.signature)
    with pytest.raises(PoolError):
        chain.submit_transaction(forged)


def _signed_by_other(tx, key):
    """``tx`` unchanged but for a signature by ``key`` over its digest."""
    v, r, s = secp256k1.sign_digest(key.secret, tx.digest)
    return replace(tx, signature=Signature(v=v, r=r, s=s))


def test_known_sender_signed_by_another_key_rejected(chain, keys, recoveries):
    # the fixture's bootstrap transactions taught the pool the admin's key
    with pytest.raises(PoolError, match="^signature does not recover to the sender$"):
        chain.submit_transaction(_signed_by_other(peer_tx(keys[0], chain), keys[2]))
    assert not recoveries  # the known key refused it without recovering
    chain.submit_transaction(peer_tx(keys[0], chain))
    assert not recoveries


def test_outsider_keys_are_checked_but_not_stored(chain, keys, recoveries):
    # non-members' transactions are admitted as before (the registry refuses
    # them when they execute), but the directory keeps only vouched-for keys
    outsiders = [generate_keypair(bytes([0x60 + i]) * 32) for i in range(4)]
    replica = Chain(chain.genesis, contract_admin=keys[0].address.hex0x, bootstrap_count=5)
    replica.apply_block(chain.blocks[1])
    stored = set(chain.runtime.signers._tables)
    assert stored == {keys[0].address.hex0x}
    start, hashes = len(recoveries), []
    for _ in range(2):
        for key in outsiders:
            tx = peer_tx(key, chain)
            hashes.append(chain.submit_transaction(tx))
            assert chain.next_nonce(key.address.hex0x) == tx.nonce + 1
    assert len(recoveries) - start == 2 * len(outsiders)  # each check recovered afresh
    assert set(chain.runtime.signers._tables) == stored
    block = chain.seal_block(chain.sealer_at_offset(0), chain.head.timestamp + 1)
    assert [tx.tx_hash for tx in block.transactions] == hashes
    assert {chain.query_tx(h).error for h in hashes} == {
        "only registered members vote on admission"}
    replica.apply_block(block)
    assert replica.head.state_root == chain.head.state_root
    assert set(replica.runtime.signers._tables) == stored
    member = keys[2].address.hex0x
    chain.submit_transaction(peer_tx(keys[2], chain))
    assert set(chain.runtime.signers._tables) == stored | {member}


def test_tx_hash_cached_without_changing_equality(chain, keys):
    tx, twin = peer_tx(keys[0], chain), peer_tx(keys[0], chain)
    assert tx.tx_hash is tx.tx_hash
    assert tx.tx_hash == "0x" + hashlib.sha256(tx.digest + tx.signature.to_bytes()).hexdigest()
    assert tx == twin  # only tx has cached its hash
    moved = replace(tx, nonce=tx.nonce + 1)
    assert moved.tx_hash != tx.tx_hash
    assert moved.tx_hash == "0x" + hashlib.sha256(
        moved.digest + moved.signature.to_bytes()).hexdigest()


def test_admitting_a_hashed_transaction_encodes_it_no_more(chain, keys, monkeypatch):
    tx = peer_tx(keys[0], chain)
    assert tx.tx_hash  # hashing reads the signing digest once
    calls = []
    original = SignedTransaction.signing_digest
    monkeypatch.setattr(SignedTransaction, "signing_digest",
                        staticmethod(lambda *args: calls.append(args) or original(*args)))
    chain.submit_transaction(tx)
    assert tx in chain.pool
    assert calls == []


def test_signing_and_admitting_encodes_a_transaction_once(chain, keys, monkeypatch):
    calls = []
    original = SignedTransaction.signing_digest
    monkeypatch.setattr(SignedTransaction, "signing_digest",
                        staticmethod(lambda *args: calls.append(args) or original(*args)))
    tx = peer_tx(keys[0], chain)
    chain.submit_transaction(tx)
    assert tx in chain.pool
    assert len(calls) == 1
    moved = replace(tx, nonce=tx.nonce + 1)
    assert moved.digest != tx.digest
    assert moved.digest == original(moved.sender, moved.target, moved.method, moved.params,
                                    moved.nonce, moved.chain_id)


# -- sealing --------------------------------------------------------------------------

def test_empty_block_sealed_when_period_elapses(chain):
    height = chain.height
    block = chain.seal_block(chain.sealer_at_offset(0), timestamp=chain.head.timestamp + 1)
    assert block.number == height + 1
    assert block.transactions == []


def test_sealing_an_empty_block_encodes_one_header(chain, monkeypatch):
    calls = []
    original = ledger.canonical_json_bytes
    monkeypatch.setattr(ledger, "canonical_json_bytes",
                        lambda value: calls.append(value) or original(value))
    for _ in range(5):
        chain.seal_block(chain.sealer_at_offset(0), timestamp=chain.head.timestamp + 1)
    assert len(calls) == 5  # each seal hashes its parent's header, and nothing else


def test_pending_txs_included_fifo(chain, keys):
    hashes = []
    for member in ("p1", "p2", "p3"):
        tx = peer_tx(keys[0], chain, member=member)
        hashes.append(chain.submit_transaction(tx))
    block = chain.seal_block(chain.sealer_at_offset(0), timestamp=chain.head.timestamp + 1)
    assert [t.tx_hash for t in block.transactions] == hashes
    assert block.gas_used == 3 * TX_GAS


POOL_KEYS = [generate_keypair(bytes([i + 1]) * 32) for i in range(4)]
POOL_SENDERS = [key.address.hex0x for key in POOL_KEYS[1:]]
PARTIAL_SEALS = [0, 1, 2, 0, 1, 2, "seal", 0, "seal"]  # both blocks leave some pooled


@given(ops=st.lists(st.one_of(st.sampled_from(range(len(POOL_SENDERS))), st.just("seal")),
                    max_size=24))
@settings(max_examples=40, deadline=None)
@example(ops=PARTIAL_SEALS)
def test_pool_nonces_and_fifo_blocks_property(ops):
    # a gas limit of about three transactions keeps the pool deeper than a block
    chain = Chain(make_genesis(POOL_KEYS, count=1, gas_limit=3 * TX_GAS),
                  contract_admin=POOL_KEYS[0].address.hex0x)

    partial_blocks = []

    def seal():
        head = chain.head
        fits = next_gas_limit(head.gas_limit, head.gas_used) // TX_GAS
        before = list(chain.pool)
        block = chain.seal_block(chain.sealer_at_offset(0), head.timestamp + 1)
        assert block.transactions == before[:fits]
        assert chain.pool == before[fits:]
        partial_blocks.append(len(before) > fits)
        for tx in block.transactions:
            with pytest.raises(PoolError, match="duplicate"):
                chain.submit_transaction(tx)

    for op in ops:
        if op == "seal":
            seal()
        else:
            key = POOL_KEYS[op + 1]
            chain.submit_transaction(sign_transaction(
                key, 77, "registry", "set_consensus_level", {"level": 2},
                nonce=chain.next_nonce(key.address.hex0x)))
        for sender in POOL_SENDERS:
            pooled = sum(1 for tx in chain.pool if tx.sender == sender)
            assert chain.next_nonce(sender) == chain.account_nonce(sender) + pooled
    while chain.pool:
        seal()
    for sender in POOL_SENDERS:
        assert chain.next_nonce(sender) == chain.account_nonce(sender)
    if ops == PARTIAL_SEALS:
        assert partial_blocks[:2] == [True, True]


def test_out_of_turn_sealer_rejected(chain):
    with pytest.raises(SealError):
        chain.seal_block(chain.sealer_at_offset(1), timestamp=chain.head.timestamp + 1)


def test_out_of_turn_allowed_after_grace(chain):
    sealer = chain.sealer_at_offset(1)
    block = chain.seal_block(sealer, timestamp=chain.head.timestamp + 2)
    assert block.sealer == sealer


def test_too_early_seal_rejected(chain):
    with pytest.raises(SealError):
        chain.seal_block(chain.sealer_at_offset(0), timestamp=chain.head.timestamp)


def test_non_validator_cannot_seal(chain, keys):
    with pytest.raises(SealError):
        chain.seal_block(keys[5].address.hex0x, timestamp=chain.head.timestamp + 10)


def test_round_robin_order_accepted(chain):
    # three consecutive in-turn seals rotate through the validator list
    sealers = []
    for _ in range(3):
        block = chain.seal_block(chain.sealer_at_offset(0), chain.head.timestamp + 1)
        sealers.append(block.sealer)
    n = len(chain.validators)
    expected = [chain.validators[(chain.height - 3 + i) % n] for i in range(3)]
    assert sealers == expected


def test_chain_linkage_gapless(chain):
    for _ in range(4):
        chain.seal_block(chain.sealer_at_offset(0), chain.head.timestamp + 1)
    for parent, child in zip(chain.blocks, chain.blocks[1:]):
        assert child.parent_hash == parent.hash
        assert child.number == parent.number + 1


# -- validator voting -----------------------------------------------------------------

def test_validator_admission_threshold_n4(keys):
    genesis = make_genesis(keys, count=4)
    chain = Chain(genesis, contract_admin=keys[0].address.hex0x)
    candidate = keys[5].address.hex0x
    assert not chain.propose_validator(keys[0].address.hex0x, candidate, True)["applied"]
    assert not chain.propose_validator(keys[1].address.hex0x, candidate, True)["applied"]
    third = chain.propose_validator(keys[2].address.hex0x, candidate, True)
    assert third["applied"] and third["required"] == 3  # 4 // 2 + 1
    assert candidate in chain.validators


def test_same_voter_three_times_no_admission(keys):
    chain = Chain(make_genesis(keys, count=4), contract_admin=keys[0].address.hex0x)
    candidate = keys[5].address.hex0x
    for _ in range(3):
        result = chain.propose_validator(keys[0].address.hex0x, candidate, True)
        assert result["tally"] == 1 and not result["applied"]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_threshold_is_floor_half_plus_one(n):
    keys = [generate_keypair(bytes([i + 10]) * 32) for i in range(n + 1)]
    chain = Chain(GenesisConfig(chain_id=1, period=1,
                                initial_validators=tuple(k.address.hex0x for k in keys[:n])),
                  contract_admin=keys[0].address.hex0x)
    candidate = keys[n].address.hex0x
    threshold = n // 2 + 1
    for i in range(threshold):
        result = chain.propose_validator(keys[i].address.hex0x, candidate, True)
        assert result["applied"] is (i == threshold - 1)


def test_removed_validator_cannot_seal(keys):
    chain = Chain(make_genesis(keys, count=5), contract_admin=keys[0].address.hex0x)
    target = keys[4].address.hex0x
    for i in range(3):  # floor(5/2)+1 = 3
        chain.propose_validator(keys[i].address.hex0x, target, False)
    assert target not in chain.validators
    with pytest.raises(SealError):
        chain.seal_block(target, timestamp=chain.head.timestamp + 100)


def test_non_validator_vote_rejected(keys):
    chain = Chain(make_genesis(keys, count=3), contract_admin=keys[0].address.hex0x)
    with pytest.raises(SealError):
        chain.propose_validator(keys[5].address.hex0x, keys[4].address.hex0x, True)


def test_tallies_cleared_after_membership_change(keys):
    chain = Chain(make_genesis(keys, count=4), contract_admin=keys[0].address.hex0x)
    candidate = keys[5].address.hex0x
    for i in range(3):
        chain.propose_validator(keys[i].address.hex0x, candidate, True)
    assert (candidate, "add") not in chain.tallies
    assert (candidate, "remove") not in chain.tallies


# -- queries and replication --------------------------------------------------------------

def test_query_block_and_receipt(chain, keys):
    tx = peer_tx(keys[0], chain)
    tx_hash = chain.submit_transaction(tx)
    block = chain.seal_block(chain.sealer_at_offset(0), chain.head.timestamp + 1)
    receipt = chain.query_tx(tx_hash)
    assert receipt.block_number == block.number
    assert receipt.status == "ok"
    assert chain.query_block(block.number).hash == block.hash


def test_query_future_height_not_found(chain):
    with pytest.raises(NotFoundError):
        chain.query_block(chain.height + 1)
    with pytest.raises(NotFoundError):
        chain.query_tx("0x" + "ee" * 32)


def test_failed_tx_gets_error_receipt(chain, keys):
    # participant attempting a winemaker-only create
    cid = ContentId.for_content(b"x").text
    tx = sign_transaction(keys[2], 77, "proxy", "create_wine_record", {
        "wine_id": "W1", "wine_data_hash": cid,
        "new_public_address": keys[2].address.hex0x,
        "tag_id": hash_identifier("t"), "device_id": hash_identifier("d"),
    }, nonce=chain.next_nonce(keys[2].address.hex0x))
    tx_hash = chain.submit_transaction(tx)
    chain.seal_block(chain.sealer_at_offset(0), chain.head.timestamp + 1)
    receipt = chain.query_tx(tx_hash)
    assert receipt.status == "error"
    assert receipt.events == []


def test_replica_reaches_identical_state_root(chain, keys):
    replica = Chain(chain.genesis, contract_admin=keys[0].address.hex0x, bootstrap_count=5)
    # drive some traffic: a vote, a create, empty blocks
    chain.propose_validator(keys[0].address.hex0x, keys[5].address.hex0x, True)
    cid = ContentId.for_content(b"subset").text
    tx = sign_transaction(keys[1], 77, "proxy", "create_wine_record", {
        "wine_id": "W-replica", "wine_data_hash": cid,
        "new_public_address": keys[1].address.hex0x,
        "tag_id": hash_identifier("t"), "device_id": hash_identifier("d"),
    }, nonce=chain.next_nonce(keys[1].address.hex0x))
    chain.submit_transaction(tx)
    chain.seal_block(chain.sealer_at_offset(0), chain.head.timestamp + 1)
    chain.seal_block(chain.sealer_at_offset(0), chain.head.timestamp + 1)
    for block in chain.blocks[1:]:
        replica.apply_block(block)
    assert replica.head.state_root == chain.head.state_root
    assert replica.validators == chain.validators


def test_replica_rejects_tampered_state_root(chain, keys):
    replica = Chain(chain.genesis, contract_admin=keys[0].address.hex0x, bootstrap_count=5)
    block = chain.blocks[1]
    bad = Block(number=block.number, parent_hash=block.parent_hash, sealer=block.sealer,
                timestamp=block.timestamp, gas_limit=block.gas_limit,
                gas_used=block.gas_used, transactions=block.transactions,
                state_root="0x" + "00" * 32, votes=block.votes)
    with pytest.raises(SealError):
        replica.apply_block(bad)


_CREATE = {"wine_id": "W1", "wine_data_hash": ContentId.for_content(b"x").text,
           "new_public_address": "0x" + "11" * 20,
           "tag_id": hash_identifier("t"), "device_id": hash_identifier("d")}


@pytest.mark.parametrize("sender, target, method, params", [
    (0, "registry", "bootstrap_add_peer", {"entry": {"bogus": 1}}),
    (1, "proxy", "create_wine_record", {"wine_id": "W1"}),
    (0, "registry", "set_consensus_level", {"level": 2, "extra": 1}),
    (0, "proxy_admin", "upgrade_to", {"version": "winedata-v2", "extra": 1}),
    # identifiers that are not 64 lowercase hex characters: non-hex, upper case, short
    (1, "proxy", "create_wine_record", {**_CREATE, "tag_id": "zz" * 32}),
    (1, "proxy", "create_wine_record", {**_CREATE, "device_id": hash_identifier("d").upper()}),
    (1, "proxy", "create_wine_record", {**_CREATE, "tag_id": hash_identifier("t")[:63]}),
    # custodians validate_signature could never match: upper-case hex, not an address
    (1, "proxy", "create_wine_record", {**_CREATE, "new_public_address": "0x" + "AB" * 20}),
    (1, "proxy", "create_wine_record", {**_CREATE, "new_public_address": "not-an-address"}),
])
def test_malformed_transaction_seals_an_error_receipt(chain, keys, sender, target, method,
                                                      params):
    good = chain.submit_transaction(peer_tx(keys[0], chain))
    key = keys[sender]
    bad = chain.submit_transaction(sign_transaction(
        key, 77, target, method, params, nonce=chain.next_nonce(key.address.hex0x)))
    height = chain.height
    block = chain.seal_block(chain.sealer_at_offset(0), chain.head.timestamp + 1)
    assert chain.height == height + 1 == block.number
    assert not chain.pool
    assert chain.query_tx(good).status == "ok"
    receipt = chain.query_tx(bad)
    assert receipt.status == "error" and receipt.block_number == block.number
    assert block.state_root == rebuilt_root(chain)
    assert not chain.runtime.proxy.records


def test_append_with_a_malformed_custodian_seals_an_error_receipt(chain, keys):
    maker = keys[1].address.hex0x
    create = chain.submit_transaction(sign_transaction(
        keys[1], 77, "proxy", "create_wine_record", _CREATE, nonce=chain.next_nonce(maker)))
    append = chain.submit_transaction(sign_transaction(
        keys[1], 77, "proxy", "append_wine_record", {
            "wine_id": "W1", "new_wine_data_hash": ContentId.for_content(b"y").text,
            "new_public_address": "0x" + "AB" * 20,
            "tag_id": _CREATE["tag_id"], "device_id": _CREATE["device_id"],
        }, nonce=chain.next_nonce(maker)))
    chain.seal_block(chain.sealer_at_offset(0), chain.head.timestamp + 1)
    assert chain.query_tx(create).status == "ok"
    assert chain.query_tx(append).status == "error"
    entry = chain.runtime.proxy.records["W1"]
    assert (entry.write_count, entry.pub_addr) == (1, _CREATE["new_public_address"])


def _resigned(block, keys, chain_id=77, nonce_shift=0):
    tx = block.transactions[0]
    return replace(block, transactions=[sign_transaction(
        keys[0], chain_id, tx.target, tx.method, tx.params, tx.nonce + nonce_shift)])


@pytest.mark.parametrize("forge, message", [
    (lambda block, keys: replace(block, transactions=[replace(
        block.transactions[0], sender=keys[2].address.hex0x, nonce=0)]),
     "does not recover to the sender"),
    (lambda block, keys: _resigned(block, keys, nonce_shift=1), "out of order"),
    (lambda block, keys: _resigned(block, keys, chain_id=78), "wrong chain id"),
    (lambda block, keys: replace(block, gas_used=0), "gas used"),
    (lambda block, keys: replace(block, transactions=[
        _signed_by_other(block.transactions[0], keys[2])]),
     "^signature does not recover to the sender$"),
], ids=["forged-sender", "skipped-nonce", "other-chain", "gas-used", "known-sender-other-key"])
def test_replica_rejects_unverifiable_transactions(chain, keys, forge, message, recoveries):
    replica = Chain(chain.genesis, contract_admin=keys[0].address.hex0x, bootstrap_count=5)
    replica.apply_block(chain.blocks[1])  # teaches the replica the admin's key
    chain.submit_transaction(peer_tx(keys[0], chain))
    block = chain.seal_block(chain.sealer_at_offset(0), chain.head.timestamp + 1)
    before = (replica.height, dict(replica.nonces), replica.head.state_root)
    with pytest.raises(SealError, match=message):
        replica.apply_block(forge(block, keys))
    assert (replica.height, dict(replica.nonces), replica.head.state_root) == before
    assert rebuilt_root(replica) == before[2]
    calls = len(recoveries)
    replica.apply_block(block)
    assert len(recoveries) == calls  # verified against the admin's known key
    assert replica.head.state_root == chain.head.state_root


@pytest.mark.parametrize("tamper, error, message", [
    (lambda block: replace(block, state_root="0x" + "00" * 32), SealError,
     "^replayed state root differs"),
    (lambda block: replace(block, votes=[*block.votes, {"voter": block.sealer}]), KeyError,
     "candidate"),
], ids=["zeroed-root", "malformed-vote"])
def test_refused_block_leaves_the_replica_as_it_was(chain, keys, tamper, error, message):
    # block 2 carries a header vote and a create, block 1 the registry bootstrap
    chain.propose_validator(keys[0].address.hex0x, keys[5].address.hex0x, True)
    chain.submit_transaction(sign_transaction(
        keys[1], 77, "proxy", "create_wine_record", _CREATE,
        nonce=chain.next_nonce(keys[1].address.hex0x)))
    chain.seal_block(chain.sealer_at_offset(0), chain.head.timestamp + 1)
    replica = Chain(chain.genesis, contract_admin=keys[0].address.hex0x, bootstrap_count=5)

    def state(c):
        return (c.height, c.head.hash, dict(c.nonces), list(c.validators),
                tally_snapshot(c.tallies), c.runtime.registry.snapshot(),
                {w: vars(e) for w, e in c.runtime.proxy.records.items()},
                set(c.receipts), c.head.state_root)

    for block in chain.blocks[1:]:
        assert block.transactions
        before = copy.deepcopy(state(replica))
        with pytest.raises(error, match=message):
            replica.apply_block(tamper(block))
        assert state(replica) == before
        assert rebuilt_root(replica) == before[-1]
        replica.apply_block(block)
        assert replica.head.hash == block.hash
        assert replica.head.state_root == rebuilt_root(replica)
    assert replica.head.state_root == chain.head.state_root


@pytest.mark.parametrize("forge, message", [
    (lambda block: replace(block, gas_limit=block.gas_limit + 1), "adjustment rule"),
    (lambda block: replace(block, timestamp=block.timestamp - 1), "may not seal before"),
], ids=["gas-limit", "schedule"])
def test_rejected_block_leaves_no_header_votes(chain, keys, forge, message):
    replica = Chain(chain.genesis, contract_admin=keys[0].address.hex0x, bootstrap_count=5)
    replica.apply_block(chain.blocks[1])
    chain.propose_validator(keys[0].address.hex0x, keys[5].address.hex0x, True)
    block = chain.seal_block(chain.sealer_at_offset(0), chain.head.timestamp + 1)
    assert block.votes
    before = (list(replica.validators), {k: set(v) for k, v in replica.tallies.items()},
              replica.head.state_root)
    with pytest.raises(SealError, match=message):
        replica.apply_block(forge(block))
    assert (replica.validators, replica.tallies, replica.head.state_root) == before
    assert rebuilt_root(replica) == before[2]
    replica.apply_block(block)
    assert replica.head.state_root == chain.head.state_root
    assert replica.tallies == chain.tallies


# -- state root completeness --------------------------------------------------------------

def test_validator_vote_in_an_empty_block_changes_the_root(chain, keys):
    before = chain.head.state_root
    chain.propose_validator(keys[0].address.hex0x, keys[5].address.hex0x, True)
    block = chain.seal_block(chain.sealer_at_offset(0), chain.head.timestamp + 1)
    assert block.transactions == [] and block.votes
    assert block.state_root != before
    assert block.state_root == rebuilt_root(chain)
    idle = chain.seal_block(chain.sealer_at_offset(0), chain.head.timestamp + 1)
    assert idle.state_root == block.state_root


def test_failed_call_changes_the_root_through_the_sender_nonce(chain, keys):
    before = chain.head.state_root
    sender = keys[2].address.hex0x  # a participant may not create records
    tx = chain.submit_transaction(sign_transaction(keys[2], 77, "proxy", "create_wine_record", {
        "wine_id": "W1", "wine_data_hash": ContentId.for_content(b"x").text,
        "new_public_address": sender, "tag_id": hash_identifier("t"),
        "device_id": hash_identifier("d"),
    }, nonce=chain.next_nonce(sender)))
    block = chain.seal_block(chain.sealer_at_offset(0), chain.head.timestamp + 1)
    assert chain.query_tx(tx).status == "error"
    assert chain.state_bytes("nonce:" + sender) == b"1"
    assert not any(key.startswith("wine:") for key in chain.state_keys())
    assert block.state_root != before
    assert block.state_root == rebuilt_root(chain)


STATE_KEYS = [generate_keypair(bytes([i + 1]) * 32) for i in range(6)]
_TAG, _DEVICE = hash_identifier("tag"), hash_identifier("device")


STATE_OPS = ["create", "append", "read", "fail", "registry_vote", "validator_vote", "idle"]


@given(ops=st.lists(st.tuples(st.sampled_from(STATE_OPS), st.integers(0, 4), st.booleans()),
                    max_size=16))
@example(ops=[("create", 0, True), ("read", 0, True), ("append", 0, True), ("idle", 0, True)])
@settings(max_examples=40, deadline=None)
def test_incremental_root_equals_rebuilt_root_property(ops):
    keys = STATE_KEYS
    chain = bootstrapped_chain(keys)
    candidate = keys[5].address.hex0x

    def submit(key, target, method, params):
        chain.submit_transaction(sign_transaction(
            key, 77, target, method, params, nonce=chain.next_nonce(key.address.hex0x)))

    def seal():
        chain.seal_block(chain.sealer_at_offset(0), chain.head.timestamp + 1)
        assert chain.head.state_root == rebuilt_root(chain)

    for step, (op, i, seal_after) in enumerate(ops):
        wine = {"wine_id": f"W{i % 2}", "new_public_address": keys[1].address.hex0x,
                "tag_id": _TAG, "device_id": _DEVICE}
        cid = ContentId.for_content(f"{i}-{step}".encode()).text
        if op in ("create", "fail"):  # a participant's create fails on its role
            submit(keys[1 if op == "create" else 2], "proxy", "create_wine_record",
                   {**wine, "wine_data_hash": cid})
        elif op == "append":
            submit(keys[2], "proxy", "append_wine_record", {**wine, "new_wine_data_hash": cid})
        elif op == "read":
            submit(keys[3], "proxy", "increment_read_count", {"wine_id": wine["wine_id"]})
        elif op == "registry_vote":
            submit(keys[i], "registry", "propose_peer", {"entry": {
                "address": candidate, "role": "participant", "node_id": "enode-5",
                "member_id": "m5", "joined_at": 0}, "add": True})
        elif op == "validator_vote":
            try:
                chain.propose_validator(keys[i].address.hex0x, candidate, True)
            except SealError:
                pass  # already a validator
        if seal_after:
            seal()
    seal()
    replica = Chain(chain.genesis, contract_admin=keys[0].address.hex0x, bootstrap_count=5)
    for block in chain.blocks[1:]:
        replica.apply_block(block)  # checks each block's root
    assert replica.head.state_root == chain.head.state_root == rebuilt_root(replica)
