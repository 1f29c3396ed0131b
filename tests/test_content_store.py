import hashlib

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from dnas import content_store
from dnas.content_store import (
    ContentId,
    PrivateNetwork,
    base58_decode,
    base58_encode,
)
from dnas.errors import AuthError, EncodingError, MembershipError, NotFoundError

from conftest import holders, members

# base58btc reference strings (bitcoin alphabet)
HELLO_WORLD_B58 = "StV1DL6CwTryKyV"

# CIDv0 of the empty blob: base58(0x1220 || sha256("")), sha256("") being
# the published e3b0c442... digest.
EMPTY_CID = "QmdfTbBqBPQ7VNxZEYEj14VmRuZBkqFbiwReogJgS1zR1n"


@pytest.fixture
def network():
    net = PrivateNetwork(admin="admin")
    for node in ("n1", "n2", "n3"):
        net.add_member("admin", node)
    return net


def test_base58_reference_strings():
    assert base58_encode(b"hello world") == HELLO_WORLD_B58
    assert base58_decode(HELLO_WORLD_B58) == b"hello world"
    assert base58_encode(b"\x00\x00hello world") == "11" + HELLO_WORLD_B58
    assert base58_decode("11" + HELLO_WORLD_B58) == b"\x00\x00hello world"


@given(st.binary(min_size=0, max_size=80))
@settings(max_examples=200, deadline=None)
def test_base58_roundtrip(data):
    assert base58_decode(base58_encode(data)) == data


def test_empty_content_id_matches_published_vector(network):
    cid = network.add("n1", b"")
    assert cid.text == EMPTY_CID
    assert cid.digest == hashlib.sha256(b"").digest()
    assert cid.digest.hex().startswith("e3b0c442")


def test_content_id_shape():
    cid = ContentId.for_content(b"some wine record subset")
    assert len(cid.text) == 46
    assert cid.text.startswith("Qm")
    raw = base58_decode(cid.text)
    assert raw[:2] == b"\x12\x20"
    assert raw[2:] == hashlib.sha256(b"some wine record subset").digest()


def test_content_id_rejects_garbage():
    with pytest.raises(EncodingError):
        ContentId("Qmnot-base58-at-all!!")
    with pytest.raises(EncodingError):
        ContentId(base58_encode(b"\x11\x20" + bytes(32)))
    # the right shape, but a 33-byte digest length in the multihash header
    mislabelled = base58_encode(b"\x12\x21" + bytes(32))
    assert len(mislabelled) == 46 and mislabelled.startswith("Qm")
    with pytest.raises(EncodingError, match="not a sha2-256 multihash"):
        ContentId(mislabelled)


@given(st.binary(max_size=300))
@settings(max_examples=200, deadline=None)
def test_content_id_keeps_the_raw_digest(data):
    cid = ContentId.for_content(data)
    parsed = ContentId(cid.text)
    assert parsed == cid
    assert parsed.digest == cid.digest == hashlib.sha256(data).digest()
    assert cid.matches(data)
    assert not cid.matches(data + b"x")


def test_add_encodes_once_and_decodes_nothing(network, count_calls):
    calls = count_calls([(PrivateNetwork, "add")],
                        [("base58_encode", base58_encode), ("base58_decode", base58_decode)])
    cid = network.add("n1", b"wine record subset")
    assert calls == {("base58_encode", "add"): 1}
    assert network.get("n2", cid) == b"wine record subset"


def test_over_long_content_id_is_refused_before_decoding(monkeypatch):
    monkeypatch.setattr(content_store, "base58_decode", None)  # any decode would raise TypeError
    for text in ("Qm" + "z" * 99_998, "z" * 46, "Qm" + "z" * 43):
        with pytest.raises(EncodingError):
            ContentId(text)


def test_add_idempotent(network):
    first = network.add("n1", b"block")
    second = network.add("n1", b"block")
    assert first == second
    assert holders(network, first) == {"n1"}


def test_distinct_content_distinct_id(network):
    assert network.add("n1", b"block-a") != network.add("n1", b"block-b")


def test_add_requires_membership(network):
    with pytest.raises(MembershipError):
        network.add("outsider", b"data")


def test_get_replicates_onto_reader(network):
    cid = network.add("n1", b"shared data")
    assert holders(network, cid) == {"n1"}
    assert network.get("n2", cid) == b"shared data"
    assert holders(network, cid) == {"n1", "n2"}


def test_get_unknown_id(network):
    with pytest.raises(NotFoundError):
        network.get("n1", ContentId.for_content(b"never added"))


def test_get_requires_membership(network):
    cid = network.add("n1", b"data")
    with pytest.raises(MembershipError):
        network.get("outsider", cid)


def test_membership_admin_only(network):
    with pytest.raises(AuthError):
        network.add_member("n1", "n4")
    with pytest.raises(AuthError):
        network.remove_member("n1", "n2", "n3")


def test_removed_member_loses_access(network):
    cid = network.add("n1", b"data")
    network.remove_member("admin", "n2", "n3")
    with pytest.raises(MembershipError):
        network.get("n2", cid)


def test_the_heir_serves_the_sole_copy(network):
    cid = network.add("n1", b"single copy")
    network.remove_member("admin", "n1", "n2")
    assert members(network) == {"n2", "n3"}
    assert holders(network, cid) == {"n2"}
    assert network.get("n3", cid) == b"single copy"


def test_remove_with_replica_still_readable(network):
    cid = network.add("n1", b"replicated")
    network.get("n2", cid)
    network.remove_member("admin", "n1", "n2")
    assert network.get("n3", cid) == b"replicated"


def test_the_heir_takes_no_tampered_copy_and_mends_its_own(network):
    kept, tampered = network.add("n1", b"kept"), network.add("n1", b"pristine")
    network._nodes["n1"].blocks[tampered.text] = b"mutated!"
    network._nodes["n2"].blocks[kept.text] = b"mutated!"
    network.remove_member("admin", "n1", "n2")
    assert network._nodes["n2"].blocks == {kept.text: b"kept"}
    with pytest.raises(NotFoundError):
        network.get("n3", tampered)


@pytest.mark.parametrize("heir", ["n1", "outsider"])
def test_a_removal_without_a_member_heir_changes_nothing(network, heir):
    cid = network.add("n1", b"single copy")
    with pytest.raises(MembershipError):
        network.remove_member("admin", "n1", heir)
    assert members(network) == {"n1", "n2", "n3"}
    assert network.get("n2", cid) == b"single copy"


def test_a_node_stores_only_bytes_that_match_their_id(network):
    node = network._nodes["n1"]
    with pytest.raises(EncodingError, match="does not match its identifier"):
        node.store(ContentId.for_content(b"pristine"), b"mutated!")
    assert node.blocks == {}


def test_tampered_block_treated_as_not_found(network):
    cid = network.add("n1", b"pristine")
    network._nodes["n1"].blocks[cid.text] = b"mutated!"
    with pytest.raises(NotFoundError):
        network.get("n2", cid)


def test_tampered_block_with_honest_replica(network):
    cid = network.add("n1", b"pristine")
    network.get("n2", cid)
    network._nodes["n1"].blocks[cid.text] = b"mutated!"
    assert network.get("n3", cid) == b"pristine"


def test_single_byte_perturbation_changes_id():
    base = b"wine record subset bytes"
    base_id = ContentId.for_content(base)
    for i in range(len(base)):
        mutated = bytearray(base)
        mutated[i] ^= 0x01
        assert ContentId.for_content(bytes(mutated)) != base_id


def test_holder_count_never_decreases_except_gc_or_removal(network):
    cid = network.add("n1", b"monotone")
    counts = [len(holders(network, cid))]
    network.get("n2", cid)
    counts.append(len(holders(network, cid)))
    network.get("n3", cid)
    counts.append(len(holders(network, cid)))
    assert counts == sorted(counts)


PAYLOADS = [b"block-a", b"block-b", b"block-c"]
_node = st.integers(min_value=0, max_value=3)
_payload = st.integers(min_value=0, max_value=len(PAYLOADS) - 1)
_step = st.one_of(
    st.tuples(st.sampled_from(["add", "get", "tamper"]), _node, _payload),
    st.tuples(st.just("remove_member"), _node, _node),  # the node, then its heir
    st.tuples(st.just("add_member"), _node, st.just(0)),
)


@seed(18)
@settings(max_examples=150, deadline=None)
@given(node_count=st.integers(min_value=3, max_value=4), steps=st.lists(_step, max_size=30))
def test_holders_and_reads_follow_a_model_of_the_nodes(node_count, steps):
    """Each node's blocks are modelled apart from the network: holders are
    the members storing a block, a removed node's heir takes its intact
    blocks, and a read returns the original bytes unless no remaining member
    holds an intact copy."""
    network = PrivateNetwork(admin="admin")
    names = [f"n{i}" for i in range(node_count)]
    blocks = {}
    for name in names:
        network.add_member("admin", name)
        blocks[name] = {}
    cids = [ContentId.for_content(p) for p in PAYLOADS]
    payload_of = {cid.text: payload for cid, payload in zip(cids, PAYLOADS)}

    def intact(name, i):
        return blocks[name].get(cids[i].text) == PAYLOADS[i]

    def model_get(name, i):
        if intact(name, i):
            return PAYLOADS[i]
        if not any(intact(holder, i) for holder in blocks):
            return NotFoundError
        blocks[name][cids[i].text] = PAYLOADS[i]
        return PAYLOADS[i]

    for op, k, i in steps:
        name, cid = names[k % node_count], cids[i % len(cids)]
        heir = names[i % node_count]
        call = {
            "add": lambda: network.add(name, PAYLOADS[i]),
            "get": lambda: network.get(name, cid),
            "remove_member": lambda: network.remove_member("admin", name, heir),
        }.get(op)
        if op == "add_member":
            network.add_member("admin", name)
            blocks.setdefault(name, {})
        elif name not in blocks:
            if call is not None:
                with pytest.raises(NotFoundError if op == "remove_member" else MembershipError):
                    call()
        elif op == "add":
            assert call() == cid
            blocks[name][cid.text] = PAYLOADS[i]
        elif op == "get":
            expected = model_get(name, i)
            if expected is NotFoundError:
                with pytest.raises(NotFoundError):
                    call()
            else:
                assert call() == expected
        elif op == "tamper":
            if cid.text in blocks[name]:
                blocks[name][cid.text] = network._nodes[name].blocks[cid.text] = b"tampered"
        elif heir == name or heir not in blocks:
            with pytest.raises(MembershipError):
                call()
        else:
            call()
            blocks[heir].update((text, content) for text, content in blocks.pop(name).items()
                                if payload_of[text] == content)
        assert members(network) == set(blocks)
        for c in cids:
            assert holders(network, c) == {n for n in blocks if c.text in blocks[n]}
