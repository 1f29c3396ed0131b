import json
import random

import pytest

from dnas.encoding import canonical_json_bytes
from dnas.errors import CapacityError, TagLockedError, TagStateError
from dnas.keys import (
    Signature,
    generate_keypair,
    hash_identifier,
    prefixed_digest,
    sign_tag_payload,
)
from dnas.tags import (
    TAG_MEMORY_BYTES,
    NfcTag,
    counterfeit_copy,
)


@pytest.fixture
def signature():
    kp = generate_keypair(b"\x11" * 32)
    return sign_tag_payload(
        prefixed_digest("W1", hash_identifier("tag"), hash_identifier("dev")), kp)


@pytest.fixture
def tag():
    return NfcTag(uid=bytes(range(7)))


@pytest.fixture
def randbytes():
    return random.Random(7).randbytes


def test_fresh_tag_write_then_read(tag, signature):
    tag.write("W1", signature, write_counter=1)
    out = tag.read()
    assert out.wine_id == "W1"
    assert out.signature == signature
    assert out.write_counter == 1
    assert out.tag_id == bytes(range(7)).hex()


def test_write_counter_never_decreases(tag, signature):
    tag.write("W1", signature, write_counter=3)
    tag.write("W1", signature, write_counter=1)
    assert tag.write_counter == 3


def test_read_counter_increments_per_read(tag, signature):
    tag.write("W1", signature, write_counter=1)
    first = tag.read()
    second = tag.read()
    assert (first.read_counter, second.read_counter) == (1, 2)
    assert tag.read_counter == 2


def test_oversize_payload_rejected(tag, signature):
    with pytest.raises(CapacityError):
        tag.write("W" * 900, signature, write_counter=1)
    assert tag.memory == b""


def test_max_legal_payload_fits(signature):
    # serialized payload must stay within 888 bytes for realistic identifiers
    tag = NfcTag(uid=bytes(7))
    tag.write("W-" + "x" * 120, signature, write_counter=10**6)
    assert len(tag.memory) <= TAG_MEMORY_BYTES


def test_protection_blocks_unauthenticated_access(tag, signature, randbytes):
    tag.write("W1", signature, write_counter=1)
    password = tag.enable_protection(randbytes)
    assert len(password) == 4
    with pytest.raises(TagLockedError):
        tag.read()
    with pytest.raises(TagLockedError):
        tag.read(password=b"\x00\x00\x00\x00" if password != b"\x00\x00\x00\x00" else b"\x01\x00\x00\x00")
    assert tag.read_counter == 0  # failed reads do not bump the counter
    assert tag.read(password=password).wine_id == "W1"


def test_wrong_password_write_leaves_payload(tag, signature, randbytes):
    tag.write("W1", signature, write_counter=1)
    password = tag.enable_protection(randbytes)
    other = sign_tag_payload(prefixed_digest("W2", hash_identifier("t"), hash_identifier("d")),
                             generate_keypair(b"\x12" * 32))
    with pytest.raises(TagLockedError):
        tag.write("W2", other, write_counter=2, password=None)
    assert tag.read(password=password).wine_id == "W1"


def test_enable_protection_twice(tag, randbytes):
    tag.enable_protection(randbytes)
    with pytest.raises(TagStateError):
        tag.enable_protection(randbytes)


def test_password_always_four_bytes():
    rng = random.Random(8)
    for _ in range(1000):
        tag = NfcTag(uid=rng.randbytes(7))
        assert len(tag.enable_protection(randbytes=rng.randbytes)) == 4


def test_read_before_any_write(tag):
    for check in (tag.peek, tag.read, tag.peek_wine_id):
        with pytest.raises(TagStateError, match="^tag has never been written$"):
            check()
    assert tag.read_counter == 0


def test_uid_is_seven_bytes():
    with pytest.raises(TagStateError):
        NfcTag(uid=bytes(8))
    assert len(bytes.fromhex(NfcTag(uid=bytes(7)).tag_id)) == 7


def test_counterfeit_copy_differs_in_uid(tag, signature):
    rng = random.Random(9)
    tag.write("W1", signature, write_counter=1)
    password = tag.enable_protection(randbytes=rng.randbytes)
    fake = counterfeit_copy(tag, randbytes=rng.randbytes)
    assert fake.tag_id != tag.tag_id
    assert fake.read(password=password).wine_id == "W1"
    assert fake.write_counter == tag.write_counter


def test_signature_roundtrip_through_tag(tag):
    kp = generate_keypair(b"\x13" * 32)
    sig = sign_tag_payload(
        prefixed_digest("WINE", hash_identifier("TAG"), hash_identifier("DEV")), kp)
    tag.write("WINE", sig, write_counter=1)
    out = tag.read()
    assert isinstance(out.signature, Signature)
    assert out.signature.to_bytes() == sig.to_bytes()


@pytest.mark.parametrize("change, named", [
    ({"extra": 1}, "W1"),
    ({"wine_id": ""}, ""),
    ({"wine_id": 7}, None),
    ({"signature": None}, "W1"),
    ({"write_counter": -1}, "W1"),
    ({"write_counter": True}, "W1"),
    ({"write_counter": 1.0}, "W1"),
], ids=["extra_key", "empty_wine_id", "integer_wine_id", "no_signature", "negative_counter",
        "boolean_counter", "float_counter"])
def test_only_the_exact_payload_parses(tag, signature, change, named):
    """``peek`` reads only an object with exactly a non-empty string wine id,
    130 lowercase hex characters of signature and a non-negative integer
    counter. ``peek_wine_id`` returns a string wine id, the empty one
    included, so that a scan still names its record."""
    tag.write("W1", signature, write_counter=1)
    tag.memory = canonical_json_bytes({**json.loads(tag.memory), **change})
    with pytest.raises(TagStateError, match="tag payload does not parse"):
        tag.peek()
    if named is not None:
        assert tag.peek_wine_id() == named
    else:
        with pytest.raises(TagStateError, match="tag payload does not parse"):
            tag.peek_wine_id()


def test_an_upper_case_signature_does_not_parse(tag, signature):
    tag.write("W1", signature, write_counter=1)
    tag.memory = tag.memory.replace(signature.hex.encode(), signature.hex.upper().encode())
    with pytest.raises(TagStateError, match="130 lowercase hex"):
        tag.read()
    assert tag.read_counter == 0
