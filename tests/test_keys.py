import hashlib
import random

import pytest

from dnas import keccak, keys, secp256k1
from dnas.errors import EncodingError, InvalidKeyError, MacError, RecoveryError
from dnas.keccak import keccak256
from dnas.keys import (
    Address,
    KeyPair,
    Signature,
    SignerDirectory,
    create_keystore,
    decrypt_keystore,
    derive_address,
    encode_tag_payload,
    generate_keypair,
    hash_identifier,
    prefixed_digest,
    sign_tag_payload,
)

import reference_ecdsa as ref


def recover_signer(digest, sig):
    """Signer address of a canonical signature over ``digest``, by recovery alone."""
    x, y = secp256k1.recover_pubkey(digest, sig.v, sig.r, sig.s)
    return derive_address(x.to_bytes(32, "big") + y.to_bytes(32, "big"))


# Published address vectors for the smallest secret keys.
ADDRESS_OF_SK1 = "0x7e5f4552091a69125d5dfcb7b8c2659029395bdf"
ADDRESS_OF_SK3 = "0x6813eb9362372eef6200f3b1dbc3f819671cba69"


def test_known_address_vectors():
    assert generate_keypair((1).to_bytes(32, "big")).address.hex0x == ADDRESS_OF_SK1
    assert generate_keypair((3).to_bytes(32, "big")).address.hex0x == ADDRESS_OF_SK3


def test_seeded_keypair_deterministic():
    seed = bytes(range(32))
    assert generate_keypair(seed) == generate_keypair(seed)


def test_address_is_keccak_suffix():
    kp = generate_keypair(b"\x07" * 32)
    assert kp.address == keccak256(kp.public_bytes)[-20:]


def test_derive_address_rejects_off_curve_point():
    with pytest.raises(InvalidKeyError, match="not a point on the curve"):
        derive_address(b"\x01" * 64)
    with pytest.raises(InvalidKeyError, match="must be 64 bytes, got 63"):
        derive_address(b"\x01" * 63)


def test_address_distinctness_over_ten_thousand_keys():
    # 10^4 consecutive secret keys via incremental point addition; the
    # addresses must all differ.
    start = int.from_bytes(keccak256(b"collision sweep"), "big") % secp256k1.N
    point = secp256k1.multiply_generator(start)
    g = (secp256k1.GX, secp256k1.GY)
    seen = set()
    for _ in range(10_000):
        seen.add(keccak256(point[0].to_bytes(32, "big") + point[1].to_bytes(32, "big"))[-20:])
        point = ref.point_add(point, g)
    assert len(seen) == 10_000


def test_encode_tag_payload_layout():
    tag, dev = hash_identifier("T1"), hash_identifier("D1")
    encoded = encode_tag_payload("W1", tag, dev)
    assert encoded == b"\x00\x00\x00\x02W1" + bytes.fromhex(tag) + bytes.fromhex(dev)


def test_encode_tag_payload_ambiguity_resistance():
    assert (encode_tag_payload("A", hash_identifier("BC"), hash_identifier("D"))
            != encode_tag_payload("AB", hash_identifier("C"), hash_identifier("D")))


def test_encode_tag_payload_rejects_empty_field():
    tag, dev = hash_identifier("T"), hash_identifier("D")
    for args in (("", tag, dev), ("W", "", dev), ("W", tag, "")):
        with pytest.raises(EncodingError):
            encode_tag_payload(*args)


_T = hash_identifier("T")


@pytest.mark.parametrize("malformed", [
    _T.upper(), _T[:30] + " " + _T[30:46] + " " + _T[46:62], _T[:63], _T + "0", "zz" * 32,
], ids=["upper-case", "space-inside", "63-chars", "65-chars", "non-hex"])
def test_encode_tag_payload_refuses_an_identifier_that_is_not_a_lowercase_hash(malformed):
    # both 64 characters long, the first two pass bytes.fromhex: upper case
    # would share the lowercase id's digest
    good = hash_identifier("D")
    for args in (("W", malformed, good), ("W", good, malformed)):
        with pytest.raises(EncodingError, match="64 lowercase hex characters"):
            encode_tag_payload(*args)
    with pytest.raises(EncodingError, match="wine_id must be non-empty"):
        prefixed_digest("", good, good)


def test_prefixed_digest_against_keccak_oracle():
    # Recompute with one direct keccak call over the documented layout.
    tag, dev = hash_identifier("T1"), hash_identifier("D1")
    payload = b"\x00\x00\x00\x02W1" + bytes.fromhex(tag) + bytes.fromhex(dev)
    expected = keccak256(b"\x19Ethereum Signed Message:\n70" + payload)
    assert prefixed_digest("W1", hash_identifier("T1"), hash_identifier("D1")) == expected


def test_prefixed_digest_is_eip191_personal_sign_over_the_bench_wine_id():
    tag, dev = hash_identifier("tag-uid"), hash_identifier("device")
    # the identifiers are SHA-256 digests; only the EIP-191 digest is Keccak
    expected = keccak256(b"\x19Ethereum Signed Message:\n75" + bytes.fromhex("00000007")
                         + b"B000123" + hashlib.sha256(b"tag-uid").digest()
                         + hashlib.sha256(b"device").digest())
    assert prefixed_digest("B000123", tag, dev) == expected


@pytest.mark.parametrize("wine_id_bytes, payload_bytes, permutations",
                         [(7, 75, 1), (38, 106, 1), (39, 107, 2)])
def test_prefixed_digest_is_one_keccak_block_up_to_a_38_byte_wine_id(
        monkeypatch, wine_id_bytes, payload_bytes, permutations):
    tag, dev = hash_identifier("T"), hash_identifier("D")
    wine_id = "W" * wine_id_bytes
    assert len(encode_tag_payload(wine_id, tag, dev)) == payload_bytes
    calls = []
    original = keccak._keccak_f
    monkeypatch.setattr(keccak, "_keccak_f", lambda *args: calls.append(1) or original(*args))
    digest = prefixed_digest(wine_id, tag, dev)
    assert len(calls) == permutations
    monkeypatch.undo()
    assert digest == keccak256(keys.SIGN_PREFIX + str(payload_bytes).encode()
                               + encode_tag_payload(wine_id, tag, dev))


def test_prefixed_digest_sensitivity():
    base = prefixed_digest("W1", hash_identifier("T1"), hash_identifier("D1"))
    assert prefixed_digest("W1", hash_identifier("T2"), hash_identifier("D1")) != base
    assert prefixed_digest("W1", hash_identifier("T1"), hash_identifier("D1")) == base


def test_sign_recover_roundtrip():
    kp = generate_keypair(b"\x21" * 32)
    digest = prefixed_digest("WINE-7", hash_identifier("tag-uid-7"),
                             hash_identifier("device-7"))
    sig = sign_tag_payload(digest, kp)
    assert recover_signer(digest, sig) == kp.address


def test_recovered_signer_mismatch_for_other_key():
    kp_a = generate_keypair(b"\x21" * 32)
    kp_b = generate_keypair(b"\x22" * 32)
    digest = prefixed_digest("WINE-7", hash_identifier("tag-uid-7"),
                             hash_identifier("device-7"))
    sig = sign_tag_payload(digest, kp_a)
    assert recover_signer(digest, sig) != kp_b.address


def test_signature_byte_roundtrip():
    kp = generate_keypair(b"\x33" * 32)
    sig = sign_tag_payload(
        prefixed_digest("W", hash_identifier("T"), hash_identifier("D")), kp)
    assert Signature.from_bytes(sig.to_bytes()) == sig
    assert len(sig.to_bytes()) == 65
    with pytest.raises(RecoveryError, match="must be 65 bytes, got 64"):
        Signature.from_bytes(sig.to_bytes()[:64])


def test_roundtrip_property_over_random_keys():
    rng = random.Random(404)
    for _ in range(20):
        kp = generate_keypair(rng.randbytes(32))
        wine, tag, dev = f"W{rng.random()}", f"T{rng.random()}", f"D{rng.random()}"
        digest = prefixed_digest(wine, hash_identifier(tag), hash_identifier(dev))
        assert recover_signer(digest, sign_tag_payload(digest, kp)) == kp.address


def test_hash_identifier_is_sha256_hex():
    # FIPS 180-4's one-block example, and a UTF-8 identifier
    assert hash_identifier("abc") == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
    assert hash_identifier("tag-ü") == hashlib.sha256("tag-ü".encode("utf-8")).hexdigest()


def test_keystore_roundtrip():
    kp = generate_keypair(b"\x44" * 32)
    ks = create_keystore(kp, "correct horse", random.Random(4))
    assert decrypt_keystore(ks, "correct horse") == kp
    assert ks["address"] == kp.address.hex0x


def test_keystore_wrong_password_is_mac_error():
    kp = generate_keypair(b"\x44" * 32)
    ks = create_keystore(kp, "correct horse", random.Random(4))
    with pytest.raises(MacError, match="MAC mismatch"):
        decrypt_keystore(ks, "battery staple")


def test_keystore_tamper_detected():
    kp = generate_keypair(b"\x45" * 32)
    ks = create_keystore(kp, "pw", random.Random(4))
    flipped = bytearray(bytes.fromhex(ks["ciphertext"]))
    flipped[0] ^= 0xFF
    ks["ciphertext"] = flipped.hex()
    with pytest.raises(MacError, match="MAC mismatch"):
        decrypt_keystore(ks, "pw")


def test_keystore_under_another_address_is_refused():
    # the MAC covers the ciphertext only, so the address has its own check
    ks = create_keystore(generate_keypair(b"\x45" * 32), "pw", random.Random(4))
    ks["address"] = generate_keypair(b"\x46" * 32).address.hex0x
    with pytest.raises(MacError, match="does not match the keystore address"):
        decrypt_keystore(ks, "pw")


def test_keystore_json_fields():
    kp = generate_keypair(b"\x46" * 32)
    ks = create_keystore(kp, "pw", random.Random(4))
    assert set(ks) == {"address", "ciphertext", "kdf_params", "mac"}
    assert decrypt_keystore(ks, "pw") == kp


def test_address_length_enforced():
    with pytest.raises(InvalidKeyError):
        Address(b"\x00" * 19)


def test_keypair_public_matches_scalar():
    kp = KeyPair(secret=5, public=secp256k1.multiply_generator(5))
    assert derive_address(kp.public_bytes) == kp.address


def test_address_cached_without_changing_equality():
    kp = generate_keypair(b"\x47" * 32)
    twin = generate_keypair(b"\x47" * 32)
    assert kp.address is kp.address
    assert kp.address == derive_address(kp.public_bytes)
    # only kp has cached its address; equality and hashing see the fields alone
    assert kp == twin and hash(kp) == hash(twin)
    assert {kp, twin} == {twin}


# -- signer directory ------------------------------------------------------------

def _recover_and_compare(digest, sig, address):
    try:
        return recover_signer(digest, sig).hex0x == address
    except RecoveryError:
        return None  # the directory raises too


def test_known_signer_is_verified_without_recovery(recoveries):
    kp = generate_keypair(b"\x51" * 32)
    directory = SignerDirectory()
    first = prefixed_digest("W1", hash_identifier("T1"), hash_identifier("D1"))
    assert directory.signed_by(first, sign_tag_payload(first, kp), kp.address.hex0x)
    assert len(recoveries) == 1
    second = prefixed_digest("W2", hash_identifier("T2"), hash_identifier("D2"))
    assert directory.signed_by(second, sign_tag_payload(second, kp), kp.address.hex0x)
    assert len(recoveries) == 1


def test_failed_check_adds_no_entry(recoveries, monkeypatch):
    verified = []
    monkeypatch.setattr(secp256k1, "verify", lambda *args: verified.append(args))
    kp, other = generate_keypair(b"\x52" * 32), generate_keypair(b"\x53" * 32)
    directory = SignerDirectory()
    digest = prefixed_digest("W1", hash_identifier("T1"), hash_identifier("D1"))
    sig = sign_tag_payload(digest, kp)
    assert directory.signed_by(digest, sig, other.address.hex0x) is False
    with pytest.raises(RecoveryError, match="s above half order"):
        directory.signed_by(digest, Signature(v=sig.v, r=sig.r, s=secp256k1.N - sig.s),
                            kp.address.hex0x)
    # neither address is known yet: each genuine check recovers, none verifies
    for key in (kp, other):
        calls = len(recoveries)
        assert directory.signed_by(digest, sign_tag_payload(digest, key),
                                   key.address.hex0x)
        assert len(recoveries) == calls + 1
    assert verified == []


def test_known_address_refuses_without_recovery(recoveries):
    kp, other = generate_keypair(b"\x56" * 32), generate_keypair(b"\x57" * 32)
    directory = SignerDirectory()
    digest = prefixed_digest("W1", hash_identifier("T1"), hash_identifier("D1"))
    assert directory.signed_by(digest, sign_tag_payload(digest, kp), kp.address.hex0x)
    calls = len(recoveries)
    assert directory.signed_by(digest, sign_tag_payload(digest, other),
                               kp.address.hex0x) is False
    with pytest.raises(RecoveryError, match="s above half order"):
        sig = sign_tag_payload(digest, other)
        directory.signed_by(digest, Signature(v=sig.v, r=sig.r, s=secp256k1.N - sig.s),
                            kp.address.hex0x)
    assert len(recoveries) == calls


def test_signature_naming_no_key_refused_for_a_known_address():
    # s*R == z*G: recovery meets the point at infinity and raises; for a
    # known address the directory verifies instead and simply refuses.
    kp = generate_keypair(b"\x58" * 32)
    directory = SignerDirectory()
    digest = prefixed_digest("W1", hash_identifier("T1"), hash_identifier("D1"))
    assert directory.signed_by(digest, sign_tag_payload(digest, kp), kp.address.hex0x)
    n = secp256k1.N
    x, y = secp256k1.multiply_generator(5)
    s = int.from_bytes(digest, "big") * pow(5, -1, n) % n
    if s > secp256k1.HALF_N:
        s, y = n - s, secp256k1.P - y
    sig = Signature(v=27 + (y & 1), r=x, s=s)
    with pytest.raises(RecoveryError, match="point at infinity"):
        SignerDirectory().signed_by(digest, sig, kp.address.hex0x)
    assert directory.signed_by(digest, sig, kp.address.hex0x) is False


def test_directory_agrees_with_recover_and_compare():
    rng = random.Random(77)
    kp, other = generate_keypair(b"\x54" * 32), generate_keypair(b"\x55" * 32)
    address = kp.address.hex0x
    directory = SignerDirectory()
    first = prefixed_digest("W", hash_identifier("T"), hash_identifier("D"))
    assert directory.signed_by(first, sign_tag_payload(first, kp), address)
    for i in range(30):
        digest = prefixed_digest(f"W{i}", hash_identifier("T"), hash_identifier("D"))
        good = sign_tag_payload(digest, kp)
        for sig in (good, sign_tag_payload(digest, other),
                    Signature(v=55 - good.v, r=good.r, s=good.s),
                    Signature(v=good.v, r=good.r, s=secp256k1.N - good.s),
                    Signature.from_bytes(rng.randbytes(65))):
            expected = _recover_and_compare(digest, sig, address)
            if expected is None:
                with pytest.raises(RecoveryError):
                    directory.signed_by(digest, sig, address)
            else:
                assert directory.signed_by(digest, sig, address) is expected
