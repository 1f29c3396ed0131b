"""Account key material: addresses, tag-payload signatures, keystores.

Addresses are the last 20 bytes of Keccak-256 over the uncompressed 64-byte
public key. Tag payloads are signed over a prefixed digest so the signature
is recognisable as chain-specific; the payload encoding length-prefixes each
field to rule out concatenation ambiguity.
"""

import hashlib
import hmac
import json
import secrets
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

from . import secp256k1
from .errors import EncodingError, InvalidKeyError, MacError, RecoveryError
from .keccak import keccak256

SIGN_PREFIX = b"\x19Ethereum Signed Message:\n32"

_KDF_N = 2**14
_KDF_R = 8
_KDF_P = 1


class Address(bytes):
    """20-byte account identifier."""

    def __new__(cls, value: bytes) -> "Address":
        if len(value) != 20:
            raise InvalidKeyError(f"address must be 20 bytes, got {len(value)}")
        return super().__new__(cls, value)

    @classmethod
    def from_hex(cls, text: str) -> "Address":
        if text.startswith("0x"):
            text = text[2:]
        return cls(bytes.fromhex(text))

    @property
    def hex0x(self) -> str:
        return "0x" + self.hex()

    def __repr__(self) -> str:
        return f"Address({self.hex0x})"


@dataclass(frozen=True)
class KeyPair:
    """secp256k1 secret scalar and its public curve point."""

    secret: int
    public: Tuple[int, int]

    @property
    def secret_bytes(self) -> bytes:
        return self.secret.to_bytes(32, "big")

    @property
    def public_bytes(self) -> bytes:
        return _point_bytes(self.public)

    @cached_property
    def address(self) -> Address:
        return derive_address(self.public_bytes)


@dataclass(frozen=True)
class Signature:
    """Recoverable ECDSA signature; v is 27/28, r and s are curve scalars."""

    v: int
    r: int
    s: int

    def to_bytes(self) -> bytes:
        return self.r.to_bytes(32, "big") + self.s.to_bytes(32, "big") + bytes([self.v])

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Signature":
        if len(raw) != 65:
            raise RecoveryError(f"signature must be 65 bytes, got {len(raw)}")
        return cls(v=raw[64], r=int.from_bytes(raw[:32], "big"), s=int.from_bytes(raw[32:64], "big"))

    @property
    def hex(self) -> str:
        return self.to_bytes().hex()


def generate_keypair(seed: Optional[bytes] = None) -> KeyPair:
    """New key pair; deterministic when a 32-byte seed is supplied."""
    if seed is not None:
        secret = secp256k1.scalar_from_seed(seed)
    else:
        secret = secp256k1.random_scalar()
    return KeyPair(secret=secret, public=secp256k1.multiply_generator(secret))


def _point_bytes(point: Tuple[int, int]) -> bytes:
    """The uncompressed 64-byte form of a public key, x then y."""
    x, y = point
    return x.to_bytes(32, "big") + y.to_bytes(32, "big")


def derive_address(public_key: bytes) -> Address:
    """Last 20 bytes of Keccak-256 over the uncompressed 64-byte public key."""
    if len(public_key) != 64:
        raise InvalidKeyError(f"public key must be 64 bytes, got {len(public_key)}")
    point = (int.from_bytes(public_key[:32], "big"), int.from_bytes(public_key[32:], "big"))
    if not secp256k1.is_on_curve(point):
        raise InvalidKeyError("public key is not a point on the curve")
    return Address(keccak256(public_key)[-20:])


def encode_tag_payload(wine_id: str, tag_id: str, device_id: str) -> bytes:
    """Length-prefixed UTF-8 concatenation of the three identifiers."""
    out = bytearray()
    for name, field in (("wine_id", wine_id), ("tag_id", tag_id), ("device_id", device_id)):
        if not field:
            raise EncodingError(f"{name} must be non-empty")
        raw = field.encode("utf-8")
        out += len(raw).to_bytes(4, "big")
        out += raw
    return bytes(out)


def prefixed_digest(wine_id: str, tag_id: str, device_id: str) -> bytes:
    """Keccak-256 over the chain-specific prefix and the payload hash."""
    inner = keccak256(encode_tag_payload(wine_id, tag_id, device_id))
    return keccak256(SIGN_PREFIX + inner)


def sign_tag_payload(wine_id: str, tag_id: str, device_id: str, key: KeyPair) -> Signature:
    v, r, s = secp256k1.sign_digest(key.secret, prefixed_digest(wine_id, tag_id, device_id))
    return Signature(v=v, r=r, s=s)


def recover_signer(digest: bytes, sig: Signature) -> Address:
    """Signer address of a canonical signature over ``digest``."""
    return derive_address(_point_bytes(secp256k1.recover_pubkey(digest, sig.v, sig.r, sig.s)))


class SignerDirectory:
    """Public keys of the signers one node has checked, by 0x-hex address.

    A key enters only when a recovery from a signature matched the address
    being checked; the address is a Keccak commitment to the key, so the key
    is as sound as one read from the chain. Later checks for that address
    verify against its fixed-window table instead of recovering. An entry is
    about 1,376 affine points (roughly 250 KB), so only addresses the chain
    vouches for are kept: a registry member or the registry administrator
    sending a transaction, and the custodian a wine record names. A key
    whose signature checked out is kept also when its transaction or block
    was then refused for another reason (its nonce, gas limit, schedule or
    state root).
    """

    def __init__(self):
        self._tables: Dict[str, secp256k1.KeyTable] = {}

    def signed_by(self, digest: bytes, sig: Signature, address: str, keep: bool = True) -> bool:
        """Whether ``sig`` over ``digest`` recovers to ``address``; raises
        RecoveryError for a signature that recovery refuses before its scalar
        multiply, and for an unknown address, also for one that recovers to
        no key. ``keep`` says whether the chain vouches for ``address``, so
        that a key recovered for it may be stored."""
        tables = self._tables.get(address)
        if tables is not None:
            return secp256k1.verify(digest, sig.v, sig.r, sig.s, tables)
        point = secp256k1.recover_pubkey(digest, sig.v, sig.r, sig.s)
        if derive_address(_point_bytes(point)).hex0x != address:
            return False
        if keep:
            self._tables[address] = secp256k1.key_tables(point)
        return True


def hash_identifier(identifier: str) -> str:
    """Hex Keccak-256 of an identifier, the form kept in on-chain mappings."""
    return keccak256(identifier.encode("utf-8")).hex()


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(key + nonce + counter.to_bytes(4, "big")).digest()
        counter += 1
    return bytes(out[:length])


def create_keystore(key: KeyPair, password: str, rng=None) -> dict:
    """Encrypt the secret key under a password; returns the keystore record.

    scrypt (n=2^14) derives a 32-byte key: first half encrypts via a hash
    counter-mode keystream, second half keys the Keccak MAC over the
    ciphertext.
    """
    randbytes = rng.randbytes if rng is not None else secrets.token_bytes
    salt = randbytes(16)
    nonce = randbytes(16)
    dk = hashlib.scrypt(password.encode("utf-8"), salt=salt, n=_KDF_N, r=_KDF_R,
                        p=_KDF_P, dklen=32, maxmem=64 * 1024 * 1024)
    ciphertext = bytes(a ^ b for a, b in zip(key.secret_bytes, _keystream(dk[:16], nonce, 32)))
    mac = keccak256(dk[16:] + ciphertext)
    return {
        "address": key.address.hex0x,
        "ciphertext": ciphertext.hex(),
        "kdf_params": {"salt": salt.hex(), "nonce": nonce.hex(),
                       "n": _KDF_N, "r": _KDF_R, "p": _KDF_P},
        "mac": mac.hex(),
    }


def decrypt_keystore(keystore: dict, password: str) -> KeyPair:
    """Recover the key pair; raises MacError on a wrong password."""
    params = keystore["kdf_params"]
    dk = hashlib.scrypt(password.encode("utf-8"), salt=bytes.fromhex(params["salt"]),
                        n=params["n"], r=params["r"], p=params["p"], dklen=32,
                        maxmem=64 * 1024 * 1024)
    ciphertext = bytes.fromhex(keystore["ciphertext"])
    mac = keccak256(dk[16:] + ciphertext)
    if not hmac.compare_digest(mac.hex(), keystore["mac"]):
        raise MacError("keystore MAC mismatch: wrong password or corrupted file")
    secret_bytes = bytes(a ^ b for a, b in zip(
        ciphertext, _keystream(dk[:16], bytes.fromhex(params["nonce"]), 32)))
    pair = KeyPair(secret=int.from_bytes(secret_bytes, "big"),
                   public=secp256k1.multiply_generator(int.from_bytes(secret_bytes, "big")))
    if pair.address.hex0x != keystore["address"]:
        raise MacError("decrypted key does not match the keystore address")
    return pair


def keystore_to_json(keystore: dict) -> str:
    return json.dumps(keystore, sort_keys=True)


def keystore_from_json(text: str) -> dict:
    return json.loads(text)
