"""Account key material: addresses, tag-payload signatures, keystores.

Addresses are the last 20 bytes of Keccak-256 over the uncompressed 64-byte
public key. A tag payload is signed in EIP-191's ``personal_sign`` form,
Keccak-256 over ``SIGN_PREFIX``, the payload's decimal length and the
payload, so the signature is recognisable as chain-specific. The payload is
the length-prefixed wine id and the raw 32-byte SHA-256 of the tag uid and of
the device id, fixed-width fields that need no prefix; a wine id up to 38
UTF-8 bytes keeps the digest one Keccak block. Keccak is used only where an
Ethereum format requires it; the identifier hash, like every other hash the
chain commits to, is SHA-256.
"""

import hashlib
import hmac
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Tuple

from . import secp256k1
from .errors import EncodingError, InvalidKeyError, MacError, RecoveryError
from .keccak import keccak256

SIGN_PREFIX = b"\x19Ethereum Signed Message:\n"
_LOWER_HEX = "0123456789abcdef"
WINE_ID_BYTES = 64  # JSON-escaped on a tag, 6 bytes to 1, it leaves room for a 300-digit counter

_KDF_N = 2**14
_KDF_R = 8
_KDF_P = 1


class Address(bytes):
    """20-byte account identifier."""

    def __new__(cls, value: bytes) -> "Address":
        if len(value) != 20:
            raise InvalidKeyError(f"address must be 20 bytes, got {len(value)}")
        return super().__new__(cls, value)

    @cached_property
    def hex0x(self) -> str:
        return "0x" + self.hex()


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


def generate_keypair(seed: bytes) -> KeyPair:
    """The key pair a 32-byte seed determines."""
    secret = secp256k1.scalar_from_seed(seed)
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
    """The 4-byte big-endian length and UTF-8 bytes of ``wine_id``, then the
    raw 32-byte SHA-256 of the tag uid and of the device id (``hash_identifier``)."""
    raw = wine_id.encode("utf-8")
    if not raw:
        raise EncodingError("wine_id must be non-empty")
    if len(raw) > WINE_ID_BYTES:
        raise EncodingError(f"wine_id is {len(raw)} UTF-8 bytes; at most {WINE_ID_BYTES}")
    out = bytearray(len(raw).to_bytes(4, "big") + raw)
    for name, field in (("tag_id", tag_id), ("device_id", device_id)):
        # bytes.fromhex alone accepts whitespace and upper case, which would
        # give two distinct on-chain strings one digest
        if len(field) != 64 or field.strip(_LOWER_HEX):
            raise EncodingError(f"{name} must be 64 lowercase hex characters")
        out += bytes.fromhex(field)
    return bytes(out)


def prefixed_digest(wine_id: str, tag_id: str, device_id: str) -> bytes:
    """EIP-191 ``personal_sign`` digest: Keccak-256 over the prefix, the
    payload's decimal length and the payload."""
    payload = encode_tag_payload(wine_id, tag_id, device_id)
    return keccak256(SIGN_PREFIX + str(len(payload)).encode() + payload)


def sign_tag_payload(digest: bytes, key: KeyPair) -> Signature:
    """Signs a wine's tag digest, ``prefixed_digest`` of its identifier
    triple. The caller passes the digest so that a node derives it once per
    wine (``SignerDirectory.tag_digest``); every signature is fresh."""
    v, r, s = secp256k1.sign_digest(key.secret, digest)
    return Signature(v=v, r=r, s=s)


class SignerDirectory:
    """Public keys of the signers one node has checked, by 0x-hex address.

    A key enters only when a recovery from a signature matched the address
    being checked; the address is a Keccak commitment to the key, so the key
    is as sound as one read from the chain. Later checks for that address
    verify against its fixed-window table instead of recovering. An entry is
    4,224 packed points (roughly 440 KB), so only addresses the chain
    vouches for are kept: a registry member or the registry administrator
    sending a transaction, and the custodian a wine record names. A key
    whose signature checked out is kept also when its transaction or block
    was then refused for another reason (its nonce, gas limit, schedule or
    state root).

    Each ``signed_by`` call checks the signature in full. Pool admission and
    replica checks call it for every transaction, whose signatures never
    repeat. Tag bindings do repeat: every write and scan of a wine names the
    same tag uid and device id, and a consumer scan checks the same tag
    signature until the wine's next write. So the directory also keeps two
    memos of derived values, never committed state, each a pure function of
    its key: each wine's tag digest, which the node's writes sign and its
    scans check (``tag_digest``), and the last tag check ``signed_by``
    accepted per wine (``tag_signed_by``). Only an accepting scan fills the
    second: a write's fresh tag signature is first checked at the wine's
    next scan.
    """

    def __init__(self):
        self._tables: Dict[str, secp256k1.KeyTable] = {}
        self._tag_digests: Dict[Tuple[str, str, str], bytes] = {}
        # wine_id -> the last (custodian, digest, signature) that signed_by accepted
        self._accepted_tags: Dict[str, Tuple[str, bytes, Signature]] = {}

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

    def tag_digest(self, wine_id: str, tag_id: str, device_id: str) -> bytes:
        """``prefixed_digest`` of a wine's (wine_id, hashed tag, hashed
        device), memoised by the exact triple: the digest a write signs and a
        scan checks, derived once per node."""
        ids = (wine_id, tag_id, device_id)
        digest = self._tag_digests.get(ids)
        if digest is None:
            digest = self._tag_digests[ids] = prefixed_digest(*ids)
        return digest

    def tag_signed_by(self, wine_id: str, tag_id: str, device_id: str, sig: Signature,
                      address: str) -> bool:
        """Whether ``sig`` over the wine's tag digest is ``address``'s; False
        for a signature recovery refuses. A check equal in every value to the
        last one ``signed_by`` accepted for this wine (address, digest,
        signature) is accepted again without ``verify``, a pure function of
        those values; any other check, say a new custodian or signature, goes
        to ``signed_by``."""
        digest = self.tag_digest(wine_id, tag_id, device_id)
        check = (address, digest, sig)
        if self._accepted_tags.get(wine_id) == check:
            return True
        try:
            accepted = self.signed_by(digest, sig, address)
        except RecoveryError:
            return False
        if accepted:
            self._accepted_tags[wine_id] = check
        return accepted


def hash_identifier(identifier: str) -> str:
    """Hex SHA-256 of an identifier, the form kept in on-chain mappings."""
    try:
        return hashlib.sha256(identifier.encode("utf-8")).hexdigest()
    except UnicodeEncodeError as exc:  # a lone surrogate
        raise EncodingError(f"identifier is not valid UTF-8: {exc}") from exc


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(key + nonce + counter.to_bytes(4, "big")).digest()
        counter += 1
    return bytes(out[:length])


def create_keystore(key: KeyPair, password: str, rng) -> dict:
    """Encrypt the secret key under a password; returns the keystore record.

    scrypt (n=2^14) derives a 32-byte key: first half encrypts via a hash
    counter-mode keystream, second half keys the Keccak MAC over the
    ciphertext. ``rng`` (a ``random.Random``) draws the salt and nonce.
    """
    salt = rng.randbytes(16)
    nonce = rng.randbytes(16)
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
