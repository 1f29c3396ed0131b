"""Simulated NTAG-216-style NFC tags.

7-byte UID fixed at manufacture, 888 bytes of usable memory, an optional
4-byte password (a tag is locked once its password is set, as on NXP's
NTAG213/215/216), and hardware-style counters: the write counter keeps
the highest value written, and the read counter moves only on ``read``. A
scan's checks and a write's pre-check ``peek``; only a scan's full pass reads.
"""

import json
import re
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .encoding import canonical_json_bytes
from .errors import CapacityError, TagLockedError, TagStateError
from .keys import Signature

TAG_MEMORY_BYTES = 888
UID_BYTES = 7
PASSWORD_BYTES = 4
_PAYLOAD_KEYS = {"wine_id", "signature", "write_counter"}
_SIGNATURE_HEX = re.compile("[0-9a-f]{130}")  # 65 bytes, as Signature.hex writes them


def _parse_payload(memory: bytes) -> Tuple[str, Signature, int]:
    """The wine id, signature and write counter of a tag's memory: a JSON
    object with exactly those keys, a non-empty string wine id, 130 lowercase
    hex characters of signature and a non-negative integer counter. Empty
    memory raises ``TagStateError`` "tag has never been written"; anything
    else raises it as "tag payload does not parse"."""
    if not memory:
        raise TagStateError("tag has never been written")
    try:
        fields = json.loads(memory)
        if not isinstance(fields, dict):
            raise ValueError("not a JSON object")
        if fields.keys() != _PAYLOAD_KEYS:
            raise ValueError(f"keys are not {sorted(_PAYLOAD_KEYS)}")
        wine_id, signature, counter = fields["wine_id"], fields["signature"], fields["write_counter"]
        if not isinstance(wine_id, str) or not wine_id:
            raise ValueError("wine_id is not a non-empty string")
        if not isinstance(signature, str) or not _SIGNATURE_HEX.fullmatch(signature):
            raise ValueError("signature is not 130 lowercase hex characters")
        if type(counter) is not int or counter < 0:
            raise ValueError("write_counter is not a non-negative integer")
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise TagStateError(f"tag payload does not parse: {exc}") from exc
    return wine_id, Signature.from_bytes(bytes.fromhex(signature)), counter


def encode_payload(wine_id: str, signature: Signature, write_counter: int) -> bytes:
    """A write's tag memory; ``CapacityError`` when it would overflow the tag."""
    payload = canonical_json_bytes({"wine_id": wine_id, "signature": signature.hex,
                                    "write_counter": write_counter})
    if len(payload) > TAG_MEMORY_BYTES:
        raise CapacityError(f"payload is {len(payload)} bytes; tag holds {TAG_MEMORY_BYTES}")
    return payload


@dataclass
class TagReadout:
    """Everything a scan returns: payload fields, identity, counters."""

    tag_id: str
    wine_id: str
    signature: Signature
    write_counter: int
    read_counter: int


class NfcTag:
    """One physical tag; single holder at a time in simulation."""

    def __init__(self, uid: bytes):
        if len(uid) != UID_BYTES:
            raise TagStateError(f"uid must be {UID_BYTES} bytes, got {len(uid)}")
        self._uid = uid
        self.memory: bytes = b""
        self.password: Optional[bytes] = None  # the lock: set once, by enable_protection
        self.write_counter = 0
        self.read_counter = 0

    @property
    def tag_id(self) -> str:
        return self._uid.hex()

    def _check_password(self, password: Optional[bytes]) -> None:
        if self.password is not None and password != self.password:
            raise TagLockedError("tag is password protected")

    def write(self, wine_id: str, signature: Signature, write_counter: int,
              password: Optional[bytes] = None) -> None:
        self._check_password(password)
        self.memory = encode_payload(wine_id, signature, write_counter)
        self.write_counter = max(self.write_counter, write_counter)

    def peek_wine_id(self) -> str:
        """Wine identifier from the unprotected header area; readable without
        authentication so a scanner can resolve the record password. A string
        wine id is returned even when the rest of the payload does not parse,
        so that the caller reaches the record and ``peek`` refuses the tag
        there; a tag never written, or whose payload names no string wine id,
        raises ``TagStateError``."""
        try:
            wine_id = json.loads(self.memory).get("wine_id")
        except (ValueError, RecursionError, AttributeError):  # not JSON, or not an object
            wine_id = None
        # with no string wine id, the payload does not parse: the strict parser raises
        return wine_id if isinstance(wine_id, str) else _parse_payload(self.memory)[0]

    def read(self, password: Optional[bytes] = None) -> TagReadout:
        readout = self.peek(password)
        self.read_counter += 1
        readout.read_counter = self.read_counter
        return readout

    def peek(self, password: Optional[bytes] = None) -> TagReadout:
        """What a read returns, but the read counter does not move: a scan and
        every append check the tag this way before they count a read or write.
        A tag never written, or whose payload does not parse, raises ``TagStateError``."""
        self._check_password(password)
        wine_id, signature, write_counter = _parse_payload(self.memory)
        return TagReadout(tag_id=self.tag_id, wine_id=wine_id, signature=signature,
                          write_counter=write_counter, read_counter=self.read_counter)

    def enable_protection(self, randbytes: Callable[[int], bytes]) -> bytes:
        """Locks the tag behind a fresh random 4-byte password and returns it."""
        if self.password is not None:
            raise TagStateError("protection already enabled")
        self.password = randbytes(PASSWORD_BYTES)
        return self.password


def counterfeit_copy(source: NfcTag, randbytes: Callable[[int], bytes]) -> NfcTag:
    """Clone a tag's data onto a new tag; the UID necessarily differs."""
    copy = NfcTag(uid=randbytes(UID_BYTES))
    copy.memory = source.memory
    copy.password = source.password
    copy.write_counter = source.write_counter
    copy.read_counter = source.read_counter
    return copy
