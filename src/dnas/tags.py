"""Simulated NTAG-216-style NFC tags.

7-byte UID fixed at manufacture, 888 bytes of usable memory, an optional
4-byte password lock, and hardware-style counters: the write counter keeps
the highest value written, the read counter increments on every successful
read (the reported value includes the read that returned it).
"""

import json
from dataclasses import dataclass
from typing import Callable, Optional

from .encoding import canonical_json_bytes
from .errors import CapacityError, TagLockedError, TagStateError
from .keys import Signature

TAG_MEMORY_BYTES = 888
UID_BYTES = 7
PASSWORD_BYTES = 4


@dataclass
class TagReadout:
    """Everything a scan returns: payload fields, identity, counters."""

    uid: bytes
    wine_id: str
    signature: Signature
    write_counter: int
    read_counter: int

    @property
    def tag_id(self) -> str:
        return self.uid.hex()


class NfcTag:
    """One physical tag; single holder at a time in simulation."""

    def __init__(self, uid: bytes):
        if len(uid) != UID_BYTES:
            raise TagStateError(f"uid must be {UID_BYTES} bytes, got {len(uid)}")
        self._uid = uid
        self.memory: bytes = b""
        self.password: Optional[bytes] = None
        self.protection_enabled = False
        self.write_counter = 0
        self.read_counter = 0

    @property
    def tag_id(self) -> str:
        return self._uid.hex()

    def _check_password(self, password: Optional[bytes]) -> None:
        if self.protection_enabled and password != self.password:
            raise TagLockedError("tag is password protected")

    def write(self, wine_id: str, signature: Signature, write_counter: int,
              password: Optional[bytes] = None) -> None:
        self._check_password(password)
        payload = canonical_json_bytes({
            "wine_id": wine_id,
            "signature": signature.hex,
            "write_counter": write_counter,
        })
        if len(payload) > TAG_MEMORY_BYTES:
            raise CapacityError(f"payload is {len(payload)} bytes; tag holds {TAG_MEMORY_BYTES}")
        self.memory = payload
        self.write_counter = max(self.write_counter, write_counter)

    def peek_wine_id(self) -> str:
        """Wine identifier from the unprotected header area; readable without
        authentication so a scanner can resolve the record password."""
        if not self.memory:
            raise TagStateError("tag has never been written")
        return json.loads(self.memory)["wine_id"]

    def read(self, password: Optional[bytes] = None) -> TagReadout:
        readout = self.peek(password)
        self.read_counter += 1
        readout.read_counter = self.read_counter
        return readout

    def peek(self, password: Optional[bytes] = None) -> TagReadout:
        """What a read returns, but the read counter does not move: a
        custodian checks its tag this way before a write overwrites it."""
        self._check_password(password)
        if not self.memory:
            raise TagStateError("tag has never been written")
        fields = json.loads(self.memory)
        return TagReadout(
            uid=self._uid,
            wine_id=fields["wine_id"],
            signature=Signature.from_bytes(bytes.fromhex(fields["signature"])),
            write_counter=fields["write_counter"],
            read_counter=self.read_counter,
        )

    def enable_protection(self, randbytes: Callable[[int], bytes]) -> bytes:
        """Locks the tag behind a fresh random 4-byte password and returns it."""
        if self.protection_enabled:
            raise TagStateError("protection already enabled")
        self.password = randbytes(PASSWORD_BYTES)
        self.protection_enabled = True
        return self.password


def counterfeit_copy(source: NfcTag, randbytes: Callable[[int], bytes]) -> NfcTag:
    """Clone a tag's data onto a new tag; the UID necessarily differs."""
    copy = NfcTag(uid=randbytes(UID_BYTES))
    copy.memory = source.memory
    copy.password = source.password
    copy.protection_enabled = source.protection_enabled
    copy.write_counter = source.write_counter
    copy.read_counter = source.read_counter
    return copy
