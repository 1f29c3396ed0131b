"""Private content-addressed storage network.

Content identifiers are CIDv0-style multihashes: base58btc over
0x12 (sha2-256) || 0x20 (32) || sha256(content), always 46 characters and
starting with "Qm". A block's holders are the member nodes that store it;
no separate index is kept. Blocks replicate onto the reader's node on each
fetch; a node's pins name the blocks it keeps for the consortium, and a
removed member's node hands them to the shared node; stored bytes are
re-verified against their identifier's sha-256 digest on every store and
every read.
"""

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Set

from .errors import AuthError, EncodingError, MembershipError, NotFoundError

BASE58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_BASE58_INDEX = {c: i for i, c in enumerate(BASE58_ALPHABET)}

MULTIHASH_SHA256 = 0x12
MULTIHASH_LEN32 = 0x20


def base58_encode(data: bytes) -> str:
    value = int.from_bytes(data, "big")
    digits = []
    while value:
        value, rem = divmod(value, 58)
        digits.append(BASE58_ALPHABET[rem])
    pad = 0
    for byte in data:
        if byte:
            break
        pad += 1
    return "1" * pad + "".join(reversed(digits))


def base58_decode(text: str) -> bytes:
    value = 0
    for char in text:
        try:
            value = value * 58 + _BASE58_INDEX[char]
        except KeyError:
            raise EncodingError(f"invalid base58 character {char!r}") from None
    pad = len(text) - len(text.lstrip("1"))
    body = value.to_bytes((value.bit_length() + 7) // 8, "big")
    return b"\x00" * pad + body


@dataclass(frozen=True)
class ContentId:
    """46-character base58 multihash naming one stored blob, with its raw
    sha-256 digest, decoded from the text unless ``for_content`` built both."""

    text: str
    digest: bytes = field(default=b"", compare=False, repr=False)

    def __post_init__(self):
        # the shape first: base58 decoding costs the square of the length
        if len(self.text) != 46 or not self.text.startswith("Q"):
            raise EncodingError(f"malformed content id: {self.text!r}")
        if not self.digest:
            raw = base58_decode(self.text)
            if len(raw) != 34 or raw[0] != MULTIHASH_SHA256 or raw[1] != MULTIHASH_LEN32:
                raise EncodingError(f"not a sha2-256 multihash: {self.text!r}")
            object.__setattr__(self, "digest", raw[2:])

    @classmethod
    def for_content(cls, content: bytes) -> "ContentId":
        digest = hashlib.sha256(content).digest()
        return cls(base58_encode(bytes([MULTIHASH_SHA256, MULTIHASH_LEN32]) + digest), digest)

    def matches(self, content: bytes) -> bool:
        """Whether ``content`` hashes to this id's digest."""
        return hashlib.sha256(content).digest() == self.digest


@dataclass
class StoreNode:
    """One storage node: verified blocks and pin set."""

    node_id: str
    blocks: Dict[str, bytes] = field(default_factory=dict)
    pins: Set[str] = field(default_factory=set)

    def store(self, content_id: ContentId, content: bytes) -> None:
        if not content_id.matches(content):
            raise EncodingError("content does not match its identifier")
        self.blocks[content_id.text] = content

    def holds(self, content_id: ContentId) -> bool:
        return content_id.text in self.blocks


class PrivateNetwork:
    """Membership-gated storage network. A block's holders are the member
    nodes that store it; no index of them is kept."""

    def __init__(self, admin: str):
        self.admin = admin
        self._nodes: Dict[str, StoreNode] = {}

    # -- membership -------------------------------------------------------------

    def add_member(self, caller: str, node_id: str) -> None:
        if caller != self.admin:
            raise AuthError("only the network administrator manages membership")
        self._nodes.setdefault(node_id, StoreNode(node_id=node_id))

    def remove_member(self, caller: str, node_id: str) -> None:
        if caller != self.admin:
            raise AuthError("only the network administrator manages membership")
        if self._nodes.pop(node_id, None) is None:
            raise NotFoundError(f"{node_id!r} is not a member")

    def members(self) -> Set[str]:
        return set(self._nodes)

    def _member(self, node_id: str) -> StoreNode:
        node = self._nodes.get(node_id)
        if node is None:
            raise MembershipError(f"{node_id!r} is not a member of the private network")
        return node

    # -- block operations ---------------------------------------------------------

    def add(self, node_id: str, content: bytes) -> ContentId:
        """Store content on the node; its id is derived from the bytes alone."""
        content_id = ContentId.for_content(content)
        self._member(node_id).store(content_id, content)
        return content_id

    def get(self, node_id: str, content_id: ContentId) -> bytes:
        """Fetch a block; a verified copy is cached on the requesting node."""
        node = self._member(node_id)
        local = node.blocks.get(content_id.text)
        if local is not None and content_id.matches(local):
            return local
        for holder_id in sorted(self._nodes):
            content = self._nodes[holder_id].blocks.get(content_id.text)
            if content is None or not content_id.matches(content):
                continue  # tampered or absent copy: never returned
            node.store(content_id, content)
            return content
        raise NotFoundError(f"no member holds {content_id.text}")

    def pin(self, node_id: str, content_id: ContentId) -> None:
        node = self._member(node_id)
        if not node.holds(content_id):
            self.get(node_id, content_id)
        node.pins.add(content_id.text)

    def unpin(self, node_id: str, content_id: ContentId) -> None:
        self._member(node_id).pins.discard(content_id.text)

    def pinned(self, node_id: str) -> List[str]:
        """The content id texts the node has pinned, in sorted order."""
        return sorted(self._member(node_id).pins)

    def holders(self, content_id: ContentId) -> Set[str]:
        return {node_id for node_id, node in self._nodes.items() if node.holds(content_id)}
