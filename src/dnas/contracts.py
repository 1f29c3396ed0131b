"""Native contract runtime: wine data, peer registry, and proxy contracts.

The wine data contract maps each wine to one ``WineEntry`` (content hash per
write iteration, custodian address, hashed tag and device identifiers,
counters) and exposes create / validate / append semantics with their error
branches. The registry is the consortium white list with distinct-voter
tallies (``cast_vote``, which the ledger's sealer votes share); the proxy
swaps wine-contract versions in place while the records it holds persist.
"""

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .content_store import ContentId
from .encoding import canonical_json_bytes
from .errors import AuthError, ContractError, ProxyError, RoleError
from .keys import Signature, SignerDirectory, encode_tag_payload

ROLE_WINEMAKER = "winemaker"
ROLE_PARTICIPANT = "participant"
_NO_CALLER = "0x" + "00" * 20  # views run on behalf of no account


@dataclass
class ContractEvent:
    kind: str
    fields: Dict[str, object]
    block_number: Optional[int] = None
    tx_hash: Optional[str] = None


@dataclass
class ExecutionContext:
    """Per-call context: the original sender, the registry, the node's
    signer directory (its known keys and tag-signature memos), the event
    sink and the touched state keys."""

    caller: str  # 0x-hex address
    registry: "PeerRegistryContract"
    signers: SignerDirectory
    events: List[ContractEvent] = field(default_factory=list)
    touched: Set[str] = field(default_factory=set)

    def emit(self, kind: str, **fields) -> None:
        self.events.append(ContractEvent(kind=kind, fields=fields))


@dataclass
class PeerEntry:
    address: str
    role: str
    node_id: str
    member_id: str
    joined_at: int = 0

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


Tallies = Dict[Tuple[str, str], Set[str]]  # (candidate, "add" | "remove") -> voters


def cast_vote(tallies: Tallies, voter: str, candidate: str, add: bool,
              threshold: int) -> Tuple[int, bool]:
    """Counts one distinct voter for adding or removing ``candidate``; returns
    the tally and whether it reached ``threshold``. A change that passes
    clears both of the candidate's tallies."""
    voters = tallies.setdefault((candidate, "add" if add else "remove"), set())
    voters.add(voter)  # one vote per voter; re-votes collapse
    passed = len(voters) >= threshold
    if passed:
        tallies.pop((candidate, "add"), None)
        tallies.pop((candidate, "remove"), None)
    return len(voters), passed


def tally_snapshot(tallies: Tallies) -> Dict[str, List[str]]:
    """The committed form of a tally map: ``{"<candidate>:<action>": sorted voters}``."""
    return {f"{c}:{action}": sorted(v) for (c, action), v in tallies.items()}


class PeerRegistryContract:
    """On-chain consortium registry with vote-gated membership."""

    TRANSACTIONS = frozenset({"bootstrap_add_peer", "propose_peer", "set_consensus_level"})
    VIEWS = frozenset({"get_peers", "role_of", "is_member", "consensus_level",
                       "in_bootstrap_stage"})

    def __init__(self, admin: str, bootstrap_count: int = 5):
        self.admin = admin
        self.bootstrap_count = bootstrap_count
        self.peers: Dict[str, PeerEntry] = {}
        self.votes: Tallies = {}
        self.consensus_override: Optional[int] = None
        # set at the bootstrap_count-th admission and never cleared, so a
        # removal does not hand admission back to the administrator alone
        self.bootstrapped = bootstrap_count <= 0

    def consensus_level(self) -> int:
        if self.consensus_override is not None:
            return self.consensus_override
        return max(1, math.ceil(len(self.peers) / 2))

    def is_member(self, address: str) -> bool:
        return address in self.peers

    def role_of(self, address: str) -> Optional[str]:
        entry = self.peers.get(address)
        return entry.role if entry else None

    def get_peers(self) -> List[Dict[str, object]]:
        return [self.peers[a].to_dict() for a in sorted(self.peers)]

    def in_bootstrap_stage(self) -> bool:
        return not self.bootstrapped

    # -- transactions ------------------------------------------------------------

    def bootstrap_add_peer(self, ctx: ExecutionContext, entry: Dict[str, object]) -> bool:
        peer = PeerEntry(**entry)
        if ctx.caller != self.admin:
            raise AuthError("bootstrap insertion is an administrator operation")
        if not self.in_bootstrap_stage():
            raise ContractError("bootstrap stage is over; admission requires votes")
        if peer.address in self.peers:
            raise ContractError(f"peer {peer.address} already registered")
        self._admit(ctx, peer, bootstrap=True)
        return True

    def _admit(self, ctx: ExecutionContext, peer: PeerEntry, bootstrap: bool) -> None:
        self.peers[peer.address] = peer
        self.bootstrapped = self.bootstrapped or len(self.peers) >= self.bootstrap_count
        ctx.emit("PeerAdded", candidate=peer.address, node_id=peer.node_id,
                 member_id=peer.member_id, role=peer.role, bootstrap=bootstrap)

    def propose_peer(self, ctx: ExecutionContext, entry: Dict[str, object],
                     add: bool) -> Dict[str, object]:
        peer = PeerEntry(**entry)
        if (peer.address in self.peers) == bool(add):
            # the change is already in effect: a vote that arrives after the
            # threshold (the voter may be the member it removed) changes nothing
            return {"tally": 0, "required": self.consensus_level(), "applied": False}
        if not self.is_member(ctx.caller):
            raise AuthError("only registered members vote on admission")
        tally, passed = cast_vote(self.votes, ctx.caller, peer.address, add,
                                  self.consensus_level())
        if passed and add:
            self._admit(ctx, peer, bootstrap=False)
        elif passed:
            removed = self.peers.pop(peer.address)
            ctx.emit("PeerRemoved", candidate=peer.address, node_id=removed.node_id,
                     member_id=removed.member_id)
        # the level after the change, which the next proposal must reach
        return {"tally": tally, "required": self.consensus_level(), "applied": passed}

    def set_consensus_level(self, ctx: ExecutionContext, level: int) -> int:
        if ctx.caller != self.admin:
            raise AuthError("the consensus level can only be set by the administrator")
        if level < 1:
            raise ContractError("consensus level must be at least 1")
        self.consensus_override = level
        return level

    def snapshot(self) -> Dict[str, object]:
        return {
            "admin": self.admin,
            "bootstrap_count": self.bootstrap_count,
            "bootstrapped": self.bootstrapped,
            "consensus_override": self.consensus_override,
            "peers": {a: e.to_dict() for a, e in self.peers.items()},
            "votes": tally_snapshot(self.votes),
        }


@dataclass
class WineEntry:
    """The six fields kept for one wine; its state leaf encodes exactly these."""

    data_hash: Dict[int, str]  # write iteration -> cid
    pub_addr: str              # current custodian
    tag_id: str                # hashed tag identifier
    device_id: str             # hashed device identifier
    write_count: int = 1
    read_count: int = 0


def _check_custodian(address: str) -> None:
    """Refuses a custodian ``validate_signature`` could never match with a
    recovered signer's ``hex0x``."""
    if len(address) != 42 or address[:2] != "0x" or address[2:].strip("0123456789abcdef"):
        raise ContractError("new_public_address must be 0x and 40 lowercase hex characters")


def _entry(records: Dict[str, WineEntry], wine_id: str) -> WineEntry:
    entry = records.get(wine_id)
    if entry is None:
        raise ContractError(f"no wine record for {wine_id!r}")
    return entry


class WineDataContractV1:
    """First deployed wine-data implementation."""

    version = "winedata-v1"
    # the methods the proxy delegates to, by the call surface that reaches them
    TRANSACTIONS = frozenset({"create_wine_record", "append_wine_record",
                              "increment_read_count"})
    VIEWS = frozenset({"validate_wine_record_hash", "validate_signature", "get_record"})

    # -- transactions --------------------------------------------------------------

    def create_wine_record(self, records: Dict[str, WineEntry], ctx: ExecutionContext,
                           wine_id: str, wine_data_hash: str, new_public_address: str,
                           tag_id: str, device_id: str) -> bool:
        ctx.touched.add("wine:" + wine_id)
        if ctx.registry.role_of(ctx.caller) != ROLE_WINEMAKER:
            raise RoleError("create_wine_record is restricted to winemaker nodes")
        if wine_id in records:
            raise ContractError(f"wine record {wine_id!r} already exists on-chain")
        # malformed hashes, identifiers and custodians never enter the mapping,
        # so that validate_signature can always check an entry's tag signature
        ContentId(wine_data_hash)
        encode_tag_payload(wine_id, tag_id, device_id)
        _check_custodian(new_public_address)
        records[wine_id] = WineEntry(data_hash={1: wine_data_hash},
                                     pub_addr=new_public_address, tag_id=tag_id,
                                     device_id=device_id)
        ctx.emit("WineRecordCreated", wine_id=wine_id, creator=ctx.caller,
                 hashed_device_id=device_id)
        return True

    def append_wine_record(self, records: Dict[str, WineEntry], ctx: ExecutionContext,
                           wine_id: str, new_wine_data_hash: str, new_public_address: str,
                           tag_id: str, device_id: str) -> bool:
        ctx.touched.add("wine:" + wine_id)
        if not ctx.registry.is_member(ctx.caller):
            raise RoleError("append_wine_record requires a registered consortium member")
        entry = _entry(records, wine_id)
        if entry.tag_id != tag_id or entry.device_id != device_id:
            raise ContractError("tag or device identifier does not match the stored record")
        ContentId(new_wine_data_hash)
        _check_custodian(new_public_address)
        previous = entry.pub_addr
        entry.write_count += 1
        entry.data_hash[entry.write_count] = new_wine_data_hash
        entry.pub_addr = new_public_address
        ctx.emit("WineRecordAppended", wine_id=wine_id, previous=previous,
                 current=new_public_address)
        return True

    def increment_read_count(self, records: Dict[str, WineEntry], ctx: ExecutionContext,
                             wine_id: str) -> int:
        ctx.touched.add("wine:" + wine_id)
        if not ctx.registry.is_member(ctx.caller):
            raise RoleError("read-count updates require a registered consortium member")
        entry = _entry(records, wine_id)
        entry.read_count += 1
        return entry.read_count

    # -- views -----------------------------------------------------------------------

    def validate_wine_record_hash(self, records: Dict[str, WineEntry], ctx: ExecutionContext,
                                  wine_id: str, wine_data_hash: str) -> bool:
        entry = _entry(records, wine_id)
        return entry.data_hash[entry.write_count] == wine_data_hash

    def validate_signature(self, records: Dict[str, WineEntry], ctx: ExecutionContext,
                           wine_id: str, v: int, r: int, s: int) -> bool:
        """Whether (v, r, s) over the wine's tag digest is its custodian's
        (``SignerDirectory.tag_signed_by``)."""
        entry = _entry(records, wine_id)
        return ctx.signers.tag_signed_by(wine_id, entry.tag_id, entry.device_id,
                                         Signature(v=v, r=r, s=s), entry.pub_addr)

    def get_record(self, records: Dict[str, WineEntry], ctx: ExecutionContext,
                   wine_id: str) -> Dict[str, object]:
        entry = _entry(records, wine_id)
        return {
            "wine_id": wine_id,
            "write_count": entry.write_count,
            "read_count": entry.read_count,
            "pub_addr": entry.pub_addr,
            "tag_id": entry.tag_id,
            "device_id": entry.device_id,
            "data_hash_latest": entry.data_hash[entry.write_count],
            "data_hash_history": dict(entry.data_hash),
        }


class WineDataContractV2(WineDataContractV1):
    """Upgrade target: identical record semantics plus an inventory view."""

    version = "winedata-v2"
    VIEWS = WineDataContractV1.VIEWS | {"record_count"}

    def record_count(self, records: Dict[str, WineEntry], ctx: ExecutionContext) -> int:
        return len(records)


class Proxy:
    """Stable entry point delegating to the current implementation version.

    The wine records live here, so an upgrade changes behaviour without
    touching recorded state; the original caller identity is preserved through the
    delegated call.
    """

    # the administrator's surface, reached as target "proxy_admin"
    TRANSACTIONS = frozenset({"upgrade_to"})
    VIEWS = frozenset()

    def __init__(self, owner: str):
        self.owner = owner
        self.records: Dict[str, WineEntry] = {}
        self.current_implementation: Optional[str] = None
        self.initialize_counter: Dict[str, int] = {}
        self._implementations: Dict[str, WineDataContractV1] = {}

    def register_implementation(self, contract: WineDataContractV1) -> None:
        self._implementations[contract.version] = contract

    def initialize(self, ctx: ExecutionContext, version: str) -> None:
        """First-time wiring of the implementation slot (deployment step)."""
        if ctx.caller != self.owner:
            raise AuthError("only the proxy owner deploys implementations")
        if self.current_implementation is not None:
            raise ProxyError("proxy already initialized; use upgrade_to")
        self._claim_version(version)

    def upgrade_to(self, ctx: ExecutionContext, version: str) -> Dict[str, object]:
        if ctx.caller != self.owner:
            raise AuthError("only the proxy owner may upgrade")
        if self.current_implementation is None:
            raise ProxyError("proxy not initialized")
        self._claim_version(version)
        ctx.emit("Upgraded", version=version)
        return {"current_implementation": version}

    def _claim_version(self, version: str) -> None:
        if version not in self._implementations:
            raise ProxyError(f"unknown implementation version {version!r}")
        if self.initialize_counter.get(version, 0) != 0:
            raise ProxyError(f"version {version!r} already initialized")
        self.initialize_counter[version] = 1
        self.current_implementation = version

    def _implementation(self) -> WineDataContractV1:
        if self.current_implementation is None:
            raise ProxyError("proxy not initialized: no implementation set")
        return self._implementations[self.current_implementation]

    def call(self, ctx: ExecutionContext, method: str, params: Dict[str, object]) -> object:
        """Runs a transaction method of the current implementation."""
        impl = self._implementation()
        if method not in impl.TRANSACTIONS:
            raise ContractError(f"no transaction method {method!r} in {impl.version}")
        return getattr(impl, method)(self.records, ctx, **params)

    def view(self, ctx: ExecutionContext, method: str, params: Dict[str, object]) -> object:
        """Runs a read-only method of the current implementation."""
        impl = self._implementation()
        if method not in impl.VIEWS:
            raise ContractError(f"no view method {method!r} in {impl.version}")
        return getattr(impl, method)(self.records, ctx, **params)

    def snapshot(self) -> Dict[str, object]:
        """The proxy's metadata; its records are committed one leaf per wine."""
        return {
            "owner": self.owner,
            "current_implementation": self.current_implementation,
            "initialize_counter": dict(self.initialize_counter),
        }


class ContractRuntime:
    """Deployed contract set executed by the ledger's transactions. Each
    contract declares its ``TRANSACTIONS`` and ``VIEWS``; wine-data calls go
    to the proxy, which takes its methods from the current implementation."""

    def __init__(self, admin: str, bootstrap_count: int = 5):
        self.admin = admin
        self.touched: Set[str] = set()  # state keys written since the last state root
        self.signers = SignerDirectory()  # the owning node's, shared with its chain
        self.registry = PeerRegistryContract(admin=admin, bootstrap_count=bootstrap_count)
        self.proxy = Proxy(owner=admin)
        self.proxy.register_implementation(WineDataContractV1())
        self.proxy.register_implementation(WineDataContractV2())
        deploy_ctx = ExecutionContext(caller=admin, registry=self.registry, signers=self.signers)
        self.proxy.initialize(deploy_ctx, WineDataContractV1.version)

    def execute(self, caller: str, target: str, method: str,
                params: Dict[str, object]) -> Tuple[object, List[ContractEvent]]:
        """Runs a state-transitioning call; returns (result, emitted events)."""
        ctx = ExecutionContext(caller=caller, registry=self.registry, signers=self.signers,
                               touched=self.touched)
        if target == "proxy":
            return self.proxy.call(ctx, method, params), ctx.events
        contract = {"registry": self.registry, "proxy_admin": self.proxy}.get(target)
        if contract is None or method not in contract.TRANSACTIONS:
            raise ContractError(f"no transaction method {method!r} on {target!r}")
        self.touched.add(target)  # the registry or proxy_admin leaf
        return getattr(contract, method)(ctx, **params), ctx.events

    def call_view(self, method: str, params: Dict[str, object]) -> object:
        """Read-only call; never mutates state and emits nothing."""
        if method in self.registry.VIEWS:
            return getattr(self.registry, method)(**params)
        ctx = ExecutionContext(caller=_NO_CALLER, registry=self.registry, signers=self.signers)
        return self.proxy.view(ctx, method, params)

    def state_keys(self) -> List[str]:
        """Every contract key the state root commits to."""
        return ["registry", "proxy_admin", *("wine:" + w for w in self.proxy.records)]

    def state_bytes(self, key: str) -> bytes:
        """Canonical JSON of one contract leaf; empty when the key holds nothing."""
        if key == "registry":
            value = self.registry.snapshot()
        elif key == "proxy_admin":
            value = self.proxy.snapshot()
        else:
            entry = self.proxy.records.get(key.partition(":")[2])
            value = None if entry is None else vars(entry)
        return b"" if value is None else canonical_json_bytes(value)
