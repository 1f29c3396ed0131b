"""Native contract runtime: wine data, peer registry, and proxy contracts.

The wine data contract keeps per-wine mappings (content hash per write
iteration, custodian address, hashed tag and device identifiers, counters)
and exposes create / validate / append semantics with their error branches.
The registry is the consortium white list with distinct-voter tallies; the
proxy swaps wine-contract versions in place while its storage persists.
"""

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .content_store import ContentId
from .encoding import canonical_json_bytes
from .errors import AuthError, ContractError, ProxyError, RecoveryError, RoleError
from .keys import Signature, SignerDirectory, prefixed_digest

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
    """Per-call context: the original sender, the event sink, the touched state
    keys, the node's known signer keys."""

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


class PeerRegistryContract:
    """On-chain consortium registry with vote-gated membership."""

    def __init__(self, admin: str, bootstrap_count: int = 5):
        self.admin = admin
        self.bootstrap_count = bootstrap_count
        self.peers: Dict[str, PeerEntry] = {}
        self.votes: Dict[Tuple[str, str], Set[str]] = {}
        self.consensus_override: Optional[int] = None

    @property
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
        return len(self.peers) < self.bootstrap_count

    # -- transactions ------------------------------------------------------------

    def bootstrap_add_peer(self, ctx: ExecutionContext, entry: PeerEntry) -> bool:
        if ctx.caller != self.admin:
            raise AuthError("bootstrap insertion is an administrator operation")
        if not self.in_bootstrap_stage():
            raise ContractError("bootstrap stage is over; admission requires votes")
        if entry.address in self.peers:
            raise ContractError(f"peer {entry.address} already registered")
        self.peers[entry.address] = entry
        ctx.emit("PeerAdded", candidate=entry.address, node_id=entry.node_id,
                 member_id=entry.member_id, role=entry.role, bootstrap=True)
        return True

    def propose_peer(self, ctx: ExecutionContext, entry: PeerEntry, add: bool) -> Dict[str, object]:
        if (entry.address in self.peers) == bool(add):
            # the change is already in effect: a vote that arrives after the
            # threshold (the voter may be the member it removed) changes nothing
            return {"tally": 0, "required": self.consensus_level, "applied": False}
        if not self.is_member(ctx.caller):
            raise AuthError("only registered members vote on admission")
        key = (entry.address, "add" if add else "remove")
        voters = self.votes.setdefault(key, set())
        voters.add(ctx.caller)  # one vote per member; re-votes collapse
        tally = len(voters)
        applied = False
        if tally >= self.consensus_level:
            if add:
                self.peers[entry.address] = entry
                ctx.emit("PeerAdded", candidate=entry.address, node_id=entry.node_id,
                         member_id=entry.member_id, role=entry.role, bootstrap=False)
            else:
                removed = self.peers.pop(entry.address)
                ctx.emit("PeerRemoved", candidate=entry.address, node_id=removed.node_id,
                         member_id=removed.member_id)
            self.votes.pop((entry.address, "add"), None)
            self.votes.pop((entry.address, "remove"), None)
            applied = True
        return {"tally": tally, "required": self.consensus_level, "applied": applied}

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
            "consensus_override": self.consensus_override,
            "peers": {a: e.to_dict() for a, e in self.peers.items()},
            "votes": {f"{c}:{action}": sorted(v) for (c, action), v in self.votes.items() if v},
        }


class WineDataStorage:
    """Mapping state shared by every wine-contract version through the proxy."""

    def __init__(self):
        self.data_hash: Dict[str, Dict[int, str]] = {}   # wineId -> iteration -> cid
        self.pub_addr: Dict[str, str] = {}
        self.tag_id: Dict[str, str] = {}                 # hashed tag identifier
        self.device_id: Dict[str, str] = {}              # hashed device identifier
        self.write_count: Dict[str, int] = {}
        self.read_count: Dict[str, int] = {}

    def record(self, wine_id: str) -> Optional[Dict[str, object]]:
        """The six fields kept for one wine, or None when it has no record."""
        if wine_id not in self.write_count:
            return None
        return {"data_hash": self.data_hash[wine_id], "pub_addr": self.pub_addr[wine_id],
                "tag_id": self.tag_id[wine_id], "device_id": self.device_id[wine_id],
                "write_count": self.write_count[wine_id],
                "read_count": self.read_count[wine_id]}


class WineDataContractV1:
    """First deployed wine-data implementation."""

    version = "winedata-v1"
    # the methods the proxy delegates to, by the call surface that reaches them
    TRANSACTIONS = frozenset({"create_wine_record", "append_wine_record",
                              "increment_read_count"})
    VIEWS = frozenset({"validate_wine_record_hash", "validate_signature", "get_record"})

    # -- transactions --------------------------------------------------------------

    def create_wine_record(self, storage: WineDataStorage, ctx: ExecutionContext,
                           wine_id: str, wine_data_hash: str, new_public_address: str,
                           tag_id: str, device_id: str) -> bool:
        ctx.touched.add("wine:" + wine_id)
        if ctx.registry.role_of(ctx.caller) != ROLE_WINEMAKER:
            raise RoleError("create_wine_record is restricted to winemaker nodes")
        if storage.write_count.get(wine_id, 0) != 0:
            raise ContractError(f"wine record {wine_id!r} already exists on-chain")
        ContentId(wine_data_hash)  # malformed hashes never enter the mapping
        storage.pub_addr[wine_id] = new_public_address
        storage.data_hash[wine_id] = {1: wine_data_hash}
        storage.tag_id[wine_id] = tag_id
        storage.device_id[wine_id] = device_id
        storage.write_count[wine_id] = 1
        storage.read_count[wine_id] = 0
        ctx.emit("WineRecordCreated", wine_id=wine_id, creator=ctx.caller,
                 hashed_device_id=device_id)
        return True

    def append_wine_record(self, storage: WineDataStorage, ctx: ExecutionContext,
                           wine_id: str, new_wine_data_hash: str, new_public_address: str,
                           tag_id: str, device_id: str) -> bool:
        ctx.touched.add("wine:" + wine_id)
        if not ctx.registry.is_member(ctx.caller):
            raise RoleError("append_wine_record requires a registered consortium member")
        count = storage.write_count.get(wine_id, 0)
        if count == 0:
            raise ContractError(f"no wine record for {wine_id!r}")
        if storage.tag_id[wine_id] != tag_id or storage.device_id[wine_id] != device_id:
            raise ContractError("tag or device identifier does not match the stored record")
        ContentId(new_wine_data_hash)
        previous = storage.pub_addr[wine_id]
        storage.write_count[wine_id] = count + 1
        storage.data_hash[wine_id][count + 1] = new_wine_data_hash
        storage.pub_addr[wine_id] = new_public_address
        ctx.emit("WineRecordAppended", wine_id=wine_id, previous=previous,
                 current=new_public_address)
        return True

    def increment_read_count(self, storage: WineDataStorage, ctx: ExecutionContext,
                             wine_id: str) -> int:
        ctx.touched.add("wine:" + wine_id)
        if not ctx.registry.is_member(ctx.caller):
            raise RoleError("read-count updates require a registered consortium member")
        if storage.write_count.get(wine_id, 0) == 0:
            raise ContractError(f"no wine record for {wine_id!r}")
        storage.read_count[wine_id] += 1
        return storage.read_count[wine_id]

    # -- views -----------------------------------------------------------------------

    def validate_wine_record_hash(self, storage: WineDataStorage, ctx: ExecutionContext,
                                  wine_id: str, wine_data_hash: str) -> bool:
        count = storage.write_count.get(wine_id, 0)
        if count == 0:
            raise ContractError(f"no wine record for {wine_id!r}")
        return storage.data_hash[wine_id][count] == wine_data_hash

    def validate_signature(self, storage: WineDataStorage, ctx: ExecutionContext,
                           wine_id: str, v: int, r: int, s: int) -> bool:
        if storage.write_count.get(wine_id, 0) == 0:
            raise ContractError(f"no wine record for {wine_id!r}")
        digest = prefixed_digest(wine_id, storage.tag_id[wine_id], storage.device_id[wine_id])
        try:
            return ctx.signers.signed_by(digest, Signature(v=v, r=r, s=s),
                                         storage.pub_addr[wine_id])
        except RecoveryError:
            return False

    def get_record(self, storage: WineDataStorage, ctx: ExecutionContext,
                   wine_id: str) -> Dict[str, object]:
        count = storage.write_count.get(wine_id, 0)
        if count == 0:
            raise ContractError(f"no wine record for {wine_id!r}")
        return {
            "wine_id": wine_id,
            "write_count": count,
            "read_count": storage.read_count[wine_id],
            "pub_addr": storage.pub_addr[wine_id],
            "tag_id": storage.tag_id[wine_id],
            "device_id": storage.device_id[wine_id],
            "data_hash_latest": storage.data_hash[wine_id][count],
            "data_hash_history": dict(storage.data_hash[wine_id]),
        }


class WineDataContractV2(WineDataContractV1):
    """Upgrade target: identical record semantics plus an inventory view."""

    version = "winedata-v2"
    VIEWS = WineDataContractV1.VIEWS | {"record_count"}

    def record_count(self, storage: WineDataStorage, ctx: ExecutionContext) -> int:
        return len(storage.write_count)


class Proxy:
    """Stable entry point delegating to the current implementation version.

    Storage lives here, so an upgrade changes behaviour without touching
    recorded state; the original caller identity is preserved through the
    delegated call.
    """

    def __init__(self, owner: str):
        self.owner = owner
        self.storage = WineDataStorage()
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
        return getattr(impl, method)(self.storage, ctx, **params)

    def view(self, ctx: ExecutionContext, method: str, params: Dict[str, object]) -> object:
        """Runs a read-only method of the current implementation."""
        impl = self._implementation()
        if method not in impl.VIEWS:
            raise ContractError(f"no view method {method!r} in {impl.version}")
        return getattr(impl, method)(self.storage, ctx, **params)

    def snapshot(self) -> Dict[str, object]:
        """The proxy's metadata; its storage is committed per wine."""
        return {
            "owner": self.owner,
            "current_implementation": self.current_implementation,
            "initialize_counter": dict(self.initialize_counter),
        }


class ContractRuntime:
    """Deployed contract set executed by the ledger's transactions. The tables
    below declare the registry and proxy-admin methods; wine-data calls go to
    the proxy, which takes its methods from the current implementation."""

    _TRANSACTIONS = {
        ("registry", "bootstrap_add_peer"): lambda rt, ctx, p: rt.registry.bootstrap_add_peer(
            ctx, PeerEntry(**p["entry"])),
        ("registry", "propose_peer"): lambda rt, ctx, p: rt.registry.propose_peer(
            ctx, PeerEntry(**p["entry"]), p["add"]),
        ("registry", "set_consensus_level"): lambda rt, ctx, p: rt.registry.set_consensus_level(
            ctx, p["level"]),
        ("proxy_admin", "upgrade_to"): lambda rt, ctx, p: rt.proxy.upgrade_to(ctx, p["version"]),
    }
    _VIEWS = {
        "get_peers": lambda rt, p: rt.registry.get_peers(),
        "role_of": lambda rt, p: rt.registry.role_of(p["address"]),
        "is_member": lambda rt, p: rt.registry.is_member(p["address"]),
        "consensus_level": lambda rt, p: rt.registry.consensus_level,
    }

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
            result = self.proxy.call(ctx, method, params)
        else:
            handler = self._TRANSACTIONS.get((target, method))
            if handler is None:
                raise ContractError(f"no transaction method {method!r} on {target!r}")
            self.touched.add(target)  # the registry or proxy_admin leaf
            result = handler(self, ctx, params)
        return result, ctx.events

    def call_view(self, method: str, params: Dict[str, object]) -> object:
        """Read-only call; never mutates state and emits nothing."""
        handler = self._VIEWS.get(method)
        if handler is not None:
            return handler(self, params)
        ctx = ExecutionContext(caller=_NO_CALLER, registry=self.registry, signers=self.signers)
        return self.proxy.view(ctx, method, params)

    def state_keys(self) -> List[str]:
        """Every contract key the state root commits to."""
        return ["registry", "proxy_admin", *("wine:" + w for w in self.proxy.storage.write_count)]

    def state_bytes(self, key: str) -> bytes:
        """Canonical JSON of one contract leaf; empty when the key holds nothing."""
        if key == "registry":
            value = self.registry.snapshot()
        elif key == "proxy_admin":
            value = self.proxy.snapshot()
        else:
            value = self.proxy.storage.record(key.partition(":")[2])
        return b"" if value is None else canonical_json_bytes(value)
