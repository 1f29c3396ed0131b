"""Proof-of-authority chain with a rotating sealer set.

Blocks are sealed every period by the in-turn validator (round-robin over
the validator list, with a grace-delayed skip rule for halted sealers).
Validator membership changes through distinct-voter proposals that pass at
floor(N/2)+1, counted by ``contracts.cast_vote`` as the registry's are; the
votes ride block headers so replicas replaying the block sequence reproduce
the same validator set and state root. Gas is free: a transaction carries
no gas price and an account holds only its nonce, but the per-block gas
limit follows the dynamic rule driven by parent usage, never below one
transaction. The state root commits to all consensus state, a leaf per key:
each wine record (its ``contracts.WineEntry``), the registry, the proxy's
metadata, each account's nonce, the validators and their tallies. Writers
mark the keys they touch and sealing rehashes only those (``StateTree``).
"""

import copy
import hashlib
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Set, Tuple

from . import secp256k1
from .contracts import ContractEvent, ContractRuntime, Tallies, cast_vote, tally_snapshot
from .encoding import canonical_json_bytes
from .errors import (
    ConfigError,
    NotFoundError,
    PoolError,
    RecoveryError,
    SealError,
)
from .keys import KeyPair, Signature

TX_GAS = 21_000
GAS_LIMIT_FLOOR = TX_GAS  # below one transaction's gas a block could never drain the pool
GAS_BOUND_DIVISOR = 1024

_ZERO_HASH = "0x" + "00" * 32
_ZERO_ADDR = "0x" + "00" * 20
_LEAF, _NODE = b"\x00", b"\x01"  # domain prefixes, as in RFC 6962


def next_gas_limit(parent_gas_limit: int, parent_gas_used: int) -> int:
    """Raise the limit when the parent used more than 2/3 of its budget,
    lower it otherwise; either way move at most parent/1024 and never go
    below the floor."""
    if parent_gas_limit <= 0 or parent_gas_used < 0:
        raise ConfigError("gas inputs must be positive")
    target = (parent_gas_used * 3 + 1) // 2  # ceil(used * 3/2)
    step = parent_gas_limit // GAS_BOUND_DIVISOR
    delta = max(-step, min(step, target - parent_gas_limit))
    return max(GAS_LIMIT_FLOOR, parent_gas_limit + delta)


@dataclass(frozen=True)
class GenesisConfig:
    chain_id: int
    period: int
    initial_validators: Tuple[str, ...]
    gas_limit: int = 8_000_000

    def validate(self) -> None:
        if not self.initial_validators:
            raise ConfigError("genesis needs at least one validator")
        if self.period < 1:
            raise ConfigError("block period must be at least 1")
        if self.gas_limit < GAS_LIMIT_FLOOR:
            raise ConfigError(f"genesis gas limit below one transaction ({TX_GAS} gas)")


@dataclass(frozen=True)
class SignedTransaction:
    sender: str
    target: str
    method: str
    params: Dict[str, object]
    nonce: int
    chain_id: int
    signature: Signature

    @staticmethod
    def signing_digest(sender: str, target: str, method: str, params: Dict[str, object],
                       nonce: int, chain_id: int) -> bytes:
        unsigned = canonical_json_bytes({
            "sender": sender, "target": target, "method": method, "params": params,
            "nonce": nonce, "chain_id": chain_id,
        })
        return hashlib.sha256(unsigned).digest()

    @cached_property
    def digest(self) -> bytes:
        return self.signing_digest(self.sender, self.target, self.method, self.params,
                                   self.nonce, self.chain_id)

    @cached_property
    def tx_hash(self) -> str:
        return "0x" + hashlib.sha256(self.digest + self.signature.to_bytes()).hexdigest()

    def to_dict(self) -> Dict[str, object]:
        return {
            "sender": self.sender, "target": self.target, "method": self.method,
            "params": self.params, "nonce": self.nonce, "chain_id": self.chain_id,
            "signature": self.signature.hex, "tx_hash": self.tx_hash,
        }


def sign_transaction(key: KeyPair, chain_id: int, target: str, method: str,
                     params: Dict[str, object], nonce: int) -> SignedTransaction:
    digest = SignedTransaction.signing_digest(key.address.hex0x, target, method,
                                              params, nonce, chain_id)
    v, r, s = secp256k1.sign_digest(key.secret, digest)
    tx = SignedTransaction(sender=key.address.hex0x, target=target, method=method,
                           params=params, nonce=nonce, chain_id=chain_id,
                           signature=Signature(v=v, r=r, s=s))
    tx.__dict__["digest"] = digest  # the cached_property's slot: the fields are encoded once
    return tx


@dataclass
class Receipt:
    tx_hash: str
    block_number: int
    status: str                       # "ok" | "error"
    error: Optional[str] = None
    result: Optional[object] = None
    events: List[ContractEvent] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class Block:
    number: int
    parent_hash: str
    sealer: str
    timestamp: int
    gas_limit: int
    gas_used: int
    transactions: List[SignedTransaction]
    state_root: str
    votes: List[Dict[str, object]] = field(default_factory=list)

    @property
    def hash(self) -> str:
        header = canonical_json_bytes({
            "number": self.number, "parent_hash": self.parent_hash, "sealer": self.sealer,
            "timestamp": self.timestamp, "gas_limit": self.gas_limit,
            "gas_used": self.gas_used, "state_root": self.state_root,
            "votes": self.votes, "tx_hashes": [t.tx_hash for t in self.transactions],
        })
        return "0x" + hashlib.sha256(header).hexdigest()

    def to_dict(self) -> Dict[str, object]:
        return {
            "number": self.number, "hash": self.hash, "parent_hash": self.parent_hash,
            "sealer": self.sealer, "timestamp": self.timestamp,
            "gas_limit": self.gas_limit, "gas_used": self.gas_used,
            "state_root": self.state_root, "votes": self.votes,
            "transactions": [t.to_dict() for t in self.transactions],
        }


class StateTree:
    """Two-level Merkle commitment: a leaf hashes ``0x00 ‖ key ‖ 0x00 ‖ value``,
    a node ``0x01`` and its children's hashes. A key's bucket is the first
    byte of sha256(key); a bucket node covers its leaves in key order and the
    root the 256 bucket nodes. ``root`` rehashes only the keys marked in
    ``touched``; a key whose value encodes to no bytes has no leaf."""

    def __init__(self, encode: Callable[[str], bytes], touched: Set[str]):
        self._encode = encode
        self.touched = touched
        self._leaves: List[Dict[str, bytes]] = [{} for _ in range(256)]
        self._nodes = [hashlib.sha256(_NODE).digest()] * 256
        self._root = ""

    def root(self) -> str:
        dirty = set()
        for key in self.touched:
            raw = key.encode()
            bucket = hashlib.sha256(raw).digest()[0]
            if value := self._encode(key):
                self._leaves[bucket][key] = hashlib.sha256(_LEAF + raw + _LEAF + value).digest()
            else:
                self._leaves[bucket].pop(key, None)
            dirty.add(bucket)
        self.touched.clear()
        for bucket in dirty:
            leaves = self._leaves[bucket]
            self._nodes[bucket] = hashlib.sha256(
                _NODE + b"".join(leaves[key] for key in sorted(leaves))).digest()
        if dirty or not self._root:
            self._root = "0x" + hashlib.sha256(_NODE + b"".join(self._nodes)).hexdigest()
        return self._root


class Chain:
    """One node's view of the ledger; authoritative when it seals, replica
    when it applies blocks produced elsewhere."""

    def __init__(self, genesis: GenesisConfig, contract_admin: str,
                 bootstrap_count: int = 5):
        genesis.validate()
        self.genesis = genesis
        self.runtime = ContractRuntime(admin=contract_admin, bootstrap_count=bootstrap_count)
        self.state = StateTree(self.state_bytes, self.runtime.touched)
        self.validators: List[str] = list(genesis.initial_validators)
        self.tallies: Tallies = {}
        self.nonces: Dict[str, int] = {}
        self.pool: List[SignedTransaction] = []
        self._pool_hashes: Set[str] = set()
        self._pooled_by_sender: Counter[str] = Counter()
        self.receipts: Dict[str, Receipt] = {}
        self._pending_votes: List[Dict[str, object]] = []
        self.state.touched.update(self.state_keys())
        self.blocks: List[Block] = [Block(
            number=0, parent_hash=_ZERO_HASH, sealer=_ZERO_ADDR, timestamp=0,
            gas_limit=genesis.gas_limit, gas_used=0, transactions=[],
            state_root=self.state.root(),
        )]

    # -- state ---------------------------------------------------------------------

    def state_keys(self) -> List[str]:
        """Every key the state root commits to."""
        return [*self.runtime.state_keys(), "validators", "tallies",
                *("nonce:" + a for a in self.nonces)]

    def state_bytes(self, key: str) -> bytes:
        """Canonical JSON of one leaf's value; empty when the key holds nothing."""
        kind, _, address = key.partition(":")
        if kind == "nonce":
            value = self.nonces.get(address)
        elif key == "validators":
            value = self.validators
        elif key == "tallies":
            value = tally_snapshot(self.tallies)
        else:
            return self.runtime.state_bytes(key)
        return b"" if value is None else canonical_json_bytes(value)

    @property
    def height(self) -> int:
        return self.blocks[-1].number

    @property
    def head(self) -> Block:
        return self.blocks[-1]

    def account_nonce(self, address: str) -> int:
        return self.nonces.get(address, 0)

    def next_nonce(self, address: str) -> int:
        """Account nonce plus the sender's transactions already pooled."""
        return self.account_nonce(address) + self._pooled_by_sender[address]

    # -- pool -----------------------------------------------------------------------

    def submit_transaction(self, tx: SignedTransaction) -> str:
        if tx.tx_hash in self._pool_hashes or tx.tx_hash in self.receipts:
            raise PoolError("duplicate transaction")
        self._verify(tx, self.next_nonce(tx.sender), PoolError)
        self.pool.append(tx)
        self._pool_hashes.add(tx.tx_hash)
        self._pooled_by_sender[tx.sender] += 1
        return tx.tx_hash

    def _verify(self, tx: SignedTransaction, nonce: int, error: type) -> None:
        """Chain id, params, signer and nonce, at admission and before a replica executes."""
        if tx.chain_id != self.genesis.chain_id:
            raise error(f"wrong chain id {tx.chain_id}")
        if not isinstance(tx.params, dict):  # every method takes keyword parameters
            raise error("params must be a JSON object")
        registry = self.runtime.registry
        vouched = registry.is_member(tx.sender) or tx.sender == registry.admin
        try:
            signed = self.runtime.signers.signed_by(tx.digest, tx.signature, tx.sender,
                                                    keep=vouched)
        except RecoveryError as exc:
            raise error(f"invalid signature: {exc}") from exc
        if not signed:
            raise error("signature does not recover to the sender")
        if tx.nonce != nonce:
            raise error(f"nonce {tx.nonce} out of order; expected {nonce}")

    # -- validator voting (node-level operation, carried in headers) -----------------

    def propose_validator(self, voter: str, candidate: str, add: bool) -> Dict[str, object]:
        record = {"voter": voter, "candidate": candidate, "add": add}
        result = self._apply_vote(record)
        self._pending_votes.append(record)
        return result

    def _apply_vote(self, record: Dict[str, object]) -> Dict[str, object]:
        voter, candidate, add = record["voter"], record["candidate"], record["add"]
        if voter not in self.validators:
            raise SealError("only current validators may vote on the sealer set")
        if add and candidate in self.validators:
            raise SealError(f"{candidate} is already a validator")
        if not add and candidate not in self.validators:
            raise SealError(f"{candidate} is not a validator")
        self.state.touched.update(("validators", "tallies"))
        threshold = len(self.validators) // 2 + 1
        tally, passed = cast_vote(self.tallies, voter, candidate, add, threshold)
        if passed and add:
            self.validators.append(candidate)
        elif passed:
            self.validators.remove(candidate)
        return {"tally": tally, "required": threshold, "applied": passed}

    # -- sealing ---------------------------------------------------------------------

    def sealer_at_offset(self, offset: int = 0) -> str:
        n = len(self.validators)
        return self.validators[(self.head.number % n + offset) % n]

    def earliest_seal(self, offset: int) -> int:
        """When the validator at rotation ``offset`` may seal on the head:
        each rotation position waits one extra grace period."""
        return self.head.timestamp + self.genesis.period * (offset + 1)

    def _check_seal_schedule(self, sealer: str, timestamp: int) -> None:
        if sealer not in self.validators:
            raise SealError(f"{sealer} is not a validator")
        n = len(self.validators)
        offset = (self.validators.index(sealer) - self.head.number % n) % n
        earliest = self.earliest_seal(offset)
        if timestamp < earliest:
            raise SealError(
                f"sealer at rotation offset {offset} may not seal before t={earliest}")

    def seal_block(self, sealer: str, timestamp: int) -> Block:
        parent = self.head
        self._check_seal_schedule(sealer, timestamp)
        gas_limit = next_gas_limit(parent.gas_limit, parent.gas_used)
        included = self.pool[:gas_limit // TX_GAS]
        del self.pool[:len(included)]
        self._pool_hashes.difference_update(tx.tx_hash for tx in included)
        self._pooled_by_sender.subtract(tx.sender for tx in included)
        block = Block(
            number=parent.number + 1, parent_hash=parent.hash, sealer=sealer,
            timestamp=timestamp, gas_limit=gas_limit, gas_used=TX_GAS * len(included),
            transactions=included, state_root="",
            votes=self._pending_votes,
        )
        self._pending_votes = []
        self._execute_block(block)
        block.state_root = self.state.root()
        self.blocks.append(block)
        return block

    def _execute_block(self, block: Block) -> None:
        for tx in block.transactions:
            self.state.touched.add("nonce:" + tx.sender)
            self.nonces[tx.sender] = self.nonces.get(tx.sender, 0) + 1
            try:
                result, events = self.runtime.execute(tx.sender, tx.target, tx.method,
                                                      tx.params)
                receipt = Receipt(tx_hash=tx.tx_hash, block_number=block.number,
                                  status="ok", result=result, events=events)
            except Exception as exc:  # malformed params raise TypeError and the like
                receipt = Receipt(tx_hash=tx.tx_hash, block_number=block.number,
                                  status="error", error=str(exc))
            for event in receipt.events:
                event.block_number = block.number
                event.tx_hash = tx.tx_hash
            self.receipts[tx.tx_hash] = receipt

    def apply_block(self, block: Block) -> None:
        """Replay a block sealed elsewhere; verifies linkage, every
        transaction, schedule, gas rule, and the resulting state root. A
        block that raises after its first write leaves the chain as it found it;
        ``SignerDirectory`` keeps what it learned, which holds in any state."""
        parent = self.head
        if block.number != parent.number + 1:
            raise SealError(f"expected height {parent.number + 1}, got {block.number}")
        if block.parent_hash != parent.hash:
            raise SealError("parent hash does not match the local head")
        if block.gas_used != TX_GAS * len(block.transactions):
            raise SealError("block gas used does not match its transactions")
        nonces: Dict[str, int] = {}
        for tx in block.transactions:
            nonce = nonces.get(tx.sender, self.account_nonce(tx.sender))
            self._verify(tx, nonce, SealError)
            nonces[tx.sender] = nonce + 1
        expected_limit = next_gas_limit(parent.gas_limit, parent.gas_used)
        if block.gas_limit != expected_limit:
            raise SealError("block gas limit violates the adjustment rule")
        # every consensus value a block writes, restored in place on refusal
        live = (self.tallies, self.nonces, vars(self.runtime.registry),
                vars(self.runtime.proxy))
        validators, saved = list(self.validators), copy.deepcopy(live)
        try:
            for vote in block.votes:  # the sealer records only votes that applied
                self._apply_vote(dict(vote))
            # the sealer checked its schedule against the set after these votes
            self._check_seal_schedule(block.sealer, block.timestamp)
            self._execute_block(block)
            touched = set(self.state.touched)  # root() clears them
            if block.state_root != self.state.root():
                self.state.touched.update(touched)  # rehash their restored values
                raise SealError("replayed state root differs from the sealed block")
        except Exception:  # a malformed vote's KeyError too: nothing of the block stays
            self.validators[:] = validators
            for now, before in zip(live, saved):
                now.clear()
                now.update(before)
            for tx in block.transactions:
                self.receipts.pop(tx.tx_hash, None)
            raise
        self.blocks.append(block)

    # -- queries -----------------------------------------------------------------------

    def query_block(self, height: int) -> Block:
        if 0 <= height < len(self.blocks):
            return self.blocks[height]
        raise NotFoundError(f"no block at height {height}")

    def query_tx(self, tx_hash: str) -> Receipt:
        receipt = self.receipts.get(tx_hash)
        if receipt is None:
            raise NotFoundError(f"no transaction {tx_hash}")
        return receipt

    def call_view(self, method: str, params: Dict[str, object]) -> object:
        return self.runtime.call_view(method, params)
