"""Consortium service layer: onboarding, record flows, and validation.

Every consortium member runs a blockchain service instance bound to its
chain account, vault, and store node. The services are the consortium's
member directory: a member's node key lives only in its vault, as an
encrypted keystore, and in its service. The consortium object owns the
shared infrastructure (one ledger, one private store network, the record
database) and routes receipts and contract events back to services; a
pluggable dispatcher lets the simulator defer those deliveries by one tick.
"""

import enum
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from .content_store import ContentId, PrivateNetwork
from .contracts import ContractEvent, ROLE_PARTICIPANT, ROLE_WINEMAKER
from .encoding import canonical_json_bytes
from .errors import (
    AuthError,
    ContractError,
    DnasError,
    FlowError,
    NotFoundError,
    PoolError,
    SealError,
    TagLockedError,
    TagStateError,
)
from .keccak import keccak256
from .keys import (
    KeyPair,
    create_keystore,
    decrypt_keystore,
    generate_keypair,
    sign_tag_payload,
)
from .ledger import Chain, GenesisConfig, Receipt, sign_transaction
from .records import RecordDatabase, WineRecord, WineStatus
from .tags import NfcTag
from .vault import VAULT_PREFIX_KEY, Vault, secret_path


_IDLE_BLOCK_BUDGET = 64  # blocks run_until_idle may seal before it gives up


class MemberRole(enum.Enum):
    WINEMAKER = "winemaker"
    PARTICIPANT = "participant"
    ADMINISTRATOR = "administrator"

    @property
    def registry_role(self) -> str:
        return ROLE_WINEMAKER if self is MemberRole.WINEMAKER else ROLE_PARTICIPANT


class NodeType(enum.Enum):
    VALIDATOR = "validator"
    LISTENER = "listener"


class AttackClass(enum.Enum):
    MODIFICATION = "modification"
    CLONING = "cloning"
    REAPPLICATION = "reapplication"


class ValidationLayer(enum.Enum):
    OFF_CHAIN_DB = "off_chain_db"
    ON_CHAIN = "on_chain"
    CONTENT_STORE = "content_store"


@dataclass
class ValidationOutcome:
    layer: ValidationLayer
    result: object  # "pass" or AttackClass
    details: str = ""

    @property
    def passed(self) -> bool:
        return self.result == "pass"

    def to_dict(self) -> Dict[str, object]:
        result = self.result.value if isinstance(self.result, AttackClass) else self.result
        return {"layer": self.layer.value, "result": result, "details": self.details}


@dataclass
class ValidationSession:
    """Single-use pass token linking a full validation to one acceptance."""

    wine_id: str
    issued_at: int


@dataclass
class FlowReceipt:
    """Outcome of a staged flow; on-chain fields fill in once mined."""

    wine_id: str
    status: str = "pending"            # pending | ok | error
    content_id: Optional[str] = None
    tx_hash: Optional[str] = None
    block_number: Optional[int] = None
    error: Optional[str] = None


class BlockchainService:
    """One member's blockchain service instance. It keeps no hash memo: the
    chain's ``SignerDirectory`` derives each identifier hash and tag digest once."""

    def __init__(self, consortium: "Consortium", member_id: str, role: MemberRole,
                 node_type: NodeType, vault: Vault, vault_session: str, password: str):
        self.consortium = consortium
        self.member_id = member_id
        self.role = role
        self.node_type = node_type
        # the administrator hosts the shared store node consumers go through
        self.store_node_id = ("store-shared" if role is MemberRole.ADMINISTRATOR
                              else f"store-{member_id}")
        self.vault = vault
        # the node key is read from the vault and decrypted once; no other copy is kept
        self._key = decrypt_keystore(vault.get(vault_session, secret_path(member_id, "nodekey")),
                                     password)
        self._sessions: Dict[str, ValidationSession] = {}
        self._seen_events: Set[Tuple[str, str, object]] = set()

    @property
    def address(self) -> str:
        return self._key.address.hex0x

    @property
    def chain(self) -> Chain:
        return self.consortium.chain

    def registry_entry(self) -> Dict[str, object]:
        """This member's peer-registry entry, stamped with the current time."""
        return {
            "address": self.address,
            "role": self.role.registry_role,
            "node_id": f"enode-{self.member_id}",
            "member_id": self.member_id,
            "joined_at": self.consortium.now,
        }

    # -- peer operations ------------------------------------------------------------

    def peer_validate(self, address: str) -> bool:
        """True iff the address is in the on-chain registry white list."""
        return bool(self.chain.call_view("is_member", {"address": address}))

    def vote_on_candidate(self, entry: Dict[str, object], add: bool) -> Dict[str, object]:
        """This member's vote on a registry admission or removal."""
        try:
            tx_hash = self.submit_tx("registry", "propose_peer",
                                     {"entry": dict(entry), "add": add})
        except PoolError as exc:
            return {"voted": False, "reason": str(exc)}
        return {"voted": True, "tx_hash": tx_hash}

    def request_votes(self, entry: Dict[str, object], add: bool) -> Dict[str, object]:
        """Ask every registered member's service, in the registry's address
        order, to vote on the admission or removal of ``entry``; returns each
        member's response. All are asked because the consensus level may
        change before the votes execute; the registry ignores the votes that
        arrive after the change is applied."""
        services = {s.address: s for s in self.consortium.services.values()}
        return {peer["member_id"]: services[peer["address"]].vote_on_candidate(entry, add)
                for peer in self.chain.call_view("get_peers", {})
                if peer["address"] in services}

    # -- admin operations ------------------------------------------------------------

    def upgrade_contract(self, version: str) -> str:
        if self.role is not MemberRole.ADMINISTRATOR:
            raise AuthError("contract upgrades are an administrator operation")
        return self.submit_tx("proxy_admin", "upgrade_to", {"version": version})

    def set_consensus_level(self, level: int) -> str:
        if self.role is not MemberRole.ADMINISTRATOR:
            raise AuthError("the consensus level is an administrator operation")
        return self.submit_tx("registry", "set_consensus_level", {"level": level})

    def on_contract_event(self, event: ContractEvent) -> None:
        """Administrator's listener: registry admissions and removals trigger
        the chain validator voting round. An admitted member gets its store node;
        a removed member's service stops, so that it may be onboarded again, and
        its node is revoked once the shared node has pinned what it pinned (nothing
        else may hold its subsets). Duplicate deliveries are harmless; only
        registry events are remembered."""
        if (self.role is not MemberRole.ADMINISTRATOR
                or event.kind not in ("PeerAdded", "PeerRemoved")):
            return
        key = (event.kind, event.tx_hash or "", canonical_json_bytes(event.fields))
        if key in self._seen_events:
            return
        self._seen_events.add(key)
        member_id = event.fields.get("member_id", "")
        self._validator_round(event.fields["candidate"], member_id,
                              add=event.kind == "PeerAdded")
        services, store = self.consortium.services, self.consortium.store
        admin_id = self.consortium.admin_member_id
        if event.kind == "PeerAdded" and member_id in services:
            store.add_member(admin_id, services[member_id].store_node_id)
        if event.kind != "PeerRemoved" or member_id == admin_id:
            return  # this listener's own service and node stay
        removed = services.pop(member_id, None)
        if removed is not None:
            for text in store.pinned(removed.store_node_id):
                store.pin(self.store_node_id, ContentId(text))
            store.remove_member(admin_id, removed.store_node_id)

    def _validator_round(self, candidate: str, member_id: str, add: bool) -> None:
        """Request a chain vote from every live member's node but the candidate's.
        The chain refuses a stale vote (a non-validator's, or on a candidate
        already in or out) with ``SealError`` before any change; it is skipped."""
        member = self.consortium.services.get(member_id)
        if add and (member is None or member.node_type is not NodeType.VALIDATOR):
            return  # listener nodes never join the sealer set
        for voter in self.consortium.services.values():
            if voter.address == candidate or voter.member_id in self.consortium.halted:
                continue
            try:
                self.chain.propose_validator(voter.address, candidate, add)
            except SealError:
                continue

    # -- transactions -------------------------------------------------------------------

    def submit_tx(self, target: str, method: str, params: Dict[str, object],
                  on_receipt: Optional[Callable[[Receipt], None]] = None) -> str:
        tx = sign_transaction(self._key, self.chain.genesis.chain_id, target, method,
                              params, nonce=self.chain.next_nonce(self.address))
        tx_hash = self.chain.submit_transaction(tx)
        if on_receipt is not None:
            self.consortium.track_receipt(tx_hash, on_receipt)
        return tx_hash

    # -- record flows ----------------------------------------------------------------------

    def _require_member(self) -> None:
        """Every flow starts here: a member dropped from the registry may no
        longer read or write records."""
        if not self.peer_validate(self.address):
            raise FlowError("peer-validate", f"{self.member_id} is not a consortium member")

    def create_record_flow(self, record_fields: Dict[str, object], tag: NfcTag,
                           device_id: str) -> FlowReceipt:
        self._require_member()
        if self.role is not MemberRole.WINEMAKER:
            raise FlowError("peer-validate", "record creation is a winemaker operation")
        record = WineRecord(wine_id=record_fields["wine_id"],
                            pedigree_data=dict(record_fields.get("pedigree_data", {})),
                            tag_uid=tag.tag_id, device_id=device_id)
        if tag.protection_enabled:  # before the database write, which it would orphan
            raise FlowError("tag-write", "protection already enabled")
        try:
            self.consortium.db.create(record)
        except DnasError as exc:
            raise FlowError("off-chain-create", str(exc)) from exc
        record.tag_password = tag.enable_protection(randbytes=self.consortium.randbytes).hex()
        return self._write_iteration(record, tag, self._key, self._binding(record),
                                     WineStatus.CREATED, {
            "event": "created", "holder": self.member_id, "at": self.consortium.now,
        }, "create_wine_record")

    def accept_record_flow(self, tag: NfcTag, session_id: str,
                           custodian_key: Optional[KeyPair] = None,
                           purchase: bool = False) -> FlowReceipt:
        self._require_member()
        session = self._sessions.pop(session_id, None)
        if session is None:
            raise FlowError("session", "acceptance requires a fresh full-pass validation")
        timeout = self.consortium.session_timeout
        if timeout is not None and self.consortium.now - session.issued_at > timeout:
            raise FlowError("session", "validation session expired; re-validate first")
        record = self.consortium.db.get(session.wine_id)
        if tag.tag_id != record.tag_uid:
            raise FlowError("session", "tag is not the one the session validated")
        binding = self._append_binding(record, "acceptance")
        custodian_key = custodian_key or self._key
        return self._write_iteration(
            record, tag, custodian_key, binding,
            WineStatus.SOLD if purchase else WineStatus.ACCEPTED, {
                "event": "purchased" if purchase else "accepted",
                "holder": f"consumer-via-{self.member_id}" if purchase else self.member_id,
                "custodian": custodian_key.address.hex0x,
                "at": self.consortium.now,
            }, "append_wine_record")

    def ship_record_flow(self, tag: NfcTag) -> FlowReceipt:
        """The custodian hands its wine to a carrier: a write iteration under
        its own key that sets ``IN_TRANSIT`` and logs a ``shipped`` entry.
        It takes no validation session, so it first checks, moving no
        counter, that the record still hashes to the chain's latest id and
        that the tag still holds what the record's last write put there: the
        write overwrites both, and would otherwise re-anchor a tampered copy."""
        self._require_member()
        try:
            record = self.consortium.db.get(tag.peek_wine_id())
        except (NotFoundError, TagStateError) as exc:
            raise FlowError("shipping", str(exc)) from exc
        if tag.tag_id != record.tag_uid:
            raise FlowError("shipping", "tag is not the record's")
        if record.custodian_address != self.address:
            raise FlowError("shipping", f"{self.member_id} is not the record's custodian")
        binding = self._append_binding(record, "shipping")
        if not self.chain.call_view("validate_wine_record_hash", {
                "wine_id": record.wine_id,
                "wine_data_hash": ContentId.for_content(record.subset()).text}):
            raise FlowError("shipping", "database subset hash differs from on-chain hash")
        try:
            readout = tag.peek(password=bytes.fromhex(record.tag_password))
        except DnasError as exc:
            raise FlowError("shipping", str(exc)) from exc
        if (readout.wine_id, readout.signature.hex, readout.write_counter,
                readout.read_counter) != (record.wine_id, record.last_signature,
                                          record.write_counter, record.read_counter):
            raise FlowError("shipping", "tag payload or counters differ from the database")
        return self._write_iteration(record, tag, self._key, binding, WineStatus.IN_TRANSIT, {
            "event": "shipped", "holder": self.member_id, "at": self.consortium.now,
        }, "append_wine_record")

    def _append_binding(self, record: WineRecord, stage: str) -> Tuple[str, str]:
        """The binding an append of ``record`` sends, checked before its first
        write: a flagged or failed record takes no append, nor does one whose
        tag or device identifier differs from the chain's, which would refuse it."""
        if record.wine_status is WineStatus.FLAGGED:
            raise FlowError(stage, "flagged records take no further writes")
        if record.wine_status is WineStatus.ERROR:
            raise FlowError(stage, "record is in an error state")
        binding = self._binding(record)
        try:
            on_chain = self.chain.call_view("get_record", {"wine_id": record.wine_id})
        except ContractError as exc:  # a shipment before the create was mined
            raise FlowError(stage, str(exc)) from exc
        if binding != (on_chain["tag_id"], on_chain["device_id"]):
            raise FlowError(stage, "tag or device identifier differs from the chain's")
        return binding

    # proxy method -> (content-hash parameter, flow stage, transaction_data
    # event, notice sent when the chain refuses the call)
    _ITERATIONS = {
        "create_wine_record": ("wine_data_hash", "on-chain-create", "on-chain-created",
                               "creation_failed"),
        "append_wine_record": ("new_wine_data_hash", "on-chain-append", "on-chain-appended",
                               None),
    }

    def _write_iteration(self, record: WineRecord, tag: NfcTag, key: KeyPair,
                         binding: Tuple[str, str], status: WineStatus,
                         custody: Dict[str, object], method: str) -> FlowReceipt:
        """One write iteration of a record: ``key`` signs the digest of the
        wine id and ``binding``, the record's hashed tag and device (hashed
        and digested once per chain, then reused), the tag and the record take
        the signature and the next write counter, the custody entry is logged,
        the published subset is pinned, and the proxy call is submitted. The flow
        completes on the receipt; a failed one unpins the subset, marks the
        record ``ERROR`` and sends the method's failure notice, if it has one."""
        hash_param, chain_stage, event_name, failure_notice = self._ITERATIONS[method]
        wine_id = record.wine_id
        flow = FlowReceipt(wine_id=wine_id)
        hashed_tag, hashed_device = binding
        signature = sign_tag_payload(
            self.chain.runtime.signers.tag_digest(wine_id, hashed_tag, hashed_device), key)
        write_counter = record.write_counter + 1
        try:
            tag.write(wine_id, signature, write_counter=write_counter,
                      password=bytes.fromhex(record.tag_password))
        except DnasError as exc:
            raise FlowError("tag-write", str(exc)) from exc
        record.write_counter = write_counter
        record.custodian_address = key.address.hex0x
        record.last_signature = signature.hex
        record.wine_status = status
        record.supply_chain_data.append(custody)

        try:
            content_id = self.consortium.store.add(self.store_node_id, record.subset())
            self.consortium.store.pin(self.store_node_id, content_id)
        except DnasError as exc:
            raise FlowError("content-store", str(exc)) from exc
        flow.content_id = content_id.text

        def finish(receipt: Receipt) -> None:
            if receipt.status == "ok":
                # only transaction_data takes the mined tx details: the subset
                # published for this iteration must stay reproducible from the record
                flow.status = "ok"
                flow.block_number = receipt.block_number
                record.transaction_data.append({
                    "event": event_name, "tx_hash": receipt.tx_hash,
                    "block_number": receipt.block_number,
                    "actor": self.address, "timestamp": self.consortium.now,
                })
                return
            flow.status, flow.error = "error", receipt.error
            # no chain entry names the refused subset; if this member was
            # removed meanwhile, its pins were handed to the shared node
            store = self.consortium.store
            holder = (self.store_node_id if self.store_node_id in store.members()
                      else self.consortium.shared_service.store_node_id)
            store.unpin(holder, content_id)
            record.wine_status = WineStatus.ERROR
            if failure_notice is not None:
                self.consortium.notify({
                    "type": failure_notice, "wine_id": wine_id, "stage": chain_stage,
                    "error": receipt.error, "tag_reissue": record.tag_uid,
                    "at": self.consortium.now,
                })
        flow.tx_hash = self.submit_tx("proxy", method, {
            "wine_id": wine_id,
            hash_param: content_id.text,
            "new_public_address": key.address.hex0x,
            "tag_id": hashed_tag,
            "device_id": hashed_device,
        }, on_receipt=finish)
        return flow

    # -- three-layered validation flow -------------------------------------------------------

    def validate_record_flow(self, tag: NfcTag) -> Tuple[List[ValidationOutcome],
                                                         Optional[Dict[str, object]],
                                                         Optional[str]]:
        self._require_member()
        try:
            wine_id = tag.peek_wine_id()
        except TagStateError as exc:
            raise FlowError("tag-read", str(exc)) from exc

        record, failure = self._walk_layers(wine_id, tag)
        layers = list(ValidationLayer)
        passed = layers[:layers.index(failure[0])] if failure else layers
        outcomes = [ValidationOutcome(layer=layer, result="pass") for layer in passed]
        if failure is not None:
            layer, attack, details = failure
            outcomes.append(ValidationOutcome(layer=layer, result=attack, details=details))
            if record is not None:
                record.unsuccessful_validation_data.append({
                    "attack_class": attack.value, "layer": layer.value,
                    "details": details, "timestamp": self.consortium.now,
                })
                record.wine_status = WineStatus.FLAGGED
            self.consortium.notify({
                "type": "record_flagged", "wine_id": wine_id,
                "attack_class": attack.value, "layer": layer.value,
                "details": details, "at": self.consortium.now,
            })
            return outcomes, None, None

        # full pass: increment the read counters everywhere and mint a session
        record.read_counter += 1
        self.submit_tx("proxy", "increment_read_count", {"wine_id": wine_id})
        session_id = f"session-{self.member_id}-{wine_id}-{self.consortium.next_session_serial()}"
        self._sessions[session_id] = ValidationSession(wine_id=wine_id,
                                                       issued_at=self.consortium.now)
        latest_tx = record.transaction_data[-1] if record.transaction_data else {}
        view = {
            "wine_id": wine_id,
            "pedigree_data": dict(record.pedigree_data),
            "wine_status": record.wine_status.value,
            "tx_hash": latest_tx.get("tx_hash"),
            "block_number": latest_tx.get("block_number"),
            "write_counter": record.write_counter,
            "read_counter": record.read_counter,
        }
        return outcomes, view, session_id

    def _binding(self, record: WineRecord) -> Tuple[str, str]:
        """The record's (hashed tag uid, hashed device id), as a write sends
        them; the chain's ``SignerDirectory.hashed`` hashes each once."""
        hashed = self.chain.runtime.signers.hashed
        return hashed(record.tag_uid), hashed(record.device_id)

    def _walk_layers(self, wine_id: str, tag: NfcTag) -> Tuple[
            Optional[WineRecord], Optional[Tuple[ValidationLayer, AttackClass, str]]]:
        """Runs the three layers in order, reading each source once. Returns
        the database record (None when it has no such wine) and the first
        failure as (layer, attack, details), or None on a full pass."""
        off_chain, on_chain, content_store = ValidationLayer
        modified, cloned, reapplied = (AttackClass.MODIFICATION, AttackClass.CLONING,
                                       AttackClass.REAPPLICATION)
        try:
            record = self.consortium.db.get(wine_id)
        except NotFoundError:
            return None, (off_chain, modified, "wine identifier not found in the database")
        try:
            readout = tag.read(password=bytes.fromhex(record.tag_password))
        except TagLockedError:
            return record, (off_chain, modified, "tag rejects the injected password")
        if readout.tag_id != record.tag_uid:
            return record, (off_chain, cloned, "inconsistent tag identifier")
        if readout.write_counter != record.write_counter:
            return record, (off_chain, reapplied, "write counter differs from the database")
        if readout.read_counter != record.read_counter + 1:
            return record, (off_chain, reapplied, "read counter differs from the database")
        if readout.wine_id != record.wine_id or readout.signature.hex != record.last_signature:
            return record, (off_chain, modified,
                            "wine identifier or signature differs from the database")

        try:
            chain_record = self.chain.call_view("get_record", {"wine_id": wine_id})
        except ContractError:
            return record, (on_chain, modified, "wine identifier not found on-chain")
        # the uid equals a database record's, so the memo keeps one entry per tag
        if self.chain.runtime.signers.hashed(readout.tag_id) != chain_record["tag_id"]:
            return record, (on_chain, cloned, "inconsistent tag identifier on-chain")
        if readout.write_counter != chain_record["write_count"]:
            return record, (on_chain, reapplied, "write counter differs from on-chain state")
        if readout.read_counter != chain_record["read_count"] + 1:
            return record, (on_chain, reapplied, "read counter differs from on-chain state")
        sig = readout.signature
        if not self.chain.call_view("validate_signature", {
                "wine_id": wine_id, "v": sig.v, "r": sig.r, "s": sig.s}):
            return record, (on_chain, modified,
                            "recovered public address does not match on-chain custodian")

        subset = record.subset()
        cid = ContentId.for_content(subset)
        if not self.chain.call_view("validate_wine_record_hash", {
                "wine_id": wine_id, "wine_data_hash": cid.text}):
            return record, (content_store, modified,
                            "database subset hash differs from on-chain hash")
        try:  # the chain's latest id is this one, so the fetch decodes no base58
            fetched = self.consortium.store.get(self.store_node_id, cid)
        except DnasError as exc:
            return record, (content_store, modified, f"stored subset unavailable: {exc}")
        if fetched != subset:
            return record, (content_store, modified,
                            "stored subset bytes differ from the database")
        return record, None


class Consortium:
    """Shared infrastructure plus the directory of member services."""

    def __init__(self, bootstrap_count: int = 5, seed: int = 0,
                 initial_members: Optional[List[Tuple[str, MemberRole, NodeType]]] = None,
                 session_timeout: Optional[int] = None):
        self.session_timeout = session_timeout
        self.rng = random.Random(seed)
        self.now = 0
        # receipts and events are delivered at once unless a simulator defers them
        self.dispatcher: Callable[..., None] = lambda fn, *args: fn(*args)
        self.services: Dict[str, BlockchainService] = {}
        self.consumers: Dict[str, KeyPair] = {}
        self.halted: Set[str] = set()
        self.notifications: List[Dict[str, object]] = []
        self._receipt_watchers: Dict[str, List[Callable[[Receipt], None]]] = {}
        self._session_serial = 0
        self._seed = seed

        members = initial_members or []
        admins = [m for m, role, _ in members if role is MemberRole.ADMINISTRATOR]
        if len(admins) != 1:
            raise DnasError("the consortium needs exactly one administrator")
        self.admin_member_id = admins[0]
        self.store = PrivateNetwork(admin=self.admin_member_id)
        self.db = RecordDatabase()
        for member_id, role, node_type in members:
            self._join(member_id, role, node_type)

        services = list(self.services.values())
        genesis = GenesisConfig(chain_id=77, period=1, initial_validators=tuple(
            s.address for s in services if s.node_type is NodeType.VALIDATOR))
        admin = self.shared_service
        self.chain = Chain(genesis, contract_admin=admin.address,
                           bootstrap_count=bootstrap_count)
        self._store_deployment_secret(admin)
        # registry bootstrap: the administrator inserts the initial members
        for service in services:
            admin.submit_tx("registry", "bootstrap_add_peer",
                            {"entry": service.registry_entry()})
        self.run_until_idle()

    # -- provisioning -----------------------------------------------------------------

    def randbytes(self, n: int) -> bytes:
        return self.rng.randbytes(n)

    # bound methods, not closures, so that a deep copy's vaults follow the copy
    def _vault_clock(self) -> float:
        return float(self.now)

    def _vault_token(self) -> str:
        return self.rng.randbytes(16).hex()

    def _join(self, member_id: str, role: MemberRole,
              node_type: NodeType) -> BlockchainService:
        """Provision a member's node key and vault, and start its service; the
        key is kept only as the vault's encrypted keystore. The member's store
        node waits for its registry admission."""
        if member_id in self.services:
            raise DnasError(f"{member_id!r} is already a consortium member")
        key = generate_keypair(keccak256(f"member:{self._seed}:{member_id}".encode()))
        vault = Vault(clock=self._vault_clock, token_source=self._vault_token)
        role_id, secret_id = vault.create_approle([f"{VAULT_PREFIX_KEY}/{member_id}/"],
                                                  lease_seconds=10**9)
        session = vault.login(role_id, secret_id)
        password = self.rng.randbytes(8).hex()
        keystore = create_keystore(key, password, rng=self.rng)
        vault.put(session, secret_path(member_id, "nodekey"), keystore)
        service = BlockchainService(self, member_id, role, node_type, vault, session, password)
        self.services[member_id] = service
        return service

    def _store_deployment_secret(self, admin: BlockchainService) -> None:
        # contract addresses are synthesized deterministically from the owner
        def contract_address(name: str) -> str:
            return "0x" + keccak256(f"{admin.address}:{name}".encode())[-20:].hex()
        proxy_address = contract_address("proxy")
        vault = admin.vault
        self.deployment_secret_path = f"{VAULT_PREFIX_KEY}/{proxy_address}"
        operator = vault.issue_token([VAULT_PREFIX_KEY], lease_seconds=None)  # root-scoped
        vault.put(operator, self.deployment_secret_path, {
            "kind": "SCDeploymentSecret",
            "proxy": proxy_address,
            "wine_data_contract": contract_address("winedata-v1"),
            "peer_registry_contract": contract_address("registry"),
            "owner": admin.address,
        })

    # -- membership ------------------------------------------------------------------

    def onboard_member(self, member_id: str, role: MemberRole,
                       node_type: NodeType) -> Dict[str, object]:
        """Full onboarding: join the member, then registry admission (the
        administrator's insert during bootstrap, every member's vote after)."""
        service = self._join(member_id, role, node_type)
        entry = service.registry_entry()
        if self.chain.call_view("in_bootstrap_stage", {}):
            self.shared_service.submit_tx("registry", "bootstrap_add_peer", {"entry": entry})
            return {"member_id": member_id, "mode": "bootstrap"}
        responses = service.request_votes(entry, add=True)
        return {"contacted": len(responses), "responses": responses,
                "member_id": member_id, "mode": "vote"}

    def propose_member_removal(self, proposer_id: str, member_id: str) -> Dict[str, object]:
        for who in (proposer_id, member_id):
            if who not in self.services:
                raise DnasError(f"no consortium member {who!r}")
        entry = self.services[member_id].registry_entry()
        return {"responses": self.services[proposer_id].request_votes(entry, add=False)}

    def add_consumer(self, consumer_id: str) -> KeyPair:
        """Consumers hold their own keys but use the consortium-hosted shared
        service and store node."""
        key_seed = keccak256(f"consumer:{self._seed}:{consumer_id}".encode())
        key = generate_keypair(key_seed)
        self.consumers[consumer_id] = key
        return key

    @property
    def shared_service(self) -> BlockchainService:
        return self.services[self.admin_member_id]

    # -- receipts and events ------------------------------------------------------------

    def track_receipt(self, tx_hash: str, callback: Callable[[Receipt], None]) -> None:
        self._receipt_watchers.setdefault(tx_hash, []).append(callback)

    def notify(self, payload: Dict[str, object]) -> None:
        self.notifications.append(payload)

    def _deliver_block_results(self, block) -> None:
        admin_service = self.services[self.admin_member_id]
        for tx in block.transactions:
            receipt = self.chain.receipts[tx.tx_hash]
            for callback in self._receipt_watchers.pop(tx.tx_hash, []):
                self.dispatcher(callback, receipt)
            for event in receipt.events:
                self.dispatcher(admin_service.on_contract_event, event)

    # -- block production ---------------------------------------------------------------

    def _next_seal(self) -> Optional[Tuple[int, str]]:
        """(earliest time, sealer) of the first rotation offset whose
        validator is not halted; None when every validator is halted. Later
        offsets open even later, so no other live sealer can seal sooner."""
        halted = {self.services[m].address for m in self.halted if m in self.services}
        for offset in range(len(self.chain.validators)):
            sealer = self.chain.sealer_at_offset(offset)
            if sealer not in halted:
                return self.chain.earliest_seal(offset), sealer
        return None

    def seal_due(self, now: int) -> Optional[object]:
        """Seal a block if some live validator's turn window is open."""
        self.now = max(self.now, now)
        next_seal = self._next_seal()
        if next_seal is None or now < next_seal[0]:
            return None
        block = self.chain.seal_block(next_seal[1], now)
        self._deliver_block_results(block)
        return block

    def run_until_idle(self) -> None:
        """Advance simulated time and seal until no work remains; serves the
        synchronous (non-simulator) use of the consortium."""
        for _ in range(_IDLE_BLOCK_BUDGET):
            if not self.chain.pool and not self._receipt_watchers:
                return
            next_seal = self._next_seal()
            if next_seal is None:
                raise SealError("no live validator can seal")
            self.seal_due(next_seal[0])
        if self.chain.pool:
            raise SealError("pool did not drain within the block budget")

    def next_session_serial(self) -> int:
        self._session_serial += 1
        return self._session_serial

    # -- reporting ------------------------------------------------------------------------

    def counters_in_sync(self, wine_id: str, tag: NfcTag) -> bool:
        record = self.db.get(wine_id)
        on_chain = self.chain.call_view("get_record", {"wine_id": wine_id})
        return (tag.read_counter == record.read_counter == on_chain["read_count"]
                and tag.write_counter == record.write_counter == on_chain["write_count"])
