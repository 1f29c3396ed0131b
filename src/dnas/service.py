"""Consortium service layer: onboarding, record flows, and validation.

Every consortium member runs a blockchain service instance bound to its
chain account, vault, and store node. The services are the consortium's
member directory: a member's node key lives only in its vault, as an
encrypted keystore, and in its service. The consortium object owns the
shared infrastructure (one ledger, one private store network, the record
database) and its tick clock; each mined receipt and contract event waits on
its message bus and reaches the services on the next tick, after the block.
"""

import enum
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from .content_store import ContentId, PrivateNetwork
from .contracts import ContractEvent, ROLE_PARTICIPANT, ROLE_WINEMAKER
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
    hash_identifier,
    sign_tag_payload,
)
from .ledger import Chain, GenesisConfig, Receipt, sign_transaction
from .records import RecordDatabase, WineRecord, WineStatus
from .tags import NfcTag
from .vault import VAULT_PREFIX_KEY, Vault, secret_path


_IDLE_TICKS = 64  # ticks run_until_idle may take before it gives up


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
    """Single-use pass token for one acceptance, named by its full pass's read tx hash."""

    session_id: str
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
    chain's ``SignerDirectory`` derives each tag digest once."""

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
        # wine_id -> its latest full pass here: a newer one replaces the older
        # session, which validated a tag state that the later read moved past
        self._sessions: Dict[str, ValidationSession] = {}

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
        """Administrator's listener (the consortium sends events to no other
        service): registry admissions and removals trigger the chain validator
        voting round. An admitted member gets its store node; a removed member's
        service stops, so that it may be onboarded again, and its node is revoked
        once the shared node has pinned what it pinned (nothing else may hold its
        subsets). It keeps no memo: on a re-delivered event the chain refuses
        every stale vote, the store keeps the node it has, and the removed
        service is already gone."""
        if event.kind not in ("PeerAdded", "PeerRemoved"):
            return
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

    def submit_tx(self, target: str, method: str, params: Dict[str, object]) -> str:
        tx = sign_transaction(self._key, self.chain.genesis.chain_id, target, method,
                              params, nonce=self.chain.next_nonce(self.address))
        return self.chain.submit_transaction(tx)

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
        wine_id, pedigree = record_fields.get("wine_id"), record_fields.get("pedigree_data", {})
        if not (isinstance(wine_id, str) and isinstance(device_id, str)
                and isinstance(pedigree, dict)):
            raise FlowError("off-chain-create", "wine_id and device_id must be strings "
                            "and pedigree_data an object")
        record = WineRecord(wine_id=wine_id, pedigree_data=dict(pedigree),
                            tag_uid=tag.tag_id, device_id=device_id)
        if tag.password is not None:  # before the database write, which a failure would orphan
            raise FlowError("tag-write", "protection already enabled")
        try:  # for the same reason: the subset's encoding, the binding and the tag
            # digest (memoised for _write_iteration; it bounds the wine id)
            record.subset()
            self.chain.runtime.signers.tag_digest(record.wine_id, *self._binding(record))
            self.consortium.db.create(record)
        except DnasError as exc:
            raise FlowError("off-chain-create", str(exc)) from exc
        record.tag_password = tag.enable_protection(randbytes=self.consortium.randbytes).hex()
        return self._write_iteration(record, tag, self._key, WineStatus.CREATED, self.member_id)

    def accept_record_flow(self, tag: NfcTag, session_id: str,
                           custodian_key: Optional[KeyPair] = None,
                           purchase: bool = False) -> FlowReceipt:
        """An acceptance, or a consumer's purchase under ``custodian_key``: it
        spends this service's session for the tag's wine, then makes the pre-write check."""
        self._require_member()
        try:
            wine_id = tag.peek_wine_id()
        except TagStateError as exc:
            raise FlowError("session", str(exc)) from exc
        session = self._sessions.get(wine_id)
        if session is None or session.session_id != session_id:
            raise FlowError("session", "acceptance requires a fresh full-pass validation")
        del self._sessions[wine_id]
        timeout = self.consortium.session_timeout
        if timeout is not None and self.consortium.now - session.issued_at > timeout:
            raise FlowError("session", "validation session expired; re-validate first")
        record = self.consortium.db.get(wine_id)
        self._check_append(record, tag, "acceptance")
        return self._write_iteration(
            record, tag, custodian_key or self._key,
            WineStatus.SOLD if purchase else WineStatus.ACCEPTED,
            f"consumer-via-{self.member_id}" if purchase else self.member_id)

    def ship_record_flow(self, tag: NfcTag) -> FlowReceipt:
        """The custodian hands its wine to a carrier: a write iteration under
        its own key that sets ``IN_TRANSIT`` and logs a ``shipped`` entry.
        Only the custodian ships; it needs no session, only the pre-write check."""
        self._require_member()
        try:
            record = self.consortium.db.get(tag.peek_wine_id())
        except (NotFoundError, TagStateError) as exc:
            raise FlowError("shipping", str(exc)) from exc
        if record.custodian_address != self.address:
            raise FlowError("shipping", f"{self.member_id} is not the record's custodian")
        self._check_append(record, tag, "shipping")
        return self._write_iteration(record, tag, self._key, WineStatus.IN_TRANSIT, self.member_id)

    def _check_append(self, record: WineRecord, tag: NfcTag, stage: str) -> None:
        """Every append's pre-write check. A write must not re-anchor a tampered
        copy, so it refuses a flagged record and any record and tag a scan would
        flag or refuse (``_check_record``)."""
        if record.wine_status is WineStatus.FLAGGED:
            raise FlowError(stage, "flagged records take no further writes")
        if (failure := self._check_record(record, tag)) is not None:
            raise FlowError(stage, failure[2])

    # proxy method -> (content-hash parameter, flow stage, transaction_data
    # event, notice sent when the chain refuses the call)
    _ITERATIONS = {
        "create_wine_record": ("wine_data_hash", "on-chain-create", "on-chain-created",
                               "creation_failed"),
        "append_wine_record": ("new_wine_data_hash", "on-chain-append", "on-chain-appended",
                               None),
    }
    # the custody event a write iteration logs for the status it sets
    _CUSTODY_EVENTS = {WineStatus.CREATED: "created", WineStatus.IN_TRANSIT: "shipped",
                       WineStatus.ACCEPTED: "accepted", WineStatus.SOLD: "purchased"}

    def _write_iteration(self, record: WineRecord, tag: NfcTag, key: KeyPair,
                         status: WineStatus, holder: str) -> FlowReceipt:
        """One write iteration of a record: ``key`` signs the digest of the wine
        id and the record's binding (digested once per chain), the tag and record
        take the signature and next write counter, the record takes ``status`` and
        logs its event, ``holder``, ``key``'s address and the time, the subset is
        pinned, and the proxy call is submitted: the create for ``CREATED``, else
        the append. The flow completes on the receipt, in ``_finish_write``; a
        failed one unpins the subset, marks the record ``ERROR`` and sends the
        method's failure notice, if it has one."""
        method = "create_wine_record" if status is WineStatus.CREATED else "append_wine_record"
        hash_param = self._ITERATIONS[method][0]
        wine_id = record.wine_id
        flow = FlowReceipt(wine_id=wine_id)
        hashed_tag, hashed_device = self._binding(record)
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
        record.supply_chain_data.append({"event": self._CUSTODY_EVENTS[status], "holder": holder,
                                         "custodian": key.address.hex0x, "at": self.consortium.now})

        try:
            content_id = self.consortium.store.add(self.store_node_id, record.subset())
            self.consortium.store.pin(self.store_node_id, content_id)
        except DnasError as exc:
            raise FlowError("content-store", str(exc)) from exc
        flow.content_id = content_id.text
        flow.tx_hash = self.submit_tx("proxy", method, {
            "wine_id": wine_id,
            hash_param: content_id.text,
            "new_public_address": key.address.hex0x,
            "tag_id": hashed_tag,
            "device_id": hashed_device,
        })
        # a bound method and plain values: a deep copy's receipt completes the copy's flow
        self.consortium.track_receipt(flow.tx_hash, self._finish_write, flow, record,
                                      content_id, method)
        return flow

    def _finish_write(self, flow: FlowReceipt, record: WineRecord, content_id: ContentId,
                      method: str, receipt: Receipt) -> None:
        _, chain_stage, event_name, failure_notice = self._ITERATIONS[method]
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
            self.consortium.notifications.append({
                "type": failure_notice, "wine_id": record.wine_id, "stage": chain_stage,
                "error": receipt.error, "tag_reissue": record.tag_uid,
                "at": self.consortium.now,
            })

    # -- three-layered validation flow -------------------------------------------------------

    def validate_record_flow(self, tag: NfcTag) -> Tuple[List[ValidationOutcome],
                                                         Optional[Dict[str, object]],
                                                         Optional[str]]:
        self._require_member()
        try:
            wine_id = tag.peek_wine_id()
            record = self.consortium.db.get(wine_id)
        except TagStateError as exc:
            if not tag.memory:
                raise FlowError("tag-read", str(exc)) from exc
            wine_id, record = None, None  # a payload naming no wine: no record to flag
            failure = (ValidationLayer.OFF_CHAIN_DB, AttackClass.MODIFICATION, str(exc))
        except NotFoundError:
            record = None
            failure = (ValidationLayer.OFF_CHAIN_DB, AttackClass.MODIFICATION,
                       "wine identifier not found in the database")
        else:
            failure = self._check_record(record, tag)
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
            self.consortium.notifications.append({
                "type": "record_flagged", "wine_id": wine_id,
                "attack_class": attack.value, "layer": layer.value,
                "details": details, "at": self.consortium.now,
            })
            return outcomes, None, None

        # full pass: one read, counted on the chain, the tag and the record; the session is its tx
        session_id = self.submit_tx("proxy", "increment_read_count", {"wine_id": wine_id})
        tag.read(bytes.fromhex(record.tag_password))
        record.read_counter += 1
        self._sessions[wine_id] = ValidationSession(session_id=session_id,
                                                    issued_at=self.consortium.now)
        return outcomes, record.view(), session_id

    def _binding(self, record: WineRecord) -> Tuple[str, str]:
        """The SHA-256 of the record's tag uid and of its device id
        (``hash_identifier``), as a write sends them."""
        return hash_identifier(record.tag_uid), hash_identifier(record.device_id)

    def _check_record(self, record: WineRecord, tag: NfcTag) -> Optional[
            Tuple[ValidationLayer, AttackClass, str]]:
        """The three layers in order, reading each source once: a peek at the
        tag (no read counted) against the database record, both against the
        chain, then the record's subset id against the chain's, which the store
        must serve. Returns the first failure as (layer, attack, details), or
        None. While the pool holds a transaction for the wine, or once the chain
        refused its last write (``ERROR``), the chain is not the record's to judge
        against: raises ``FlowError`` after the off-chain checks."""
        off_chain, on_chain, content_store = ValidationLayer
        modified, cloned, reapplied = (AttackClass.MODIFICATION, AttackClass.CLONING,
                                       AttackClass.REAPPLICATION)
        try:
            readout = tag.peek(bytes.fromhex(record.tag_password))
        except TagLockedError:
            return off_chain, modified, "tag rejects the injected password"
        except TagStateError as exc:
            return off_chain, modified, str(exc)
        if readout.tag_id != record.tag_uid:
            return off_chain, cloned, "inconsistent tag identifier"
        if readout.write_counter != record.write_counter:
            return off_chain, reapplied, "write counter differs from the database"
        if readout.read_counter != record.read_counter:
            return off_chain, reapplied, "read counter differs from the database"
        if readout.wine_id != record.wine_id or readout.signature.hex != record.last_signature:
            return off_chain, modified, "wine identifier or signature differs from the database"

        wine_id = record.wine_id
        if any(tx.params.get("wine_id") == wine_id for tx in self.chain.pool):
            raise FlowError("chain-pending", f"a transaction for {wine_id!r} is not yet mined")
        if record.wine_status is WineStatus.ERROR:
            raise FlowError("chain-refused", f"the chain refused the last write of {wine_id!r}")
        try:
            chain_record = self.chain.call_view("get_record", {"wine_id": wine_id})
        except ContractError:
            return on_chain, modified, "wine identifier not found on-chain"
        hashed_tag, hashed_device = self._binding(record)
        if hashed_tag != chain_record["tag_id"]:
            return on_chain, cloned, "inconsistent tag identifier on-chain"
        if hashed_device != chain_record["device_id"]:
            return on_chain, modified, "inconsistent device identifier on-chain"
        if readout.write_counter != chain_record["write_count"]:
            return on_chain, reapplied, "write counter differs from on-chain state"
        if readout.read_counter != chain_record["read_count"]:
            return on_chain, reapplied, "read counter differs from on-chain state"
        sig = readout.signature
        if not self.chain.call_view("validate_signature", {
                "wine_id": wine_id, "v": sig.v, "r": sig.r, "s": sig.s}):
            return on_chain, modified, "recovered public address does not match on-chain custodian"

        cid = ContentId.for_content(record.subset())
        if not self.chain.call_view("validate_wine_record_hash", {
                "wine_id": wine_id, "wine_data_hash": cid.text}):
            return content_store, modified, "database subset hash differs from on-chain hash"
        try:  # the store serves only bytes that hash to this id, the chain's latest
            self.consortium.store.get(self.store_node_id, cid)
        except DnasError as exc:
            return content_store, modified, f"stored subset unavailable: {exc}"
        return None


class Consortium:
    """Shared infrastructure plus the directory of member services."""

    def __init__(self, bootstrap_count: int = 5, seed: int = 0,
                 initial_members: Optional[List[Tuple[str, MemberRole, NodeType]]] = None,
                 session_timeout: Optional[int] = None):
        from .simnet import MessageBus  # simnet imports this module
        self.session_timeout = session_timeout
        self.rng = random.Random(seed)
        self.now = 0
        self.bus = MessageBus()
        self.services: Dict[str, BlockchainService] = {}
        self.consumers: Dict[str, KeyPair] = {}
        self.halted: Set[str] = set()
        self.notifications: List[Dict[str, object]] = []
        self._receipt_watchers: Dict[str, List[Tuple[Callable[..., None], tuple]]] = {}
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
        """Provision a member's node key and vault, and start its service. The key
        is kept only as the vault's encrypted keystore, which the service reads in
        this tick with the one token (an hour's lease on the member's own path)
        the consortium issues it. The store node waits for registry admission."""
        if member_id in self.services:
            raise DnasError(f"{member_id!r} is already a consortium member")
        key = generate_keypair(keccak256(f"member:{self._seed}:{member_id}".encode()))
        vault = Vault(clock=self._vault_clock, token_source=self._vault_token)
        session = vault.issue_token([f"{VAULT_PREFIX_KEY}/{member_id}/"])
        password = self.rng.randbytes(8).hex()
        keystore = create_keystore(key, password, rng=self.rng)
        vault.put(session, secret_path(member_id, "nodekey"), keystore)
        service = BlockchainService(self, member_id, role, node_type, vault, session, password)
        self.services[member_id] = service
        return service

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

    def track_receipt(self, tx_hash: str, callback: Callable[..., None], *args) -> None:
        """Call ``callback(*args, receipt)`` once the transaction's receipt is delivered."""
        self._receipt_watchers.setdefault(tx_hash, []).append((callback, args))

    def dispatcher(self, fn: Callable[..., None], *args) -> None:
        """Deliver ``fn(*args)`` on the next tick: a block's receipts and events
        reach the services after the block, never inside the call that sealed it."""
        self.bus.schedule(self.now + 1, fn, *args)

    def _deliver_block_results(self, block) -> None:
        admin_service = self.services[self.admin_member_id]
        for tx in block.transactions:
            receipt = self.chain.receipts[tx.tx_hash]
            for callback, args in self._receipt_watchers.pop(tx.tx_hash, []):
                self.dispatcher(callback, *args, receipt)
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
        next_seal = self._next_seal()
        if next_seal is None or now < next_seal[0]:
            return None
        block = self.chain.seal_block(next_seal[1], now)
        self._deliver_block_results(block)
        return block

    def tick(self, now: int, operations: Iterable[Callable[[], None]] = ()) -> None:
        """One tick of the clock: deliver what is due, run the caller's
        operations in order, then seal if a live validator's turn is open."""
        self.now = now
        self.bus.deliver_due(now)
        for operation in operations:
            operation()
        self.seal_due(now)

    def run_until_idle(self) -> None:
        """Tick until the pool, the receipt watchers and the bus are empty,
        for at most 64 ticks; a scenario run drains by this same rule."""
        stop = self.now + _IDLE_TICKS
        while self.chain.pool or self._receipt_watchers or self.bus.pending():
            if self.now >= stop:
                raise SealError("no live validator can seal" if self._next_seal() is None
                                else f"work is left after {_IDLE_TICKS} ticks")
            self.tick(self.now + 1)

    # -- reporting ------------------------------------------------------------------------

    def counters_in_sync(self, wine_id: str, tag: NfcTag) -> bool:
        record = self.db.get(wine_id)
        on_chain = self.chain.call_view("get_record", {"wine_id": wine_id})
        return (tag.read_counter == record.read_counter == on_chain["read_count"]
                and tag.write_counter == record.write_counter == on_chain["write_count"])
