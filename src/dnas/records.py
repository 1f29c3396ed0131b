"""Off-chain wine records and their embedded database.

A record carries the four data categories (pedigree, transaction history,
supply-chain custody, unsuccessful validations) plus the mirrors the
validation layers compare against: tag identity, counters, the custodian
address, and the last tag signature. The published subset is the
deterministic slice fed to content storage.
"""

import enum
from dataclasses import dataclass, field
from typing import Dict, List

from .encoding import canonical_json_bytes
from .errors import NotFoundError, RoleError


class WineStatus(enum.Enum):
    CREATED = "created"
    IN_TRANSIT = "in_transit"
    ACCEPTED = "accepted"
    SOLD = "sold"
    FLAGGED = "flagged"
    # a create or append whose receipt failed; the off-chain record stays for audit
    ERROR = "error"


@dataclass
class WineRecord:
    wine_id: str
    pedigree_data: Dict[str, object]
    wine_status: WineStatus = WineStatus.CREATED
    transaction_data: List[Dict[str, object]] = field(default_factory=list)
    supply_chain_data: List[Dict[str, object]] = field(default_factory=list)
    unsuccessful_validation_data: List[Dict[str, object]] = field(default_factory=list)
    write_counter: int = 0
    read_counter: int = 0
    tag_uid: str = ""
    tag_password: str = ""
    device_id: str = ""
    custodian_address: str = ""
    last_signature: str = ""

    def subset(self) -> bytes:
        """Canonical bytes of the published slice; excludes validation logs
        and raw transaction history (those live on-chain by hash)."""
        return canonical_json_bytes({
            "wine_id": self.wine_id,
            "pedigree_data": self.pedigree_data,
            "wine_status": self.wine_status.value,
            "supply_chain_data": self.supply_chain_data,
            "subset_version": self.write_counter,
        })


class RecordDatabase:
    """Embedded key-value store of wine records, keyed by wine identifier.

    Create and update are restricted to the winemaker role; the flow-internal
    mutators below append transaction and custody entries on behalf of
    validated accept/purchase operations.
    """

    def __init__(self):
        self._records: Dict[str, WineRecord] = {}

    def create(self, caller_role: str, record: WineRecord) -> WineRecord:
        if caller_role != "winemaker":
            raise RoleError("only winemaker nodes create wine records")
        if record.wine_id in self._records:
            raise NotFoundError(f"record {record.wine_id!r} already exists")
        self._records[record.wine_id] = record
        return record

    def get(self, wine_id: str) -> WineRecord:
        record = self._records.get(wine_id)
        if record is None:
            raise NotFoundError(f"no record for {wine_id!r}")
        return record

    def update(self, caller_role: str, wine_id: str, fields: Dict[str, object]) -> WineRecord:
        if caller_role != "winemaker":
            raise RoleError("only winemaker nodes update wine records")
        record = self.get(wine_id)
        if "transaction_data" in fields and len(fields["transaction_data"]) < len(record.transaction_data):
            raise RoleError("transaction history is append-only")
        for name, value in fields.items():
            if not hasattr(record, name):
                raise NotFoundError(f"record has no field {name!r}")
            setattr(record, name, value)
        return record

    def wine_ids(self) -> List[str]:
        return sorted(self._records)

    # -- flow-internal mutators ---------------------------------------------------

    def append_transaction_entry(self, wine_id: str, entry: Dict[str, object]) -> None:
        self.get(wine_id).transaction_data.append(entry)

    def append_supply_chain_entry(self, wine_id: str, entry: Dict[str, object]) -> None:
        self.get(wine_id).supply_chain_data.append(entry)

    def log_unsuccessful_validation(self, wine_id: str, attack_class: str, layer: str,
                                    details: str, timestamp: object = None) -> WineRecord:
        """Appends the failure entry and flags the record."""
        record = self.get(wine_id)
        entry = {
            "attack_class": attack_class,
            "layer": layer,
            "details": details,
            "timestamp": timestamp,
        }
        record.unsuccessful_validation_data.append(entry)
        record.wine_status = WineStatus.FLAGGED
        return record
