"""Off-chain wine records and their embedded database.

A record carries the four data categories (pedigree, transaction history,
supply-chain custody, unsuccessful validations) plus the mirrors the
validation layers compare against: tag identity, counters, the custodian
address, and the last tag signature. The published subset is the
deterministic slice fed to content storage. The database only creates,
reads and lists records; the service flows change the records they hold.
"""

import enum
from dataclasses import dataclass, field
from typing import Dict, List

from .encoding import canonical_json_bytes
from .errors import NotFoundError


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
    A create refuses a duplicate id; the caller checks the role first."""

    def __init__(self):
        self._records: Dict[str, WineRecord] = {}

    def create(self, record: WineRecord) -> WineRecord:
        if record.wine_id in self._records:
            raise NotFoundError(f"record {record.wine_id!r} already exists")
        self._records[record.wine_id] = record
        return record

    def get(self, wine_id: str) -> WineRecord:
        record = self._records.get(wine_id)
        if record is None:
            raise NotFoundError(f"no record for {wine_id!r}")
        return record

    def wine_ids(self) -> List[str]:
        return sorted(self._records)
