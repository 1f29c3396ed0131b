"""Decentralized anti-counterfeiting network, desk scale.

A permissioned proof-of-authority ledger with a native contract runtime,
private content-addressed storage, vault-backed key management, simulated
NFC tags, and the consortium service layer that ties them together, plus a
deterministic multi-node simulator and CLI.
"""

from .content_store import ContentId, PrivateNetwork, StoreNode
from .contracts import ContractRuntime, PeerEntry
from .errors import DnasError
from .keys import Address, KeyPair, Signature, generate_keypair
from .ledger import Block, Chain, GenesisConfig, SignedTransaction, next_gas_limit
from .records import RecordDatabase, WineRecord, WineStatus
from .scenario import Scenario, load_scenario
from .service import AttackClass, BlockchainService, Consortium, MemberRole, NodeType
from .simnet import Report, ScenarioRunner, replay_determinism_check, run_scenario
from .tags import NfcTag
from .vault import Vault

__version__ = "0.1.0"

__all__ = [
    "Address", "AttackClass", "Block", "BlockchainService", "Chain", "Consortium",
    "ContentId", "ContractRuntime", "DnasError", "GenesisConfig", "KeyPair",
    "MemberRole", "NfcTag", "NodeType", "PeerEntry", "PrivateNetwork",
    "RecordDatabase", "Report", "Scenario", "ScenarioRunner", "SignedTransaction",
    "Signature", "StoreNode", "Vault", "WineRecord", "WineStatus",
    "generate_keypair", "load_scenario", "next_gas_limit",
    "replay_determinism_check", "run_scenario",
]
