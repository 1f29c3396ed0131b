"""The arithmetic that turns a run into metrics.

``BENCHMARK.json`` at the repository root is the catalog: which metrics a
run reports, with their units, directions and bounds. This module computes
them; ``selfcheck.py`` checks that every declared metric is computed.
"""

import json
import math
from pathlib import Path
from typing import Dict, List

from workloads import EXPECTED

CATALOG = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in CATALOG["end_to_end"]]
PER_LAYER = [m["name"] for m in CATALOG["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in CATALOG["end_to_end"] + CATALOG["per_layer"]}

# layers traced over the timed phase; a class name sums all its methods
TIMED_LAYERS = [
    "keccak.keccak256",
    "keys.derive_address",
    "secp256k1.recover_pubkey",
    "keys.recover_signer",
    "secp256k1.sign_digest",
    "ledger.sign_transaction",
    "keys.sign_tag_payload",
    "ledger.Chain.seal_block",
    "contracts.ContractRuntime.state_bytes",
    "ledger.Chain.submit_transaction",
    "ledger.Chain.next_nonce",
    "contracts.ContractRuntime.execute",
    "contracts.ContractRuntime.call_view",
    "content_store.PrivateNetwork.add",
    "content_store.PrivateNetwork.get",
    "content_store.ContentId.for_content",
    "records.WineRecord.subset",
    "records.RecordDatabase",
    "tags.NfcTag.read",
    "tags.NfcTag.write",
    "service.BlockchainService.create_record_flow",
    "service.BlockchainService.validate_record_flow",
    "service.BlockchainService.accept_record_flow",
    "simnet.MessageBus.deliver_due",
    "encoding.canonical_json_bytes",
]
# layers whose cost sits mostly in traced callees, so self time hides it
INCLUSIVE_LAYERS = [
    "ledger.Chain.seal_block",
    "contracts.ContractRuntime.state_bytes",
    "ledger.Chain.submit_transaction",
    "contracts.ContractRuntime.execute",
    "contracts.ContractRuntime.call_view",
    "service.BlockchainService.create_record_flow",
    "service.BlockchainService.validate_record_flow",
    "service.BlockchainService.accept_record_flow",
    "simnet.MessageBus.deliver_due",
]
# layers that only run while the consortium is set up; traced over set-up
SETUP_LAYERS = ["vault.Vault", "keys.create_keystore", "keys.decrypt_keystore"]
CLASS_LAYERS = {"records.RecordDatabase", "vault.Vault"}
VALIDATION_LAYERS = ["off_chain_db", "on_chain", "content_store"]
ATTACK_CLASSES = {kind: cls for kind, (cls, _) in EXPECTED.items()}


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the
    values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def flow_metrics(run, result: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    """Every end-to-end figure of one timed phase, host-scaled (``value``)
    and wall clock (``wall``), with its sample count. A latency appears only
    when the workload performed that operation."""
    out = {"ops_per_s": {"value": run.completed / result["scaled_s"],
                         "wall": run.completed / result["elapsed_s"],
                         "unit": "1/s", "n": run.completed}}
    for family in ("op", "create", "validate", "accept", "commit"):
        if family == "op":
            kinds = ("create", "validate", "accept")
            scaled = [x for k in kinds for x in run.scaled(k)]
            wall = [x for k in kinds for x in run.samples[k]]
        else:
            scaled, wall = run.scaled(family), run.samples[family]
        if scaled:
            for label, q in (("p50", 0.5), ("p90", 0.9)):
                out[f"{family}_ms.{label}"] = {
                    "value": 1000 * percentile(scaled, q), "wall": 1000 * percentile(wall, q),
                    "unit": "ms", "n": len(scaled)}
    out["error_rate"] = {"value": len(run.failures) / max(run.attempted, 1), "unit": "ratio",
                         "n": run.attempted}
    out["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB", "n": 1}
    return out


def _sum(stats, layer: str) -> Dict[str, float]:
    if layer not in CLASS_LAYERS:
        return stats.get(layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "raised": 0,
                                 "bytes": 0, "by_parent": {}})
    total = {"calls": 0, "self_s": 0.0}
    for name, entry in stats.items():
        if name.startswith(layer + "."):
            total["calls"] += entry["calls"]
            total["self_s"] += entry["self_s"]
    return total


def _by_parent(entry, prefix: str) -> int:
    return sum(n for parent, n in entry.get("by_parent", {}).items()
               if parent.startswith(prefix))


def per_layer(run, result, timed, setup, overhead: float) -> Dict[str, float]:
    """The per-layer catalog from a traced run's span statistics."""
    ops = max(run.completed, 1)
    out: Dict[str, float] = {}
    for layer in TIMED_LAYERS:
        entry = _sum(timed, layer)
        out[f"{layer}.calls"] = entry["calls"]
        out[f"{layer}.self_s"] = entry["self_s"]
        out[f"{layer}.per_op"] = entry["calls"] / ops
    for layer in INCLUSIVE_LAYERS:
        out[f"{layer}.total_s"] = _sum(timed, layer)["total_s"]
    for layer in SETUP_LAYERS:
        entry = _sum(setup, layer)
        out[f"{layer}.calls"] = entry["calls"]
        out[f"{layer}.self_s"] = entry["self_s"]

    signer = _sum(timed, "keys.recover_signer")
    out["keys.recover_signer.by_ledger.calls"] = _by_parent(signer, "ledger.")
    out["keys.recover_signer.by_contracts.calls"] = _by_parent(signer, "contracts.")
    state = _sum(timed, "contracts.ContractRuntime.state_bytes")
    out["contracts.ContractRuntime.state_bytes.bytes"] = state["bytes"] / max(state["calls"], 1)
    subset = _sum(timed, "records.WineRecord.subset")
    out["records.WineRecord.subset.bytes_mean"] = subset["bytes"] / max(subset["calls"], 1)

    out["ledger.Chain.submit_transaction.rejected"] = _sum(
        timed, "ledger.Chain.submit_transaction")["raised"]

    get = _sum(timed, "content_store.PrivateNetwork.get")
    replications = _by_parent(_sum(timed, "content_store.StoreNode.store"),
                              "content_store.PrivateNetwork.get")
    out["content_store.get.local_hit_ratio"] = (
        (get["calls"] - replications - get["raised"]) / get["calls"] if get["calls"] else 0.0)
    out["content_store.get.replications"] = replications

    for layer in VALIDATION_LAYERS:
        for outcome in ("pass", "fail"):
            out[f"service.validate.{layer}.{outcome}"] = run.layers[f"{layer}.{outcome}"]
    out["trace.recorded_s"] = result["elapsed_s"]
    out["trace.overhead"] = overhead
    out.update(workload_properties(run, result))
    out["harness.cpu_share"] = result["cpu_share"]
    return out


def workload_properties(run, result) -> Dict[str, float]:
    """What the timed phase did, read from the chain and the operations
    rather than from spans: the same traced or not."""
    blocks = max(result["blocks"], 1)
    inclusion = result["inclusion_ticks"] or [0]
    out = {
        "ledger.empty_block_share": result["empty_blocks"] / blocks,
        "ledger.block_fill": result["gas_used"] / max(result["gas_limit"], 1),
        "ledger.pool_depth.max": run.pool_max,
        "ledger.inclusion_ticks.p50": percentile(inclusion, 0.5),
        "ledger.inclusion_ticks.p90": percentile(inclusion, 0.9),
        "simnet.bus.depth_max": run.bus_max,
    }
    scans = sum(run.scans[k] for k in ("genuine", *ATTACK_CLASSES))
    out["workload.repeat_scan_share"] = run.scans["repeat"] / scans if scans else 0.0
    for kind, cls in ATTACK_CLASSES.items():
        out[f"workload.counterfeit_share.{cls}"] = run.scans[kind] / scans if scans else 0.0
    out["workload.inventory.start"] = result["inventory_start"]
    out["workload.inventory.end"] = result["inventory_end"]
    return out
