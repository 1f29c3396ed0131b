"""Fast self-check of the benchmark harness (about half a minute).

    python3 bench/selfcheck.py

Runs a tiny size of every workload untraced and traced and asserts that each
run passes its output checks, emits every metric of the catalog, and yields
the same determinism digest for the same seed (and another for another
seed). The workloads and metrics are the ones ``BENCHMARK.json`` declares.
"""

import dataclasses
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from metrics import CATALOG, END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "bottling": dict(checkpoint_ticks=6, min_records=0, lot_size=(3, 5), idle_ticks=(1, 2)),
    "custody": dict(checkpoint_ticks=16),
    "counterfeit_scan": dict(checkpoint_ticks=40, inventory={
        "genuine": 12, "cloned": 2, "replayed": 2, "tampered": 8}),
}


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selfcheck failed: {message}")


def check_workload(name: str) -> None:
    require(name in WORKLOADS, f"{name}: declared but not generated")
    spec = dataclasses.replace(WORKLOADS[name], min_samples=1, **TINY[name])
    first, result, flows = run.untraced(spec, seed=5, seconds=0)
    require(first.attempted > 0 and not first.failures, f"{name}: {first.failures[:3]}")
    for metric in END_TO_END:
        require(flows[metric]["value"] > 0, f"{name}: {metric} missing or zero")

    traced, traced_result, _, layers, _ = run.traced(spec, seed=5, seconds=0)
    require(not traced.failures, f"{name} traced: {traced.failures[:3]}")
    missing = [metric for metric in PER_LAYER if metric not in layers]
    require(not missing, f"{name}: per-layer metrics missing: {missing}")

    require(result["digest"] == traced_result["digest"], f"{name}: one seed, two digests")
    _, other, _ = run.untraced(spec, seed=6, seconds=0)
    require(other["digest"] != result["digest"], f"{name}: two seeds, one digest")
    print(f"ok {name}: {first.attempted} ops, digest {result['digest'][:16]}")


def main() -> int:
    for workload in CATALOG["workloads"]:
        check_workload(workload["name"])
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
