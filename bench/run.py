"""dnas benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in ``workloads.WORKLOADS``. ``--trace 0`` sets the
consortium up several times (``setup_s`` is their median), then runs the
timed phase untraced and reports the end-to-end metrics, scaled to a
reference host speed (``hostspeed.HostSpeed``). ``--trace 1`` runs the timed
phase once untraced, for reference, then wraps every public ``dnas``
function, sets up and runs it again with spans recorded, and reports the
per-layer metrics. Both check every output. The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is 0 only when every check passed. Full results
and the traced spans are written under ``bench/out/``.
"""

import argparse
import gc
import json
import os
import platform
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _context() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "platform": platform.platform()}


def untraced(spec, seed: int, seconds: float):
    from harness import Run
    from metrics import flow_metrics

    setups = []
    for _ in range(SETUP_REPEATS):
        run = None
        gc.collect()  # free the previous consortium before timing the next
        run = Run(spec, seed)
        setups.append(run.setup())
    result = run.measure(seconds)
    flows = flow_metrics(run, result)
    flows["setup_s"] = {"value": statistics.median(scaled for _, scaled in setups),
                        "wall": statistics.median(wall for wall, _ in setups),
                        "unit": "s", "n": len(setups)}
    return run, result, flows


def traced(spec, seed: int, seconds: float):
    from harness import Run
    from metrics import flow_metrics, per_layer
    from tracer import Tracer

    reference = Run(spec, seed)
    reference.setup()
    reference_result = reference.measure(seconds)
    reference_rate = reference.completed / reference_result["scaled_s"]
    reference_failures = reference.failures
    del reference
    gc.collect()

    tracer = Tracer().install()
    try:
        run = Run(spec, seed, tracer)
        tracer.mark("setup")
        tracer.enabled = True
        run.setup()
        result = run.measure(seconds)
    finally:
        tracer.uninstall()
    if reference_result["digest"] != result["digest"]:
        reference_failures.append("the traced and the untraced run disagree on the digest")
    run.failures = reference_failures + run.failures
    timed = tracer.layer_stats(tracer.marks["timed"], tracer.marks["end"])
    setup = tracer.layer_stats(0, tracer.marks["timed"])
    overhead = run.completed / result["scaled_s"] / reference_rate
    layers = per_layer(run, result, timed, setup, overhead)
    return run, result, flow_metrics(run, result), layers, tracer


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "dnas" / "__init__.py").is_file():
        print(f"bench: no dnas sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from metrics import END_TO_END, PER_LAYER, UNITS, workload_properties
    from workloads import WORKLOADS

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    if args.trace:
        run, result, flows, layers, tracer = traced(spec, args.seed, args.seconds)
        metrics = {name: layers[name] for name in PER_LAYER}
    else:
        run, result, flows = untraced(spec, args.seed, args.seconds)
        tracer = None
        metrics = {name: flows[name]["value"] for name in END_TO_END}
    failures = run.failures

    detail = {
        "workload": spec.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "context": dict(_context(), cpu_share=result["cpu_share"],
                                          burst_ms=result["burst_ms"]),
        "digest": result["digest"], "ticks": result["ticks"],
        "elapsed_s": result["elapsed_s"], "end_to_end": flows,
        "properties": workload_properties(run, result),
        "failures": failures[:50],
    }
    if args.trace:
        detail["per_layer"] = layers
    OUT.mkdir(exist_ok=True)
    stem = f"{spec.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1, sort_keys=True))
    if tracer is not None:
        tracer.write(OUT / f"{spec.name}-seed{args.seed}.spans.ndjson.gz")

    print(f"workload {spec.name}  seed {args.seed}  trace {args.trace}  "
          f"ticks {result['ticks']}  elapsed {result['elapsed_s']:.2f} s  "
          f"python {detail['context']['python']}  nproc {detail['context']['nproc']}  "
          f"cpu_share {result['cpu_share']:.3f}  burst_ms min/median/max "
          f"{'/'.join(f'{ms:.2f}' for ms in result['burst_ms'])}")
    print(f"  {'metric':<16} {'host-scaled':>12} {'wall clock':>12}")
    for name, entry in flows.items():
        wall = f"{entry['wall']:>12.4f}" if "wall" in entry else " " * 12
        print(f"  {name:<16} {entry['value']:>12.4f} {wall} {entry['unit']:<6} n={entry['n']}")
    for name, value in detail["properties"].items():
        print(f"  {name:<42} {value:.4f}")
    print(f"  digest {result['digest']}")
    for failure in failures[:10]:
        print(f"  FAIL {failure}")
    correct = not failures
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
