"""Command-line entry point.

    dnas run <scenario> [--seed N] [--json] [--out FILE] [--notifications-out FILE]
    dnas query [--scenario NAME] [--seed N] (block N | tx HASH | record ID | peers | validators)
    dnas replay-check <scenario> [--runs N] [--seed N]
    dnas scenarios

Exit codes: 0 success, 1 failed expectation or missing item, 2 usage or
parse error.
"""

import argparse
import json
import sys

from .errors import ContractError, DnasError, ScenarioError
from .scenario import bundled_scenario_names, load_scenario
from .simnet import ScenarioRunner, replay_determinism_check

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnas",
        description="Run and inspect desk-scale anti-counterfeiting network scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario and report the outcome")
    run.add_argument("scenario", help="bundled scenario name or a JSON file path")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--out", default=None, help="write the JSON report to this file")
    run.add_argument("--json", action="store_true", help="print the JSON report")
    run.add_argument("--notifications-out", default=None,
                     help="write the notification log as line-delimited JSON")

    query = sub.add_parser("query", help="query the final state of a scenario run")
    query.add_argument("--scenario", default="happy_path",
                       help="scenario to run before querying (default: happy_path)")
    query.add_argument("--seed", type=int, default=None)
    query_sub = query.add_subparsers(dest="what", required=True)
    q_block = query_sub.add_parser("block", help="block by height")
    q_block.add_argument("height", type=int)
    q_tx = query_sub.add_parser("tx", help="transaction receipt by hash")
    q_tx.add_argument("tx_hash")
    q_record = query_sub.add_parser("record", help="wine record by identifier")
    q_record.add_argument("wine_id")
    query_sub.add_parser("peers", help="consortium registry")
    query_sub.add_parser("validators", help="current sealer set")

    replay = sub.add_parser("replay-check", help="verify a scenario replays identically")
    replay.add_argument("scenario")
    replay.add_argument("--runs", type=int, default=3)
    replay.add_argument("--seed", type=int, default=None)

    sub.add_parser("scenarios", help="list bundled scenarios")
    return parser


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    report = ScenarioRunner(scenario, seed=args.seed).run()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json())
    if args.notifications_out:
        with open(args.notifications_out, "w") as fh:
            fh.write(report.notifications_ndjson())
    print(report.to_json() if args.json else report.render_text())
    return EXIT_OK if report.passed else EXIT_FAILURE


def _cmd_query(args) -> int:
    scenario = load_scenario(args.scenario)
    runner = ScenarioRunner(scenario, seed=args.seed)
    runner.run()
    consortium = runner.consortium
    chain = consortium.chain
    try:
        if args.what == "block":
            print(json.dumps(chain.query_block(args.height).to_dict(), indent=2))
        elif args.what == "tx":
            print(json.dumps(chain.query_tx(args.tx_hash).to_dict(), indent=2))
        elif args.what == "record":
            record = consortium.db.get(args.wine_id)
            try:
                on_chain = chain.call_view("get_record", {"wine_id": args.wine_id})
            except ContractError:  # the chain refused it; the record stays for audit
                on_chain = None
            print(json.dumps({**record.view(), "on_chain": on_chain,
                              "unsuccessful_validations": record.unsuccessful_validation_data},
                             indent=2))
        elif args.what == "peers":
            print(json.dumps(chain.call_view("get_peers", {}), indent=2))
        elif args.what == "validators":
            print(json.dumps(chain.validators, indent=2))
    except DnasError as exc:
        print(f"not found: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_replay_check(args) -> int:
    scenario = load_scenario(args.scenario)
    result = replay_determinism_check(scenario, runs=args.runs, seed=args.seed)
    print(json.dumps(result, indent=2))
    return EXIT_OK if result["identical"] else EXIT_FAILURE


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "replay-check":
            return _cmd_replay_check(args)
        if args.command == "scenarios":
            for name in bundled_scenario_names():
                print(name)
            return EXIT_OK
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DnasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
