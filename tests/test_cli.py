import copy
import json
from importlib import resources

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from dnas.cli import main
from dnas.scenario import bundled_scenario_names


def test_run_happy_path(capsys):
    assert main(["run", "happy_path"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "sold" in out


def test_run_json_output(capsys):
    assert main(["run", "cloned_tag", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True


def test_run_writes_report_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    assert main(["run", "cloned_tag", "--out", str(out_file)]) == 0
    assert json.loads(out_file.read_text())["scenario"] == "cloned_tag"


def test_run_unknown_scenario(capsys):
    assert main(["run", "no_such_scenario"]) == 2


def test_run_malformed_scenario_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    assert main(["run", str(bad)]) == 2


def test_malformed_parameters_are_a_scenario_error(tmp_path, capsys):
    base = json.loads(
        resources.files("dnas").joinpath("scenarios").joinpath("governance.json").read_text())
    cases = [  # (path to a key, its new value or None to delete it; what the refusal names)
        (("steps", 6, "params", {}), "step 6 (set_consensus_level): missing 'level'"),
        (("steps", 1, "params", {"member_id": "late", "role": "king"}),
         "step 1 (onboard_member): 'king' is not a valid MemberRole"),
        (("expectations", 1, "equals", None), "expectation 1 (validator_count): missing 'equals'"),
        (("expectations", 6, "index", 99), "expectation 6 (step_error): no step 99"),
        (("expectations", 6, "index", "8"), "expectation 6 (step_error): no step '8'"),
        (("steps", 1, "at", "2"), "step 1: 'at' must be int, not '2'"),
        (("steps", 0, "params", "pedigree", [1]),
         "step 0 (create_record): 'pedigree' must be dict, not [1]"),
        (("steps", 6, "params", "level", "6"),
         "step 6 (set_consensus_level): 'level' must be int, not '6'"),
        (("period", 2), "scenario: unknown key 'period'"),
        (("end_tme", 30), "scenario: unknown key 'end_tme'"),
        (("steps", 6, "params", "levl", 6), "step 6 (set_consensus_level): unknown key 'levl'"),
        (("steps", 0, [1]), "step 0: [1] is not an object"),
        (("members", 1, "member_id", ["maker"]),
         "member 1: 'member_id' must be str, not ['maker']"),
        (("expectations", 0, [1]), "expectation 0: unknown kind None"),
        (("expectations", 0, "kind", ["record_status"]),
         "expectation 0: unknown kind ['record_status']"),
        (("expectations", 0, "kind", {}), "expectation 0: unknown kind {}"),
        (("extras", [["x"]]), "scenario: 'extras' entry must be str, not ['x']"),
        (("steps", 9, {"at": 24, "actor": "admin", "action": "tamper_tag", "params":
                       {"wine_id": "W0", "field": "read_counter", "value": "abc"}}),
         "step 9 (tamper_tag): 'value' must be int, not 'abc'"),
    ]
    for (*parents, key, value), message in cases:
        scenario = json.loads(json.dumps(base))
        target = scenario
        for part in parents:
            target = target[part]
        if value is None:
            del target[key]
        else:
            target[key] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # refused at load, before any consortium is built
        assert captured.err == f"scenario error: {message}\n"


_BUNDLED = {name: json.loads(resources.files("dnas").joinpath("scenarios").joinpath(
    f"{name}.json").read_text()) for name in bundled_scenario_names()}


def _paths(value, path=()):
    """The path to every value nested in ``value``, as keys and list indexes."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def _mutated_scenarios(draw):
    """A bundled scenario with one key or list entry dropped, one value
    swapped for another type, or one step moved to another time."""
    scenario = copy.deepcopy(_BUNDLED[draw(st.sampled_from(sorted(_BUNDLED)))])
    mutation = draw(st.sampled_from(["drop", "swap", "move"]))
    if mutation == "move":
        step = draw(st.sampled_from(scenario["steps"]))
        step["at"] = draw(st.integers(-2, max(s["at"] for s in scenario["steps"]) + 2))
        return scenario
    *parents, key = draw(st.sampled_from(list(_paths(scenario))))
    target = scenario
    for part in parents:
        target = target[part]
    if mutation == "drop":
        del target[key]
    else:
        target[key] = draw(st.sampled_from([None, True, 0, "", [], ["W1"], {}, "\ud800"]))
    return scenario


@seed(33)
@settings(max_examples=300, deadline=None, database=None)
@given(scenario=_mutated_scenarios())
def test_a_mutated_bundled_scenario_runs_or_is_refused_without_a_traceback(tmp_path_factory,
                                                                          scenario):
    path = tmp_path_factory.mktemp("fuzz") / "mutated.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path)]) in (0, 1, 2)


@pytest.mark.parametrize("old, new, codes", [
    ('"seed": 11', '"seed": ' + "7" * 5000, (0, 1, 2)),  # past the int-string limit, if any
    ('"vintage": 2019', '"vintage": ' + "7" * 5000, (0, 1, 2)),
    ('"vintage": 2019', '"vintage": ' + "[" * 100_000 + "]" * 100_000, (2,)),
    ('"vintage": 2019', '"vintage": "\\ud800"', (2,)),
    ('"wine_id": "W1"', '"wine_id": "W\\ud800"', (2,)),
], ids=["long_seed", "long_pedigree_value", "deep_nesting", "surrogate_pedigree_value",
        "surrogate_wine_id"])
def test_a_scenario_that_json_or_utf8_refuses_exits_without_a_traceback(tmp_path, capsys,
                                                                        old, new, codes):
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(_BUNDLED["happy_path"]).replace(old, new, 1))
    code = main(["run", str(path)])
    assert code in codes
    if code == 2:
        assert capsys.readouterr().err.startswith("scenario error: ")


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_a_scenario_with_a_non_finite_pedigree_value_is_refused(tmp_path, capsys, value):
    # json reads these words as floats, and no canonical encoding spells them
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(_BUNDLED["happy_path"]).replace(
        '"vintage": 2019', f'"vintage": {value}', 1))
    assert main(["run", str(path)]) == 2
    assert "no canonical encoding" in capsys.readouterr().err


def test_a_scenario_with_founders_past_the_bootstrap_count_is_refused(tmp_path, capsys):
    # the registry's bootstrap stage admits five: a sixth founder would seal unregistered
    scenario = json.loads(json.dumps(_BUNDLED["happy_path"]))
    scenario["members"].append({"member_id": "extra", "role": "participant",
                                "node_type": "validator"})
    path = tmp_path / "six_founders.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 6 founders exceed the registry's bootstrap count of 5\n"


def test_failed_expectation_exit_code(tmp_path, capsys):
    scenario = json.loads(
        resources.files("dnas").joinpath("scenarios").joinpath("happy_path.json").read_text())
    scenario["expectations"] = [{"kind": "record_status", "wine_id": "W1",
                                 "equals": "flagged"}]
    path = tmp_path / "failing.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path)]) == 1


@pytest.mark.parametrize("spec, message", [
    ({"kind": "record_status", "wine_id": "NOPE", "equals": "sold"},
     "record_status: no record for 'NOPE'"),
    ({"kind": "write_count", "wine_id": "NOPE", "equals": 1},
     "write_count: no wine record for 'NOPE'"),
    ({"kind": "counters_in_sync", "wine_id": "NOPE"},
     "counters_in_sync: no tag for 'NOPE' (genuine)"),
], ids=["record_status", "write_count", "counters_in_sync"])
def test_an_expectation_on_a_missing_record_fails_in_the_report(tmp_path, capsys, spec,
                                                                message):
    scenario = json.loads(
        resources.files("dnas").joinpath("scenarios").joinpath("governance.json").read_text())
    scenario["expectations"].append(spec)
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path)]) == 1
    out = capsys.readouterr().out
    assert f"  [FAIL] {message}\n" in out
    assert out.count("  [ok ] ") == len(scenario["expectations"]) - 1  # the rest still ran


def test_query_block(capsys):
    assert main(["query", "--scenario", "cloned_tag", "block", "0"]) == 0
    block = json.loads(capsys.readouterr().out)
    assert block["number"] == 0


def test_query_record_after_purchase(capsys):
    assert main(["query", "--scenario", "happy_path", "record", "W1"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "sold"
    assert record["tx_hash"] and record["block_number"]
    assert record["on_chain"]["write_count"] == 4


def test_query_record_the_chain_refused(capsys):
    # governance's W1 create is mined behind its maker's removal; the chain
    # refuses it and the off-chain record stays, status error, for audit
    assert main(["query", "--scenario", "governance", "record", "W1"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "error"
    assert record["on_chain"] is None and record["tx_hash"] is None


def test_query_create_tx_receipt(capsys):
    # walk the chain from its first block to the one holding the creation tx;
    # past the head the query fails, so the walk ends
    create_txs, height = [], 0
    while not create_txs:
        height += 1
        assert main(["query", "--scenario", "cloned_tag", "block", str(height)]) == 0
        block = json.loads(capsys.readouterr().out)
        create_txs = [t for t in block["transactions"] if t["method"] == "create_wine_record"]
    assert main(["query", "--scenario", "cloned_tag", "tx", create_txs[0]["tx_hash"]]) == 0
    receipt = json.loads(capsys.readouterr().out)
    assert receipt["status"] == "ok"
    assert receipt["events"][0]["kind"] == "WineRecordCreated"


def test_query_unknown_items(capsys):
    assert main(["query", "--scenario", "cloned_tag", "block", "9999"]) == 1
    assert main(["query", "--scenario", "cloned_tag", "tx", "0x" + "ab" * 32]) == 1
    assert main(["query", "--scenario", "cloned_tag", "record", "ghost"]) == 1


def test_query_validators(capsys):
    assert main(["query", "--scenario", "happy_path", "validators"]) == 0
    validators = json.loads(capsys.readouterr().out)
    assert len(validators) == 4


def test_query_peers(capsys):
    assert main(["query", "--scenario", "happy_path", "peers"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 5


@pytest.mark.fresh_builds
def test_replay_check(capsys):
    assert main(["replay-check", "cloned_tag", "--runs", "2"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["identical"] is True


def test_scenarios_listing(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out.split()
    assert "happy_path" in out


def test_notifications_ndjson_output(tmp_path, capsys):
    out_file = tmp_path / "notifications.ndjson"
    assert main(["run", "cloned_tag", "--notifications-out", str(out_file)]) == 0
    lines = [json.loads(line) for line in out_file.read_text().splitlines() if line]
    assert any(n["type"] == "record_flagged" for n in lines)


def test_usage_error(capsys):
    assert main(["frobnicate"]) == 2
