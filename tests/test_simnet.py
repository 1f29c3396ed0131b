import json

import pytest

from dnas.content_store import ContentId
from dnas.errors import ScenarioError
from dnas.scenario import (
    MemberSpec,
    Scenario,
    Step,
    bundled_scenario_names,
    load_scenario,
)
from dnas.service import MemberRole, NodeType
from dnas.simnet import MessageBus, ScenarioRunner, replay_determinism_check, run_scenario

FIVE = [
    MemberSpec("admin", MemberRole.ADMINISTRATOR, NodeType.VALIDATOR),
    MemberSpec("maker", MemberRole.WINEMAKER, NodeType.VALIDATOR),
    MemberSpec("dist", MemberRole.PARTICIPANT, NodeType.VALIDATOR),
    MemberSpec("retail", MemberRole.PARTICIPANT, NodeType.VALIDATOR),
    MemberSpec("ship", MemberRole.PARTICIPANT, NodeType.VALIDATOR),
]


def simple_scenario(steps, expectations, extras=(), seed=3, **kw):
    return Scenario(name="inline", seed=seed, members=list(FIVE), steps=steps,
                    expectations=expectations, extras=list(extras), **kw)


# -- bus ------------------------------------------------------------------------------

def test_bus_delivers_in_time_order():
    bus = MessageBus()
    seen = []
    bus.schedule(5, seen.append, "late")
    bus.schedule(1, seen.append, "early")
    bus.schedule(3, seen.append, "middle")
    bus.deliver_due(10)
    assert seen == ["early", "middle", "late"]


def test_bus_ties_break_by_sequence():
    bus = MessageBus()
    seen = []
    for label in ("a", "b", "c"):
        bus.schedule(2, seen.append, label)
    bus.deliver_due(2)
    assert seen == ["a", "b", "c"]


def test_bus_holds_future_messages():
    bus = MessageBus()
    seen = []
    bus.schedule(4, seen.append, "future")
    bus.deliver_due(3)
    assert seen == [] and bus.pending() == 1


# -- scenario schema ----------------------------------------------------------------------

def test_bundled_scenarios_present():
    assert {"happy_path", "cloned_tag", "halted_validator"} <= set(bundled_scenario_names())


def test_load_bundled_by_name():
    scenario = load_scenario("happy_path")
    assert scenario.name == "happy_path"
    assert len(scenario.members) == 5


def test_unknown_scenario_reference():
    with pytest.raises(ScenarioError):
        load_scenario("does_not_exist")


def test_malformed_scenario_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(str(path))


def test_unknown_action_rejected():
    with pytest.raises(ScenarioError):
        simple_scenario([Step(1, "maker", "explode")], []).validate()


def test_unknown_actor_rejected():
    with pytest.raises(ScenarioError):
        simple_scenario([Step(1, "ghost", "create_record", {"wine_id": "W"})], []).validate()


def test_steps_must_be_time_ordered():
    steps = [Step(5, "maker", "create_record", {"wine_id": "A"}),
             Step(2, "maker", "create_record", {"wine_id": "B"})]
    with pytest.raises(ScenarioError):
        simple_scenario(steps, []).validate()


def test_two_administrators_rejected():
    members = list(FIVE) + [MemberSpec("admin2", MemberRole.ADMINISTRATOR, NodeType.VALIDATOR)]
    with pytest.raises(ScenarioError):
        Scenario(name="x", seed=1, members=members, steps=[], expectations=[]).validate()


def test_every_action_and_expectation_kind_is_in_a_bundled_scenario():
    # the census sees only defs, so a table entry no scenario reaches shows here
    scenarios = [load_scenario(name) for name in bundled_scenario_names()]
    actions = {step.action for scenario in scenarios for step in scenario.steps}
    kinds = {spec["kind"] for scenario in scenarios for spec in scenario.expectations}
    assert sorted(set(ScenarioRunner.ACTIONS) - actions) == []
    assert sorted(set(ScenarioRunner.EXPECTATIONS) - kinds) == []


# -- runner ----------------------------------------------------------------------------------

def test_happy_path_scenario_passes():
    report = run_scenario(load_scenario("happy_path"))
    assert report.passed
    assert report.records["W1"]["status"] == "sold"
    assert all(e["passed"] for e in report.expectations)


def test_cloned_tag_scenario_detects_cloning():
    report = run_scenario(load_scenario("cloned_tag"))
    assert report.passed
    assert report.attack_log[0]["attack_class"] == "cloning"


def test_halted_validator_keeps_liveness():
    report = run_scenario(load_scenario("halted_validator"))
    assert report.passed
    assert report.chain_height >= 20


@pytest.mark.parametrize("wine_id", ["W2", "W3"])
def test_shipping_a_tampered_wine_is_refused_and_the_attack_still_caught(wine_id):
    scenario = load_scenario("tampering")
    ship = next(i for i, step in enumerate(scenario.steps) if step.action == "ship_record")
    scenario.steps[ship] = Step(7, "maker", "ship_record", {"wine_id": wine_id},
                                expect_error="differ")
    scenario.expectations = [spec for spec in scenario.expectations
                             if spec.get("wine_id") != "W4"]
    report = run_scenario(scenario)
    assert report.passed
    assert report.steps[ship]["ok"] and "differ" in report.steps[ship]["error"]
    assert {(entry["wine_id"], entry["attack_class"]) for entry in report.attack_log} == {
        ("W2", "reapplication"), ("W3", "modification")}


def test_expect_error_step():
    steps = [
        Step(2, "maker", "create_record", {"wine_id": "W1"}),
        Step(6, "dist", "accept_record", {"wine_id": "W1"},
             expect_error="validation"),
    ]
    report = run_scenario(simple_scenario(steps, []))
    assert report.passed
    assert report.steps[1]["ok"] and "validation" in report.steps[1]["error"]


def test_unexpected_step_error_fails_run():
    steps = [Step(2, "dist", "create_record", {"wine_id": "W1"})]  # wrong role
    report = run_scenario(simple_scenario(steps, []))
    assert not report.passed
    assert not report.steps[0]["ok"]


def test_malformed_steps_fail_with_a_message(tmp_path):
    # a step naming a non-member or a wine with no tag fails as a step; an
    # expectation naming such a wine fails in the report, not a KeyError
    raw = {
        "name": "malformed", "seed": 3,
        "members": [{"member_id": m.member_id, "role": m.role.value,
                     "node_type": m.node_type.value} for m in FIVE],
        "extras": ["counterfeiter"],
        "steps": [
            {"at": 2, "actor": "admin", "action": "remove_member",
             "params": {"member_id": "ghost"}},
            {"at": 3, "actor": "dist", "action": "accept_record", "params": {"wine_id": "W9"}},
            {"at": 4, "actor": "counterfeiter", "action": "clone_tag",
             "params": {"wine_id": "W9"}},
        ],
        "expectations": [{"kind": "counters_in_sync", "wine_id": "W9"}],
    }
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(raw))
    runner = ScenarioRunner(load_scenario(str(path)))
    report = runner.run()
    assert not report.passed
    assert report.expectations == [{"kind": "counters_in_sync", "passed": False,
                                    "description": "counters_in_sync: no tag for 'W9' (genuine)"}]
    assert [(r.action, r.ok, r.error) for r in runner.step_results] == [
        ("remove_member", False, "no consortium member 'ghost'"),
        ("accept_record", False, "no tag for 'W9' (genuine)"),
        ("clone_tag", False, "no tag for 'W9' (genuine)"),
    ]


def test_failed_expectation_fails_run():
    steps = [Step(2, "maker", "create_record", {"wine_id": "W1"})]
    report = run_scenario(simple_scenario(
        steps, [{"kind": "record_status", "wine_id": "W1", "equals": "sold"}]))
    assert not report.passed


@pytest.mark.fresh_builds
@pytest.mark.parametrize("name", bundled_scenario_names())
def test_replay_determinism_same_seed(name):
    result = replay_determinism_check(load_scenario(name), runs=3)
    assert result["identical"] and result["passed"]
    assert len(set(result["state_roots"])) == 1


@pytest.mark.fresh_builds
def test_replay_requires_two_runs():
    with pytest.raises(ScenarioError):
        replay_determinism_check(load_scenario("cloned_tag"), runs=1)


def test_different_seeds_same_outcomes_different_roots():
    scenario = load_scenario("happy_path")
    reports = [run_scenario(scenario, seed=seed) for seed in (101, 202)]
    assert all(r.passed for r in reports)
    # keys, signatures, tag uids all derive from the seed
    assert reports[0].state_root != reports[1].state_root
    assert [e["passed"] for e in reports[0].expectations] == \
           [e["passed"] for e in reports[1].expectations]


def test_onboarded_member_can_act_in_scenario():
    steps = [
        Step(2, "admin", "onboard_member",
             {"member_id": "late", "role": "participant", "node_type": "validator"}),
        Step(8, "maker", "create_record", {"wine_id": "W1"}),
        Step(14, "late", "validate_record", {"wine_id": "W1"}),
        Step(16, "late", "accept_record", {"wine_id": "W1"}),
    ]
    report = run_scenario(simple_scenario(
        steps,
        [{"kind": "registry_size", "equals": 6},
         {"kind": "validator_count", "equals": 6},
         {"kind": "record_status", "wine_id": "W1", "equals": "accepted"},
         {"kind": "counters_in_sync", "wine_id": "W1"}]))
    assert report.passed, report.render_text()


def test_tamper_and_detection_in_scenario():
    steps = [
        Step(2, "maker", "create_record", {"wine_id": "W1"}),
        Step(6, "intruder", "tamper_tag",
             {"wine_id": "W1", "field": "write_counter", "value": 9}),
        Step(8, "dist", "validate_record", {"wine_id": "W1"}),
    ]
    report = run_scenario(simple_scenario(
        steps,
        [{"kind": "attack_logged", "wine_id": "W1", "attack_class": "reapplication"},
         {"kind": "last_validation", "wine_id": "W1", "result": "reapplication"}],
        extras=["intruder"]))
    assert report.passed, report.render_text()


def test_report_is_json_serializable():
    report = run_scenario(load_scenario("cloned_tag"))
    parsed = json.loads(report.to_json())
    assert parsed["scenario"] == "cloned_tag"
    assert parsed["passed"] is True


def test_session_timeout_blocks_stale_acceptance():
    steps = [
        Step(2, "maker", "create_record", {"wine_id": "W1"}),
        Step(6, "dist", "validate_record", {"wine_id": "W1"}),
        Step(20, "dist", "accept_record", {"wine_id": "W1"}, expect_error="expired"),
    ]
    report = run_scenario(simple_scenario(steps, [], session_timeout=5))
    assert report.passed, report.render_text()


def test_transaction_references_resolve_on_ledger():
    # every tx_hash recorded off-chain must exist on the chain with a receipt
    runner = ScenarioRunner(load_scenario("happy_path"))
    runner.run()
    consortium = runner.consortium
    checked = 0
    for wine_id in consortium.db.wine_ids():
        for entry in consortium.db.get(wine_id).transaction_data:
            receipt = consortium.chain.query_tx(entry["tx_hash"])
            assert receipt.block_number == entry["block_number"]
            checked += 1
    assert checked >= 4  # create + three appends in the happy path


def test_a_candidate_the_registry_never_admits_gets_no_store_node():
    runner = ScenarioRunner(load_scenario("governance"))
    assert runner.run().passed
    consortium = runner.consortium
    store = consortium.store
    assert "stranger" in consortium.services  # joined, but the registry left it out
    assert "store-stranger" not in store.members()
    latest = consortium.chain.call_view("get_record", {"wine_id": "W0"})["data_hash_latest"]
    assert latest in store.pinned("store-late")  # the admitted member's node serves W0
    assert store.get("store-late", ContentId(latest)) == consortium.db.get("W0").subset()
