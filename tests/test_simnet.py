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
    scenario_from_dict,
)
from dnas.service import MemberRole, NodeType
from dnas.simnet import MessageBus, ScenarioRunner, replay_determinism_check, run_scenario

from conftest import chain_named_content_ids, held_intact, holders, members

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


def test_a_step_after_end_time_is_refused_at_load():
    # the runner ticks no further than end_time, so W2 would never be made
    members = [{"member_id": "admin", "role": "administrator", "node_type": "validator"},
               {"member_id": "maker", "role": "winemaker", "node_type": "validator"},
               {"member_id": "retail", "role": "participant", "node_type": "validator"}]
    raw = {"seed": 3, "members": members, "end_time": 10, "steps": [
        {"at": 1, "actor": "maker", "action": "create_record", "params": {"wine_id": "W1"}},
        {"at": 20, "actor": "maker", "action": "create_record", "params": {"wine_id": "W2"}}]}
    with pytest.raises(ScenarioError, match="^step 1 at t=20 is after end_time 10$"):
        scenario_from_dict(raw)
    raw["end_time"] = 20  # a step at end_time runs
    assert scenario_from_dict(raw).end_time == 20


def test_two_administrators_rejected():
    # an empty member list has no administrator either
    two = list(FIVE) + [MemberSpec("admin2", MemberRole.ADMINISTRATOR, NodeType.VALIDATOR)]
    for members in (two, []):
        with pytest.raises(ScenarioError, match="^scenario needs exactly one administrator$"):
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


THREE = [{"member_id": "admin", "role": "administrator", "node_type": "validator"},
         {"member_id": "maker", "role": "winemaker", "node_type": "validator"},
         {"member_id": "dist", "role": "participant", "node_type": "validator"}]


def test_an_accept_after_a_record_tamper_is_refused_and_the_attack_still_caught():
    # the accept's pre-write check refuses to re-anchor the tampered record on-chain
    raw = {"seed": 3, "members": THREE, "extras": ["alice", "forger"], "steps": [
        {"at": 2, "actor": "maker", "action": "create_record",
         "params": {"wine_id": "W1", "pedigree": {"producer": "Chateau Demo", "vintage": 2019}}},
        {"at": 5, "actor": "dist", "action": "validate_record", "params": {"wine_id": "W1"}},
        {"at": 6, "actor": "forger", "action": "tamper_record",
         "params": {"wine_id": "W1", "field": "vintage", "value": 1899}},
        {"at": 7, "actor": "dist", "action": "accept_record", "params": {"wine_id": "W1"},
         "expect_error": "subset hash differs"},
        {"at": 10, "actor": "alice", "action": "validate_record", "params": {"wine_id": "W1"}}],
        "expectations": [
            {"kind": "step_error", "index": 3, "contains": "subset hash differs"},
            {"kind": "write_count", "wine_id": "W1", "equals": 1},
            {"kind": "attack_logged", "wine_id": "W1", "attack_class": "modification",
             "layer": "content_store"},
            {"kind": "last_validation", "wine_id": "W1", "result": "modification"}]}
    report = run_scenario(scenario_from_dict(raw))
    assert report.passed
    assert [(e["wine_id"], e["attack_class"], e["layer"]) for e in report.attack_log] == [
        ("W1", "modification", "content_store")]


def test_a_flag_leaves_the_published_subset_so_a_later_genuine_scan_passes():
    # the flag is a local annotation: the record still hashes to the chain's
    # content id, so the genuine tag's scan logs no second attack
    raw = {"seed": 3, "members": THREE, "extras": ["counterfeiter"], "steps": [
        {"at": 2, "actor": "maker", "action": "create_record", "params": {"wine_id": "W1"}},
        {"at": 5, "actor": "counterfeiter", "action": "clone_tag", "params": {"wine_id": "W1"}},
        {"at": 6, "actor": "dist", "action": "validate_record",
         "params": {"wine_id": "W1", "tag": "cloned"}},
        {"at": 8, "actor": "dist", "action": "validate_record", "params": {"wine_id": "W1"}},
        {"at": 10, "actor": "dist", "action": "accept_record", "params": {"wine_id": "W1"},
         "expect_error": "flagged"}],
        "expectations": [{"kind": "last_validation", "wine_id": "W1", "result": "pass"},
                         {"kind": "step_error", "index": 4, "contains": "flagged"}]}
    report = run_scenario(scenario_from_dict(raw))
    assert report.passed, report.render_text()
    assert [(e["wine_id"], e["attack_class"], e["layer"]) for e in report.attack_log] == [
        ("W1", "cloning", "off_chain_db")]
    assert (report.records["W1"]["read_counter"], report.records["W1"]["flags"]) == (1, 1)
    assert report.records["W1"]["status"] == "flagged"


def test_a_scan_failed_at_the_content_store_leaves_the_tag_for_the_next_scan():
    # a failed scan counts no read, so the re-scan finds the injected
    # modification again, not a reapplication the first scan left behind
    raw = {"seed": 3, "members": THREE, "extras": ["forger"], "steps": [
        {"at": 2, "actor": "maker", "action": "create_record", "params": {"wine_id": "W1"}},
        {"at": 5, "actor": "forger", "action": "tamper_record",
         "params": {"wine_id": "W1", "field": "vintage", "value": 1899}},
        {"at": 6, "actor": "dist", "action": "validate_record", "params": {"wine_id": "W1"}},
        {"at": 8, "actor": "dist", "action": "validate_record", "params": {"wine_id": "W1"}}],
        "expectations": [{"kind": "last_validation", "wine_id": "W1",
                          "result": "modification"}]}
    report = run_scenario(scenario_from_dict(raw))
    assert report.passed, report.render_text()
    assert [(e["wine_id"], e["attack_class"], e["layer"]) for e in report.attack_log] == [
        ("W1", "modification", "content_store")] * 2
    assert report.records["W1"]["read_counter"] == 0


def test_a_scan_in_the_creates_own_tick_leaves_a_later_scan_passing():
    # the first scan runs before the create is mined: the chain is not yet the
    # record's to judge against, so the scan is refused as pending, logs no
    # attack, flags nothing and counts no read; the scan after the block passes
    raw = {"seed": 3, "members": THREE, "steps": [
        {"at": 2, "actor": "maker", "action": "create_record", "params": {"wine_id": "W1"}},
        {"at": 2, "actor": "dist", "action": "validate_record", "params": {"wine_id": "W1"},
         "expect_error": "chain-pending: a transaction for 'W1' is not yet mined"},
        {"at": 6, "actor": "dist", "action": "validate_record", "params": {"wine_id": "W1"}}],
        "expectations": [{"kind": "last_validation", "wine_id": "W1", "result": "pass"},
                         {"kind": "counters_in_sync", "wine_id": "W1"},
                         {"kind": "no_attacks"}]}
    report = run_scenario(scenario_from_dict(raw))
    assert report.passed, report.render_text()
    assert report.attack_log == [] and not report.notifications
    assert (report.records["W1"]["read_counter"], report.records["W1"]["flags"]) == (1, 0)


def test_a_scan_of_a_create_the_chain_refused_is_refused_not_flagged():
    # governance's W1: the removed maker's create wrote tag and row, not the chain
    scenario = load_scenario("governance")
    scenario.steps.append(Step(26, "late", "validate_record", {"wine_id": "W1"},
                               expect_error="chain-refused: the chain refused the last "
                                            "write of 'W1'"))
    report = run_scenario(scenario)
    assert report.passed, report.render_text()
    assert report.attack_log == []
    assert [n["type"] for n in report.notifications] == ["creation_failed"]
    assert report.records["W1"]["status"] == "error"


def test_two_scans_in_one_tick_flag_nothing():
    # retail's scan meets dist's pooled read: it is refused as pending, not
    # logged as a reapplication, and both later scans pass
    steps = [Step(2, "maker", "create_record", {"wine_id": "W1"}),
             Step(5, "dist", "validate_record", {"wine_id": "W1"}),
             Step(5, "retail", "validate_record", {"wine_id": "W1"},
                  expect_error="not yet mined"),
             Step(7, "retail", "validate_record", {"wine_id": "W1"}),
             Step(9, "dist", "accept_record", {"wine_id": "W1"}),
             Step(11, "retail", "validate_record", {"wine_id": "W1"})]
    report = run_scenario(simple_scenario(steps, [
        {"kind": "no_attacks"}, {"kind": "last_validation", "wine_id": "W1"},
        {"kind": "record_status", "wine_id": "W1", "equals": "accepted"},
        {"kind": "counters_in_sync", "wine_id": "W1"}]))
    assert report.passed, report.render_text()
    assert (report.records["W1"]["read_counter"], report.records["W1"]["flags"]) == (3, 0)


def test_a_refused_duplicate_create_keeps_the_wines_tag():
    raw = {"seed": 3, "members": THREE, "steps": [
        {"at": 2, "actor": "maker", "action": "create_record", "params": {"wine_id": "W1"}},
        {"at": 3, "actor": "maker", "action": "create_record", "params": {"wine_id": "W1"},
         "expect_error": "already exists"},
        {"at": 6, "actor": "dist", "action": "validate_record", "params": {"wine_id": "W1"}}],
        "expectations": [{"kind": "last_validation", "wine_id": "W1", "result": "pass"}]}
    report = run_scenario(scenario_from_dict(raw))
    assert report.passed, report.render_text()
    assert all(step["ok"] for step in report.steps) and report.attack_log == []


def test_a_refused_create_stores_no_tag_to_tamper_with():
    raw = {"seed": 3, "members": THREE, "extras": ["forger"], "steps": [
        {"at": 2, "actor": "dist", "action": "create_record", "params": {"wine_id": "W1"},
         "expect_error": "winemaker"},
        {"at": 4, "actor": "forger", "action": "tamper_tag",
         "params": {"wine_id": "W1", "field": "write_counter", "value": 9},
         "expect_error": "no tag for 'W1' (genuine)"}],
        "expectations": []}
    report = run_scenario(scenario_from_dict(raw))
    assert report.passed, report.render_text()
    assert report.steps[1]["error"] == "no tag for 'W1' (genuine)"


@pytest.mark.parametrize("value", ["zz", 5, "00"])
def test_a_tag_signature_that_does_not_parse_is_logged_as_a_modification(value):
    raw = {"seed": 3, "members": THREE, "extras": ["forger"], "steps": [
        {"at": 2, "actor": "maker", "action": "create_record", "params": {"wine_id": "W1"}},
        {"at": 4, "actor": "forger", "action": "tamper_tag",
         "params": {"wine_id": "W1", "field": "signature", "value": value}},
        {"at": 6, "actor": "dist", "action": "validate_record", "params": {"wine_id": "W1"}}],
        "expectations": [{"kind": "attack_logged", "wine_id": "W1",
                          "attack_class": "modification", "layer": "off_chain_db"}]}
    report = run_scenario(scenario_from_dict(raw))
    assert report.passed and all(step["ok"] for step in report.steps)
    assert [(e["attack_class"], e["layer"]) for e in report.attack_log] == [
        ("modification", "off_chain_db")]
    assert report.attack_log[0]["details"].startswith("tag payload does not parse")


def test_a_tag_naming_a_list_for_its_wine_is_logged_with_no_wine():
    # a wine id that is no string is a modification at the off-chain layer;
    # the notice names no wine, and the accept is refused like the scan's session
    raw = {"seed": 3, "members": THREE, "extras": ["forger"], "steps": [
        {"at": 2, "actor": "maker", "action": "create_record", "params": {"wine_id": "W1"}},
        {"at": 4, "actor": "forger", "action": "tamper_tag",
         "params": {"wine_id": "W1", "field": "wine_id", "value": ["W1"]}},
        {"at": 6, "actor": "dist", "action": "validate_record", "params": {"wine_id": "W1"}},
        {"at": 8, "actor": "dist", "action": "accept_record", "params": {"wine_id": "W1"},
         "expect_error": "tag payload does not parse"}],
        "expectations": [{"kind": "attack_logged", "attack_class": "modification",
                          "layer": "off_chain_db"},
                         {"kind": "write_count", "wine_id": "W1", "equals": 1}]}
    report = run_scenario(scenario_from_dict(raw))
    assert report.passed and all(step["ok"] for step in report.steps)
    assert [(e["wine_id"], e["attack_class"], e["layer"]) for e in report.attack_log] == [
        (None, "modification", "off_chain_db")]
    assert report.attack_log[0]["details"].startswith("tag payload does not parse")
    assert report.records["W1"]["flags"] == 0


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


@pytest.mark.parametrize("seed", [None, 101], ids=["own_seed", "seed_101"])
@pytest.mark.parametrize("name", bundled_scenario_names())
def test_no_removal_loses_a_chain_named_subset(name, seed):
    runner = ScenarioRunner(load_scenario(name), seed=seed)
    runner.run()
    consortium = runner.consortium
    removed = {m.member_id for m in runner.scenario.members} - set(consortium.services)
    assert removed == ({"maker"} if name == "governance" else set())
    assert {f"store-{member_id}" for member_id in removed}.isdisjoint(members(consortium.store))
    named = chain_named_content_ids(consortium)
    assert named and all(held_intact(consortium.store, ContentId(text)) for text in named)


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


def test_a_scenario_create_completes_on_the_tick_after_its_block(flow_statuses):
    flows, statuses = flow_statuses
    runner = ScenarioRunner(simple_scenario([
        Step(1, "maker", "create_record", {"wine_id": "W1"}),
        Step(3, "maker", "create_record", {"wine_id": "W2"})], []))
    assert runner.run().passed
    assert len(flows) == 2
    for index, flow in enumerate(flows):
        sealed = runner.consortium.chain.blocks[flow.block_number].timestamp
        assert (statuses[sealed][index], statuses[sealed + 1][index]) == ("pending", "ok")


def test_a_candidate_the_registry_never_admits_gets_no_store_node():
    runner = ScenarioRunner(load_scenario("governance"))
    assert runner.run().passed
    consortium = runner.consortium
    store = consortium.store
    assert "stranger" in consortium.services  # joined, but the registry left it out
    assert "store-stranger" not in members(store)
    latest = consortium.chain.call_view("get_record", {"wine_id": "W0"})["data_hash_latest"]
    # the admitted member's node serves W0
    assert "store-late" in holders(store, ContentId(latest))
    assert store.get("store-late", ContentId(latest)) == consortium.db.get("W0").subset()
