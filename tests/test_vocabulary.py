"""The named surfaces clients and scenarios reach: contract methods by
target, scenario actions and expectation kinds. The tests drive names
through the public entry points and check their effects or errors, and
check that the declared names, their handlers and README agree."""

import re
from pathlib import Path

import pytest

from dnas.contracts import (
    ContractRuntime,
    PeerRegistryContract,
    Proxy,
    WineDataContractV1,
    WineDataContractV2,
)
from dnas.errors import ContractError
from dnas.keys import generate_keypair
from dnas.scenario import MemberSpec, Scenario, Step
from dnas.service import BlockchainService, MemberRole, NodeType
from dnas.simnet import ScenarioRunner, run_scenario

FIVE = [
    MemberSpec("admin", MemberRole.ADMINISTRATOR, NodeType.VALIDATOR),
    MemberSpec("maker", MemberRole.WINEMAKER, NodeType.VALIDATOR),
    MemberSpec("dist", MemberRole.PARTICIPANT, NodeType.VALIDATOR),
    MemberSpec("retail", MemberRole.PARTICIPANT, NodeType.VALIDATOR),
    MemberSpec("ship", MemberRole.PARTICIPANT, NodeType.VALIDATOR),
]


def inline(steps, expectations, extras=()):
    return Scenario(name="inline", seed=5, members=list(FIVE), steps=steps,
                    expectations=expectations, extras=list(extras))


# -- contract dispatch edges ----------------------------------------------------------

ADMIN = generate_keypair(b"\x01" * 32).address.hex0x


@pytest.fixture
def runtime():
    return ContractRuntime(admin=ADMIN, bootstrap_count=5)


def test_transaction_method_is_not_a_view(runtime):
    with pytest.raises(ContractError):
        runtime.call_view("increment_read_count", {"wine_id": "W1"})


def test_record_count_needs_the_v2_implementation(runtime):
    with pytest.raises(ContractError):
        runtime.call_view("record_count", {})
    runtime.execute(ADMIN, "proxy_admin", "upgrade_to", {"version": "winedata-v2"})
    assert runtime.call_view("record_count", {}) == 0


@pytest.mark.parametrize("target, method", [
    ("vault", "create_wine_record"),          # unknown target
    ("registry", "drop_peers"),               # unknown registry method
    ("registry", "get_peers"),                # registry view sent as a transaction
    ("proxy_admin", "initialize"),            # proxy-admin method not on the surface
    ("proxy", "snapshot"),                    # implementation attribute, not a method
    ("proxy", "record_count"),                # v2 view, under v1 and as a transaction
])
def test_unknown_or_wrong_surface_transaction(runtime, target, method):
    with pytest.raises(ContractError):
        runtime.execute(ADMIN, target, method, {})


def test_unknown_view(runtime):
    with pytest.raises(ContractError):
        runtime.call_view("peers", {})


@pytest.mark.parametrize("implementation", [WineDataContractV1, WineDataContractV2,
                                            PeerRegistryContract, Proxy])
def test_declared_proxy_methods_exist(implementation):
    assert not implementation.TRANSACTIONS & implementation.VIEWS
    for name in implementation.TRANSACTIONS | implementation.VIEWS:
        assert callable(getattr(implementation, name, None)), name


def test_registry_views_shadow_no_wine_data_view():
    # call_view resolves a registry view before the proxy's
    assert not PeerRegistryContract.VIEWS & WineDataContractV2.VIEWS


# -- scenario actions and expectations ------------------------------------------------

def readme_names(heading, pattern=r"`([a-z_]+)`"):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = text.split(f"\n{heading}: ", 1)[1].split("\n\n", 1)[0]
    return set(re.findall(pattern, paragraph))


def test_readme_lists_every_action_and_expectation():
    assert readme_names("Actions") == set(ScenarioRunner.ACTIONS)
    assert readme_names("Expectations") == set(ScenarioRunner.EXPECTATIONS)


def test_readme_lists_every_endpoint():
    assert readme_names("Endpoints", r"`(/[a-z/-]+)`") == set(BlockchainService.ENDPOINTS)


def test_ship_record_sets_in_transit():
    steps = [Step(2, "maker", "create_record", {"wine_id": "W1"}),
             Step(6, "maker", "ship_record", {"wine_id": "W1"})]
    report = run_scenario(inline(
        steps, [{"kind": "record_status", "wine_id": "W1", "equals": "in_transit"}]))
    assert report.passed, report.render_text()


def test_remove_member_shrinks_registry_and_validators():
    steps = [Step(2, "admin", "remove_member", {"member_id": "ship"})]
    report = run_scenario(inline(
        steps, [{"kind": "registry_size", "equals": 4},
                {"kind": "validator_count", "equals": 4}]))
    assert report.passed, report.render_text()
    assert "ship" not in {p["member_id"] for p in report.registry}


def test_set_consensus_level_blocks_admission_below_it():
    # five members vote, six are required: the candidate stays out
    steps = [Step(2, "admin", "set_consensus_level", {"level": 6}),
             Step(6, "admin", "onboard_member",
                  {"member_id": "late", "role": "participant", "node_type": "validator"})]
    report = run_scenario(inline(
        steps, [{"kind": "registry_size", "equals": 5},
                {"kind": "validator_count", "equals": 5}]))
    assert report.passed, report.render_text()


def test_upgrade_contract_swaps_the_implementation():
    steps = [Step(2, "maker", "create_record", {"wine_id": "W1"}),
             Step(4, "admin", "upgrade_contract", {"version": "winedata-v2"})]
    runner = ScenarioRunner(inline(
        steps, [{"kind": "write_count", "wine_id": "W1", "equals": 1}]))
    report = runner.run()
    assert report.passed, report.render_text()
    assert runner.consortium.chain.runtime.proxy.current_implementation == "winedata-v2"
    assert runner.consortium.chain.call_view("record_count", {}) == 1


def test_tamper_record_is_caught_at_the_content_store():
    steps = [Step(2, "maker", "create_record", {"wine_id": "W1"}),
             Step(6, "intruder", "tamper_record",
                  {"wine_id": "W1", "field": "vintage", "value": 1899}),
             Step(8, "dist", "validate_record", {"wine_id": "W1"})]
    report = run_scenario(inline(
        steps,
        [{"kind": "attack_logged", "wine_id": "W1", "attack_class": "modification",
          "layer": "content_store"},
         {"kind": "last_validation", "wine_id": "W1", "result": "modification"}],
        extras=["intruder"]))
    assert report.passed, report.render_text()


def test_step_error_expectation():
    steps = [Step(2, "dist", "create_record", {"wine_id": "W1"}, expect_error="winemaker"),
             Step(4, "maker", "create_record", {"wine_id": "W2"})]
    report = run_scenario(inline(
        steps, [{"kind": "step_error", "index": 0, "contains": "winemaker"},
                {"kind": "step_error", "index": 0, "contains": "no such text"},
                {"kind": "step_error", "index": 1}]))
    assert [e["passed"] for e in report.expectations] == [True, False, False]
    assert not report.passed
