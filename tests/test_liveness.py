"""Work that is started finishes, or the run says it did not: the gas limit
keeps room for a transaction, and a scenario cut at its hard stop fails."""

import pytest

from dnas.errors import ConfigError
from dnas.keys import generate_keypair
from dnas.ledger import TX_GAS, Chain, GenesisConfig, sign_transaction
from dnas.scenario import MemberSpec, Scenario, Step
from dnas.service import MemberRole, NodeType
from dnas.simnet import run_scenario

KEY = generate_keypair(b"\x07" * 32)
ADDRESS = KEY.address.hex0x


def one_sealer_genesis(**kw):
    return GenesisConfig(chain_id=77, period=1, initial_validators=(ADDRESS,), **kw)


def test_gas_floor_below_one_transaction_rejected():
    with pytest.raises(ConfigError):
        one_sealer_genesis(gas_limit=TX_GAS - 1).validate()


def test_pool_drains_after_empty_blocks_at_the_floor():
    chain = Chain(one_sealer_genesis(gas_limit=TX_GAS), contract_admin=ADDRESS)
    for timestamp in (1, 2, 3):
        chain.seal_block(ADDRESS, timestamp=timestamp)
    assert chain.head.gas_limit == TX_GAS
    chain.submit_transaction(sign_transaction(KEY, 77, "registry", "bootstrap_add_peer", {
        "entry": {"address": ADDRESS, "role": "winemaker", "node_id": "enode-0",
                  "member_id": "m0", "joined_at": 0}}, nonce=0))
    block = chain.seal_block(ADDRESS, timestamp=4)
    assert len(block.transactions) == 1 and not chain.pool


def test_run_cut_at_the_hard_stop_fails():
    # every sealer halted: the record's transaction is still pooled when the
    # run is cut, horizon + 64 ticks after its start
    members = [
        MemberSpec("admin", MemberRole.ADMINISTRATOR, NodeType.VALIDATOR),
        MemberSpec("maker", MemberRole.WINEMAKER, NodeType.VALIDATOR),
        MemberSpec("dist", MemberRole.PARTICIPANT, NodeType.VALIDATOR),
        MemberSpec("retail", MemberRole.PARTICIPANT, NodeType.VALIDATOR),
        MemberSpec("ship", MemberRole.PARTICIPANT, NodeType.LISTENER),
    ]
    steps = [Step(1, "admin", "halt_node", {"member": m})
             for m in ("admin", "maker", "dist", "retail")]
    steps.append(Step(2, "maker", "create_record", {"wine_id": "W1"}))
    report = run_scenario(Scenario(name="stalled", seed=3, members=members, steps=steps,
                                   expectations=[]))
    assert all(s["ok"] for s in report.steps)
    assert not report.passed
    assert report.expectations == [{
        "kind": "drained", "passed": False,
        "description": "run drains before the hard stop (1 pooled tx(s), 0 bus message(s) left)"}]
    assert "[FAIL] run drains before the hard stop (1 pooled tx(s)" in report.render_text()
