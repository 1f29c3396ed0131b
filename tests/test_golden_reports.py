"""Pinned digests of the bundled scenario reports.

A ``(seed, scenario)`` pair must give a byte-identical report across changes
that claim the same behaviour (a faster signature check, a cheaper state
root). Each case pins two SHA-256 digests, at each scenario's own seed and
at seed 101: one of ``Report.canonical_bytes()``, and one of the same report
with its ``state_root`` blanked. A change of the state encoding moves only
the first; a change that moves the second changed what the system does, and
must say so. ``BLOCK_HASHES`` pins block hashes, which commit to each header
field, the transactions' hashes and, through the parent hash, every block
before them.
"""

import hashlib

import pytest

from dnas.encoding import canonical_json_bytes
from dnas.scenario import bundled_scenario_names, load_scenario
from dnas.simnet import ScenarioRunner, run_scenario

GOLDEN = {  # (scenario, seed; None for its own) -> (full report, report without its root)
    ("happy_path", None): (
        "e30295573dede569332135b5f80a3f54feeca4a4530186abea396942eaf5a1ec",
        "b562af171ead314b0830adecadf8329df89ef0e3f41cf4d35186f206986e3f65"),
    ("happy_path", 101): (
        "1fe976d3191d4c2181bf8bdbeb38a79473cb4b2f968faed30e32806f3df74acf",
        "b62e315c76c6535e99192dbb61021c1562c391b34bcb71c3d83903375d36bffd"),
    ("cloned_tag", None): (
        "9d8b4ee39b7cf55e6612dbc28076cfc0b13117c033f68a3435596173cdd1b41e",
        "07b19b08304c8d47795cf0caa5504a09c7dd2c816244da4b9013fd12a50c8540"),
    ("cloned_tag", 101): (
        "7f3bd4c9afebcc2cf458acdb0743b33b3d6c053f208e0b69ba9adc9cd04d8147",
        "94cf406ac75489fd981df3fa9a971bc246d74e96d9548010a61cd8f040690dcb"),
    ("halted_validator", None): (
        "97e49ee41347509d2be1548667529123741a1c1fd4e7ff428e0c1605ab3ff5c7",
        "cd34baf2eeed19cdb847aeaccacd0834dc7a5b34b51c89e02fce48e61bf52bea"),
    ("halted_validator", 101): (
        "cc3745322c85d57b92be4bbd8f73da0f5c1dace0c57b0e8de34d7d834913063c",
        "8108fee4ac3644b2187701de8d6c15d7a3469dedc61a3009dd5d76ef2522ceec"),
    ("governance", None): (
        "1125792c92e45b48cd19970fb1f2d02a21c19d034f338bbe006095ac76e11e62",
        "001ddba9d753fb617ea59098b7f0be21b39009bc366358ea5593b35b223500a5"),
    ("governance", 101): (
        "130fce26ed504fc0248149150febde91e83b6592f646962254608d12173a1c44",
        "56c47760f440c05ca16076f2fa53b8f968c2a2bbeee4d147d5404dd6636da0b9"),
    ("tampering", None): (
        "8630d865465a5be9acee5310ab57fa983945406e542e8ae92bdfc215ca87e833",
        "6089b7a6e94d1e54e5b0b34b9b0875c2c3d3abe34f75c79fab3715c2d6160684"),
    ("tampering", 101): (
        "d000f170d1cb1736406bfecde6f263fb6f73a1eb81ee28cbaabea08bb945b527",
        "97f1bfa27a3adda40eba99ecf6db0af526d651cc512641380e7a9d5c37463cb7"),
}


def test_every_bundled_scenario_is_pinned():
    assert set(bundled_scenario_names()) == {name for name, _ in GOLDEN}


@pytest.mark.parametrize("name,seed", [
    pytest.param(name, seed, id=f"{name}-{'own-seed' if seed is None else seed}")
    for name, seed in GOLDEN])
def test_report_bytes_are_pinned(name, seed):
    report = run_scenario(load_scenario(name), seed=seed)
    full, rootless = GOLDEN[(name, seed)]
    # behaviour first: every report field but the state root
    without_root = dict(report.to_dict(), state_root="")
    assert hashlib.sha256(canonical_json_bytes(without_root)).hexdigest() == rootless
    assert hashlib.sha256(report.canonical_bytes()).hexdigest() == full


BLOCK_HASHES = {  # scenario, at its own seed -> (head height, heights of the blocks
    # whose headers carry validator votes, {height: block hash})
    "happy_path": (32, [], {
        1: "0x2dab3ed81be8bcd726fc48cce1d8b18ea4699fce2a5b96a434adf40b3d0dd1a0",
        32: "0x26e7ee89af4e13ab170d149fc7ab08a72f1dfdece6a8418a62c2ba183d57ab6d"}),
    "governance": (34, [7, 11], {
        34: "0x9181f93c4e4bf16144f586e9414555427a3cb7ed7964db755952e8559411addb"}),
}


@pytest.mark.parametrize("name", sorted(BLOCK_HASHES))
def test_block_hashes_are_pinned(name):
    runner = ScenarioRunner(load_scenario(name))
    runner.run()
    chain = runner.consortium.chain
    height, voted, hashes = BLOCK_HASHES[name]
    assert chain.height == height
    assert [block.number for block in chain.blocks if block.votes] == voted
    assert {number: chain.query_block(number).hash for number in hashes} == hashes
