"""Pinned digests of the bundled scenario reports.

A ``(seed, scenario)`` pair must give a byte-identical report across changes
that claim the same behaviour (a faster signature check, a cheaper state
root). Each case pins two SHA-256 digests, at each scenario's own seed and
at seed 101: one of ``Report.canonical_bytes()``, and one of the same report
with its ``state_root`` blanked. A change of the state encoding moves only
the first; a change that moves the second changed what the system does, and
must say so.
"""

import hashlib

import pytest

from dnas.encoding import canonical_json_bytes
from dnas.scenario import bundled_scenario_names, load_scenario
from dnas.simnet import run_scenario

GOLDEN = {  # (scenario, seed; None for its own) -> (full report, report without its root)
    ("happy_path", None): (
        "21f4e392a2fdba1de5aa6028fc5a1796324a58f8f5e939ac9e767675b2c616a0",
        "b562af171ead314b0830adecadf8329df89ef0e3f41cf4d35186f206986e3f65"),
    ("happy_path", 101): (
        "6076443540c4b3b59857fc02e7b9502d84ffbcdc17f00d30db12dd26df160176",
        "b62e315c76c6535e99192dbb61021c1562c391b34bcb71c3d83903375d36bffd"),
    ("cloned_tag", None): (
        "0df2c33b4ca68ed15301be4183be9bc07a58baccc858379d180ef55028a34bb0",
        "07b19b08304c8d47795cf0caa5504a09c7dd2c816244da4b9013fd12a50c8540"),
    ("cloned_tag", 101): (
        "16b3a9bfae43aa9fac462e5fa8a5ed8c5aeb73b8153f338ae5e4657c447b141e",
        "94cf406ac75489fd981df3fa9a971bc246d74e96d9548010a61cd8f040690dcb"),
    ("halted_validator", None): (
        "5575d910ea8f09d501c701c0f37eb20a113e950fb819da213b65752820ae1063",
        "cd34baf2eeed19cdb847aeaccacd0834dc7a5b34b51c89e02fce48e61bf52bea"),
    ("halted_validator", 101): (
        "e4242da94d209c46cb47480a3082061286454521697c1b2b1321c3a4c3c1b3b2",
        "8108fee4ac3644b2187701de8d6c15d7a3469dedc61a3009dd5d76ef2522ceec"),
    ("governance", None): (
        "7abd88cccecf3d6a0c93216a1991b38e6a7ca5a6405e2d3f9ca5ea0e6ffe1938",
        "00cf0f755087fe3499d0ec46496df36e2b9f023615a41f9db4ed91577f236785"),
    ("governance", 101): (
        "7003be74fced9b025a70c4f5cb16ae073ecd4050c92315f4a3af8500205b14ac",
        "1cf1a9b5765464dc1f90e5c3e966a67b207659fcfd9716d2c24f70478bc3d52a"),
    ("tampering", None): (
        "03a5f036cde3a0c9015531684432f2d9cfab1c4a39a2f60fead2550151355859",
        "6089b7a6e94d1e54e5b0b34b9b0875c2c3d3abe34f75c79fab3715c2d6160684"),
    ("tampering", 101): (
        "73e685a9278363d69215f7ed3e9e90aa333b9f9240fc174cadc84da80ca43c0c",
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
