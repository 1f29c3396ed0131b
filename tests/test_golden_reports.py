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
        "ec1fee92fd2a74327825a2723d81b3a1c5e3f0a5a1493616e6b2ffb73587314c",
        "b562af171ead314b0830adecadf8329df89ef0e3f41cf4d35186f206986e3f65"),
    ("happy_path", 101): (
        "1e3a28c743941e2f75dc8a21386306b13b9936341b66ed660899f68ef688d9a1",
        "b62e315c76c6535e99192dbb61021c1562c391b34bcb71c3d83903375d36bffd"),
    ("cloned_tag", None): (
        "3d8537aa0f8dad34b0f66c1b67d527d7e11b355f11293e911e3027859bb36dd0",
        "07b19b08304c8d47795cf0caa5504a09c7dd2c816244da4b9013fd12a50c8540"),
    ("cloned_tag", 101): (
        "2a146ba8bf9968cf79047a7a5c9fe308f54a3ffda5b82685836551f86057d1a5",
        "94cf406ac75489fd981df3fa9a971bc246d74e96d9548010a61cd8f040690dcb"),
    ("halted_validator", None): (
        "e83f3774fe376176698e20e649b373badc8bd2b893b9de10dc8fa41cff2a3b44",
        "cd34baf2eeed19cdb847aeaccacd0834dc7a5b34b51c89e02fce48e61bf52bea"),
    ("halted_validator", 101): (
        "347df5aac9bc459c0219700741a2524e3faca122faaf9787402cfd85c9d7b695",
        "8108fee4ac3644b2187701de8d6c15d7a3469dedc61a3009dd5d76ef2522ceec"),
    ("governance", None): (
        "a03dbc006e217e347c86a02cf7588ee9ecd02af1c8acb2553c16ee28f73082e1",
        "00cf0f755087fe3499d0ec46496df36e2b9f023615a41f9db4ed91577f236785"),
    ("governance", 101): (
        "790faf75e9807ba4036d248e4ff24af7eee102e7d47c734adee8776f641b0807",
        "1cf1a9b5765464dc1f90e5c3e966a67b207659fcfd9716d2c24f70478bc3d52a"),
    ("tampering", None): (
        "c2a6eeee810b5124c1b10ad4634ec618eb83dbbb969a17de15ad43337748e396",
        "6089b7a6e94d1e54e5b0b34b9b0875c2c3d3abe34f75c79fab3715c2d6160684"),
    ("tampering", 101): (
        "5005fa1eead15ed31ff6e2d2e2724c7ba1706720b3c398527de373f4061cfb23",
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
