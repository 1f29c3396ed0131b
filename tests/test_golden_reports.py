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
        "b696c157a79279b4fdada319375790aab4ef480117f61c512f13bd5459baa85e",
        "b562af171ead314b0830adecadf8329df89ef0e3f41cf4d35186f206986e3f65"),
    ("happy_path", 101): (
        "ddf71426c61e3c1b0acd0eee453eda000d3c3ababa554d743dc2a5e1fc585ac7",
        "b62e315c76c6535e99192dbb61021c1562c391b34bcb71c3d83903375d36bffd"),
    ("cloned_tag", None): (
        "ffdadbe063dd232805fdbb6cb4dbd1c8ae5bcc963c1a5eb307014056b6961671",
        "07b19b08304c8d47795cf0caa5504a09c7dd2c816244da4b9013fd12a50c8540"),
    ("cloned_tag", 101): (
        "896fec0e17c383385f745c71c475a0a8e6a0a27fdb2840b0d2c443eb776429d3",
        "94cf406ac75489fd981df3fa9a971bc246d74e96d9548010a61cd8f040690dcb"),
    ("halted_validator", None): (
        "03df73f9d246863d488962384302a2a91480f5ca4cbee6a0e2725d1090f3e231",
        "cd34baf2eeed19cdb847aeaccacd0834dc7a5b34b51c89e02fce48e61bf52bea"),
    ("halted_validator", 101): (
        "2deb8d8502e41f4499b3eb7105664d86004088012760eb95a736b6528dec7036",
        "8108fee4ac3644b2187701de8d6c15d7a3469dedc61a3009dd5d76ef2522ceec"),
    ("governance", None): (
        "4a6a37aca8cc96bf41014059328c1dc492b9d30a69a2df1ebbe249f174eea3a4",
        "00cf0f755087fe3499d0ec46496df36e2b9f023615a41f9db4ed91577f236785"),
    ("governance", 101): (
        "4dfc4f9254e7899ccafb45c4ab093dc8db34db6419f74772096f729b216ef0d7",
        "1cf1a9b5765464dc1f90e5c3e966a67b207659fcfd9716d2c24f70478bc3d52a"),
    ("tampering", None): (
        "92632a7cd8975e0727939f5fecb23e6cfeb86d53670899a58e711960c4794bbd",
        "6089b7a6e94d1e54e5b0b34b9b0875c2c3d3abe34f75c79fab3715c2d6160684"),
    ("tampering", 101): (
        "e8d501ba8783be7d94288ac0502f97fd621fd36bacf72670955e3e7ea6a3e560",
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
