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
        "64f07de584cb950fbc1cc9405e7c1ab68023273029341c5080acf6c09494af26",
        "b562af171ead314b0830adecadf8329df89ef0e3f41cf4d35186f206986e3f65"),
    ("happy_path", 101): (
        "aadc2d1359c8ac84577a0558790e5698762c0288243123a34ad2ef9a71c48af6",
        "b62e315c76c6535e99192dbb61021c1562c391b34bcb71c3d83903375d36bffd"),
    ("cloned_tag", None): (
        "005691d05037e017887f3686e6c88533416d9c49dc9b8b7831459a17e2b0ec12",
        "07b19b08304c8d47795cf0caa5504a09c7dd2c816244da4b9013fd12a50c8540"),
    ("cloned_tag", 101): (
        "0538a7edeac9147eff070e50862ddf38a2edc73e4e3394b2f925b60aeb84eab9",
        "94cf406ac75489fd981df3fa9a971bc246d74e96d9548010a61cd8f040690dcb"),
    ("halted_validator", None): (
        "ebb097b9d920422f3ef666b5641b991613c886be20cd40db2c850a8ea0618867",
        "cd34baf2eeed19cdb847aeaccacd0834dc7a5b34b51c89e02fce48e61bf52bea"),
    ("halted_validator", 101): (
        "df87d510ecd94ea1da1cfd2ff6f6f314e0c984a6123e1fb5c671aeb49a895313",
        "8108fee4ac3644b2187701de8d6c15d7a3469dedc61a3009dd5d76ef2522ceec"),
    ("governance", None): (
        "5290f94fec133176ae1e4785c75935b9b86044d59a656876a2a554421c3ba9a2",
        "1b51b6fa42f69aab1834ce1d5be3c3b3f1d54d7b65485e03d9c668d508cc5f2d"),
    ("governance", 101): (
        "97ec52e0508d9907cae63925921c8c2ae5fe068aa3ad398a3fd90d5c2ccf0919",
        "06fa28203d5ca7a6ec944fdfcd277d3e0fea7b114d8a2167fb571fce5b662254"),
    ("tampering", None): (
        "6c851375e0ff26e02aaa048006a233f848ff8ccb0029eec08f017ab68096aec3",
        "6089b7a6e94d1e54e5b0b34b9b0875c2c3d3abe34f75c79fab3715c2d6160684"),
    ("tampering", 101): (
        "e5aa91bfb563fe53c91d438f6bff40dbc1260d818bb769c3cbb24ee94dcfec1f",
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
