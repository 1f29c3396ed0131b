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
        "d46687e1a638742c959783c49f69208c55bd43c963c792e0eb9a8edec212ac1d",
        "8ab1d72126107ef849c4a60a438ac02ffe4ebb719087e3f240dc5eb84331880f"),
    ("happy_path", 101): (
        "ed1a0c8ec0116e02942e08983b7dbba955ee8c0e6af73edcefd18061a51013a7",
        "4f5ae690ba9e7ca449eea2b3a6c34b437ee538272d47fb5497bde12a6f0a64a2"),
    ("cloned_tag", None): (
        "55d64550a0a167d6528602e395bdf5a04d5a09d9153867a4a0f532909cbd9b5b",
        "67c62397796eb81d065cdfb75b0a3a14b78592cdb96f0962700438c85ad4ec99"),
    ("cloned_tag", 101): (
        "1a58783069cd422e32252e5fc9c5fe269941289312d08f8ab5c861fc30919d0f",
        "c564ed41d01049fdcd66731493b8298f59f492bf963e4a51db09e791ff459b81"),
    ("halted_validator", None): (
        "b79f818c188d751a2f0de7e6c9d9622956cd18c8a34502ef62a3ccedae53a658",
        "1b7d1987ee91dd3d1fda6dbb23778efb3117bdf1e751b5b03346a5f0831b0684"),
    ("halted_validator", 101): (
        "9557d03121e1be4be44cbce343efd0dab5d0a78d4aaa3980463ad0cfc10f992b",
        "2326db60ed5b638b9d8d58aa4d846101e0d6b17b6e3e925e1756878a32937d3e"),
    ("governance", None): (
        "6794ce4739f014516d1be30417bba4b7e44deee876249f0d740431cbafa82caf",
        "8182110e60d3184b87b476bf8ad0a6e2fc99f8a0e65a45ee472c4c983246e69c"),
    ("governance", 101): (
        "9bda8386f161794872d502bc24c65e8f280e91ace782516feae57ec197d48cfa",
        "8835f48b67f83bc80494c362a4ac5f4ff818e33f52c2d976afaa3b0868ad13f9"),
    ("tampering", None): (
        "0e5ff56081edd928e12df2115f37446787adbe48914ed6d25ba1602cc511960a",
        "44382f40d6c8c7964214e2d721b27eafb6cee139cebcf2ecd76b7a989f4df3d0"),
    ("tampering", 101): (
        "d29eadf86ecf845a9b60a7941cc9db6754527c89215f563c6716a602ec86bd1c",
        "2046315ff289d27dc7eae0a5e4d0152e02d70f91feb20959abe015d4a27e1e96"),
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
