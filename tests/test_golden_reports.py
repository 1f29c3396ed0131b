"""Pinned digests of the bundled scenario reports.

A ``(seed, scenario)`` pair must give a byte-identical report across changes
that claim the same behaviour (a faster signature check, a cheaper state
root). These digests are the SHA-256 of ``Report.canonical_bytes()`` at each
scenario's own seed and at seed 101; a change that moves one changed what
the system does, and must say so.
"""

import hashlib

import pytest

from dnas.scenario import load_scenario
from dnas.simnet import run_scenario

GOLDEN = {  # (scenario, seed; None for its own) -> SHA-256 of the canonical report
    ("happy_path", None): "bd5cf544a62c3d55b504119568296a5800cc46a9799ed1873719b25ee5440929",
    ("happy_path", 101): "54f2c5842f65b425b6a4cf7772e587e7b5ac1dca60ddb4053fcb509adae6733b",
    ("cloned_tag", None): "15140c14df06ba381e6658d426bf451762353867d28b9e21f5cd4ce4cfb96778",
    ("cloned_tag", 101): "3d1ccf2e6413f92c7421372c96319dd954761cd40a985ec0b7baa317e458a534",
    ("halted_validator", None): "cd5b076e0ce49fab11d329717a142c10f294d050faed790198a2d1004b1b6a02",
    ("halted_validator", 101): "384c08272bfaa7ea59042a58dd1da3d6f7baa360ab61b2cdac3cfce9a8c8d3e3",
}


@pytest.mark.parametrize("name,seed", [
    pytest.param(name, seed, id=f"{name}-{'own-seed' if seed is None else seed}")
    for name, seed in GOLDEN])
def test_report_bytes_are_pinned(name, seed):
    report = run_scenario(load_scenario(name), seed=seed)
    assert hashlib.sha256(report.canonical_bytes()).hexdigest() == GOLDEN[(name, seed)]
