"""Scenario files: declarative multi-node runs with expectations.

A scenario names its members (and extra actors such as consumers), a
time-ordered list of actions, and the expectations checked when the run
finishes. Bundled scenarios live in the package's scenarios/ directory and
can be referenced by bare name.
"""

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Dict, List, Optional

from .errors import ScenarioError
from .service import MemberRole, NodeType

@dataclass
class Step:
    at: int
    actor: str
    action: str
    params: Dict[str, object] = field(default_factory=dict)
    expect_error: Optional[str] = None  # substring the step error must carry


@dataclass
class MemberSpec:
    member_id: str
    role: MemberRole
    node_type: NodeType


@dataclass
class Scenario:
    name: str
    seed: int
    members: List[MemberSpec]
    steps: List[Step]
    expectations: List[Dict[str, object]]
    extras: List[str] = field(default_factory=list)  # consumers / attackers
    chain_id: int = 77
    period: int = 1
    gas_limit: int = 8_000_000
    bootstrap_count: int = 5
    end_time: Optional[int] = None
    session_timeout: Optional[int] = None

    def validate(self) -> None:
        from .simnet import ScenarioRunner  # simnet imports this module
        if not self.members:
            raise ScenarioError("scenario declares no members")
        admin_count = sum(1 for m in self.members if m.role is MemberRole.ADMINISTRATOR)
        if admin_count != 1:
            raise ScenarioError("scenario needs exactly one administrator")
        actors = {m.member_id for m in self.members} | set(self.extras)
        last_at = None
        for index, step in enumerate(self.steps):
            if last_at is not None and step.at < last_at:
                raise ScenarioError(f"step {index} is out of time order")
            last_at = step.at
            if step.action not in ScenarioRunner.ACTIONS:
                raise ScenarioError(f"step {index}: unknown action {step.action!r}")
            _require(f"step {index} ({step.action})", step.params,
                     ScenarioRunner.ACTION_PARAMS[step.action])
            if step.action == "onboard_member":
                try:
                    MemberRole(step.params.get("role", "participant"))
                    NodeType(step.params.get("node_type", "validator"))
                except ValueError as exc:
                    raise ScenarioError(f"step {index} (onboard_member): {exc}") from None
            if step.actor not in actors:
                # onboarded members become actors once their step declares them
                onboarded = {s.params.get("member_id") for s in self.steps
                             if s.action == "onboard_member"}
                if step.actor not in onboarded:
                    raise ScenarioError(f"step {index}: unknown actor {step.actor!r}")
        for index, expectation in enumerate(self.expectations):
            kind = expectation.get("kind")
            if kind not in ScenarioRunner.EXPECTATIONS:
                raise ScenarioError(f"expectation {index}: unknown kind {kind!r}")
            _require(f"expectation {index} ({kind})", expectation,
                     ScenarioRunner.EXPECTATION_KEYS.get(kind, ()))
            if kind == "step_error" and expectation["index"] not in range(len(self.steps)):
                raise ScenarioError(f"expectation {index} (step_error): no step "
                                    f"{expectation['index']!r}")

    @property
    def horizon(self) -> int:
        if self.end_time is not None:
            return self.end_time
        last = max((s.at for s in self.steps), default=0)
        return last + 8 * self.period


def _require(where: str, fields: Dict[str, object], keys) -> None:
    for key in keys:
        if key not in fields:
            raise ScenarioError(f"{where}: missing {key!r}")


# the settings a file may leave out; ``Scenario`` holds their defaults
_OPTIONAL = ("chain_id", "period", "gas_limit", "bootstrap_count", "end_time",
             "session_timeout")


def scenario_from_dict(raw: Dict[str, object], name_hint: str = "scenario") -> Scenario:
    try:
        members = [MemberSpec(member_id=m["member_id"], role=MemberRole(m["role"]),
                              node_type=NodeType(m["node_type"]))
                   for m in raw["members"]]
        steps = [Step(at=s["at"], actor=s["actor"], action=s["action"],
                      params=dict(s.get("params", {})),
                      expect_error=s.get("expect_error"))
                 for s in raw.get("steps", [])]
        scenario = Scenario(
            name=raw.get("name", name_hint),
            seed=raw.get("seed", 0),
            members=members,
            steps=steps,
            expectations=list(raw.get("expectations", [])),
            extras=list(raw.get("extras", [])),
            **{key: raw[key] for key in _OPTIONAL if key in raw},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc
    scenario.validate()
    return scenario


def bundled_scenario_names() -> List[str]:
    names = []
    for item in resources.files("dnas").joinpath("scenarios").iterdir():
        if item.name.endswith(".json"):
            names.append(item.name[:-5])
    return sorted(names)


def load_scenario(ref: str) -> Scenario:
    """Load a scenario from a file path or a bundled scenario name."""
    path = Path(ref)
    if path.exists():
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"cannot parse {ref}: {exc}") from exc
        return scenario_from_dict(raw, name_hint=path.stem)
    candidate = resources.files("dnas").joinpath("scenarios").joinpath(f"{ref}.json")
    if candidate.is_file():
        raw = json.loads(candidate.read_text())
        return scenario_from_dict(raw, name_hint=ref)
    raise ScenarioError(f"no scenario file or bundled scenario named {ref!r}")
