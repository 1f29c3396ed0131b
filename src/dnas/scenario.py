"""Scenario files: declarative multi-node runs with expectations.

A scenario names its members (and extra actors such as consumers), a
time-ordered list of actions, and the expectations checked when the run
finishes. Bundled scenarios live in the package's scenarios/ directory and
can be referenced by bare name.
"""

import json
from dataclasses import MISSING, dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union, get_args, get_origin

from .encoding import canonical_json_bytes
from .errors import EncodingError, ScenarioError
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
    end_time: Optional[int] = None
    session_timeout: Optional[int] = None

    def validate(self) -> None:
        from .simnet import ScenarioRunner  # simnet imports this module
        admin_count = sum(1 for m in self.members if m.role is MemberRole.ADMINISTRATOR)
        if admin_count != 1:
            raise ScenarioError("scenario needs exactly one administrator")
        for extra in self.extras:
            if not isinstance(extra, str):
                raise ScenarioError(f"scenario: 'extras' entry must be str, not {extra!r}")
        actors = {m.member_id for m in self.members} | set(self.extras)
        last_at = None
        for index, step in enumerate(self.steps):
            if last_at is not None and step.at < last_at:
                raise ScenarioError(f"step {index} is out of time order")
            last_at = step.at
            if self.end_time is not None and step.at > self.end_time:
                raise ScenarioError(f"step {index} at t={step.at} is after end_time {self.end_time}")
            if step.action not in ScenarioRunner.ACTIONS:
                raise ScenarioError(f"step {index}: unknown action {step.action!r}")
            _check(f"step {index} ({step.action})", step.params,
                   ScenarioRunner.ACTIONS[step.action][1])
            if step.action == "onboard_member":
                try:
                    MemberRole(step.params.get("role", "participant"))
                    NodeType(step.params.get("node_type", "validator"))
                except ValueError as exc:
                    raise ScenarioError(f"step {index} (onboard_member): {exc}") from None
            if step.action == "tamper_tag" and step.params["field"] == "read_counter":
                _check(f"step {index} (tamper_tag)", {"value": step.params["value"]},
                       {"value": int})  # a tag's read counter is an int; other fields any value
            if step.actor not in actors:
                # onboarded members become actors once their step declares them
                onboarded = {s.params.get("member_id") for s in self.steps
                             if s.action == "onboard_member"}
                if step.actor not in onboarded:
                    raise ScenarioError(f"step {index}: unknown actor {step.actor!r}")
        for index, expectation in enumerate(self.expectations):
            kind = expectation.get("kind") if isinstance(expectation, dict) else None
            if not isinstance(kind, str) or kind not in ScenarioRunner.EXPECTATIONS:
                raise ScenarioError(f"expectation {index}: unknown kind {kind!r}")
            where = f"expectation {index} ({kind})"
            if (kind == "step_error" and "index" in expectation
                    and expectation["index"] not in range(len(self.steps))):
                raise ScenarioError(f"{where}: no step {expectation['index']!r}")
            _check(where, expectation, {"kind": str, **ScenarioRunner.EXPECTATIONS[kind][1]})

    @property
    def horizon(self) -> int:
        if self.end_time is not None:
            return self.end_time
        return max((s.at for s in self.steps), default=0) + 8


def _kind(annotation) -> Tuple[type, bool]:
    """The type a value so annotated must have, and whether it may be left out
    (``Optional[X]``); ``List[...]`` and ``Dict[...]`` are a list and a dict."""
    if get_origin(annotation) is Union:
        return _kind(get_args(annotation)[0])[0], True
    return get_origin(annotation) or annotation, False


def _check(where: str, given: Dict[str, object], keys: Dict[str, object]) -> None:
    """Refuse a key that ``keys`` does not declare, a declared key left out
    unless it is ``Optional``, and a value that is not of its declared type."""
    if not isinstance(given, dict):
        raise ScenarioError(f"{where}: {given!r} is not an object")
    for key in given:
        if key not in keys:
            raise ScenarioError(f"{where}: unknown key {key!r}")
    for key, annotation in keys.items():
        kind, optional = _kind(annotation)
        if key not in given:
            if not optional:
                raise ScenarioError(f"{where}: missing {key!r}")
        elif not isinstance(given[key], kind) or kind is int and isinstance(given[key], bool):
            raise ScenarioError(f"{where}: {key!r} must be {kind.__name__}, not {given[key]!r}")


def _fields(cls) -> Dict[str, object]:
    """A dataclass's fields as a key table: a field with a default may be left out."""
    return {f.name: f.type if f.default is MISSING and f.default_factory is MISSING
            else Optional[f.type] for f in fields(cls)}


def scenario_from_dict(raw: Dict[str, object], name_hint: str = "scenario") -> Scenario:
    try:
        canonical_json_bytes(raw)  # a lone surrogate parses as JSON, but encodes nowhere
        raw = {"name": name_hint, "seed": 0, "steps": [], "expectations": [], **raw}
        _check("scenario", raw, _fields(Scenario))
        for index, step in enumerate(raw["steps"]):
            _check(f"step {index}", step, _fields(Step))
        members = []
        for index, m in enumerate(raw["members"]):  # role and node type name enum members
            _check(f"member {index}", m, {"member_id": str, "role": str, "node_type": str})
            members.append(MemberSpec(m["member_id"], MemberRole(m["role"]),
                                      NodeType(m["node_type"])))
        scenario = Scenario(**{**raw, "members": members,
                               "steps": [Step(**step) for step in raw["steps"]]})
    except (KeyError, TypeError, ValueError, EncodingError) as exc:
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
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too many digits or levels
            raise ScenarioError(f"cannot parse {ref}: {exc}") from exc
        return scenario_from_dict(raw, name_hint=path.stem)
    candidate = resources.files("dnas").joinpath("scenarios").joinpath(f"{ref}.json")
    if candidate.is_file():
        raw = json.loads(candidate.read_text())
        return scenario_from_dict(raw, name_hint=ref)
    raise ScenarioError(f"no scenario file or bundled scenario named {ref!r}")
