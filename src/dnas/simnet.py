"""Deterministic multi-node simulation: clock, message bus, scenario runner.

Cross-component deliveries (mined receipts, contract events) are deferred by
one tick through the bus, whose delivery order is a pure function of
(enqueue time, sequence number). Everything random flows from the scenario
seed, so a (seed, scenario) pair always produces the same transcript.
"""

import heapq
import json
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .encoding import canonical_json_bytes
from .errors import DnasError, ScenarioError
from .records import WineStatus
from .scenario import Scenario, Step
from .service import Consortium, MemberRole, NodeType
from .tags import NfcTag, counterfeit_copy


class MessageBus:
    """Time-ordered deliverable queue with a deterministic tie-break."""

    def __init__(self):
        self._queue: List[Tuple[int, int, Callable, tuple]] = []
        self._seq = 0

    def schedule(self, at: int, fn: Callable, *args) -> None:
        heapq.heappush(self._queue, (at, self._seq, fn, args))
        self._seq += 1

    def deliver_due(self, now: int) -> int:
        delivered = 0
        while self._queue and self._queue[0][0] <= now:
            _, _, fn, args = heapq.heappop(self._queue)
            fn(*args)
            delivered += 1
        return delivered

    def pending(self) -> int:
        return len(self._queue)


@dataclass
class StepResult:
    at: int
    actor: str
    action: str
    ok: bool
    error: Optional[str] = None


@dataclass
class Report:
    scenario: str
    seed: int
    passed: bool
    chain_height: int
    state_root: str
    validators: List[str]
    registry: List[Dict[str, object]]
    records: Dict[str, Dict[str, object]]
    attack_log: List[Dict[str, object]]
    steps: List[Dict[str, object]]
    expectations: List[Dict[str, object]]
    notifications: List[Dict[str, object]]

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def canonical_bytes(self) -> bytes:
        return canonical_json_bytes(self.to_dict())

    def notifications_ndjson(self) -> str:
        """Notification log as line-delimited JSON, one event per line."""
        return "\n".join(canonical_json_bytes(n).decode() for n in self.notifications)

    def render_text(self) -> str:
        lines = [
            f"scenario  : {self.scenario} (seed {self.seed})",
            f"result    : {'PASS' if self.passed else 'FAIL'}",
            f"chain     : height {self.chain_height}, root {self.state_root[:18]}…",
            f"validators: {len(self.validators)}",
            f"registry  : {len(self.registry)} member(s)",
            "records:",
        ]
        for wine_id in sorted(self.records):
            info = self.records[wine_id]
            lines.append(f"  {wine_id:<12} status={info['status']:<9} "
                         f"writes={info['write_counter']} reads={info['read_counter']} "
                         f"flags={info['flags']}")
        if self.attack_log:
            lines.append("attacks:")
            for entry in self.attack_log:
                lines.append(f"  {entry['wine_id']}: {entry['attack_class']} "
                             f"at {entry['layer']} ({entry['details']})")
        lines.append("expectations:")
        for expectation in self.expectations:
            mark = "ok " if expectation["passed"] else "FAIL"
            lines.append(f"  [{mark}] {expectation['description']}")
        failed_steps = [s for s in self.steps if not s["ok"]]
        if failed_steps:
            lines.append("failed steps:")
            for s in failed_steps:
                lines.append(f"  t={s['at']} {s['actor']} {s['action']}: {s['error']}")
        return "\n".join(lines)


# the keys of a step or expectation that names a record and, by default, its genuine tag
_TAGGED = {"wine_id": str, "tag": Optional[str]}
_COUNT = {"equals": int}  # an expectation comparing a count


class ScenarioRunner:
    """Executes one scenario on a fresh consortium."""

    def __init__(self, scenario: Scenario, seed: Optional[int] = None):
        scenario.validate()
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        self.bus = MessageBus()
        self.consortium: Optional[Consortium] = None
        self.tags: Dict[str, NfcTag] = {}
        self.cloned: Dict[str, NfcTag] = {}
        self.sessions: Dict[Tuple[str, str], str] = {}
        self.last_validation: Dict[str, List[Dict[str, object]]] = {}
        self.step_results: List[StepResult] = []

    # -- setup -------------------------------------------------------------------------

    def _build_consortium(self) -> Consortium:
        members = [(m.member_id, m.role, m.node_type) for m in self.scenario.members]
        consortium = Consortium(seed=self.seed, initial_members=members,
                                session_timeout=self.scenario.session_timeout)
        consortium.dispatcher = self._dispatch
        for extra in self.scenario.extras:
            consortium.add_consumer(extra)
        return consortium

    def _dispatch(self, fn: Callable, *args) -> None:
        """Scenario-time deliveries go through the bus with a one-tick delay."""
        self.bus.schedule(self.consortium.now + 1, fn, *args)

    # -- run loop -----------------------------------------------------------------------

    def run(self) -> Report:
        self.consortium = self._build_consortium()
        consortium = self.consortium
        base = consortium.now
        pending = sorted(self.scenario.steps, key=lambda s: s.at)
        horizon = base + self.scenario.horizon
        t = base
        index = 0
        while t <= horizon or self.bus.pending() or consortium.chain.pool:
            consortium.now = t
            self.bus.deliver_due(t)
            while index < len(pending) and base + pending[index].at <= t:
                self._run_step(pending[index])
                index += 1
            consortium.seal_due(t)
            t += 1
            if t > horizon + 64:  # hard stop: drain window after the horizon
                break
        return self._build_report()

    def _run_step(self, step: Step) -> None:
        try:
            self.ACTIONS[step.action][0](self, step)
        except DnasError as exc:
            error = str(exc)
            ok = step.expect_error is not None and step.expect_error in error
        else:
            ok = step.expect_error is None
            error = None if ok else f"expected an error containing {step.expect_error!r}"
        self.step_results.append(StepResult(at=step.at, actor=step.actor, action=step.action,
                                            ok=ok, error=error))

    def _service_for(self, actor: str):
        consortium = self.consortium
        if actor in consortium.services:
            return consortium.services[actor]
        if actor in consortium.consumers:
            return consortium.shared_service
        raise ScenarioError(f"actor {actor!r} has no service instance")

    def _tag_for(self, params: Dict[str, object]) -> NfcTag:
        wine_id = params["wine_id"]
        if params.get("tag") == "cloned":
            tag = self.cloned.get(wine_id)
        else:
            tag = self.tags.get(wine_id)
        if tag is None:
            raise ScenarioError(f"no tag for {wine_id!r} ({params.get('tag', 'genuine')})")
        return tag

    # -- actions: one handler per scenario action name ------------------------------------

    def _create_record(self, step: Step) -> None:
        wine_id = step.params["wine_id"]
        tag = NfcTag(uid=self.consortium.randbytes(7))
        self.tags[wine_id] = tag
        self._service_for(step.actor).create_record_flow(
            {"wine_id": wine_id, "pedigree_data": step.params.get("pedigree", {})},
            tag, step.params.get("device_id", f"device-{step.actor}"))

    def _validate_record(self, step: Step) -> None:
        wine_id = step.params["wine_id"]
        service = self._service_for(step.actor)
        outcomes, _, session = service.validate_record_flow(self._tag_for(step.params))
        self.last_validation[wine_id] = [o.to_dict() for o in outcomes]
        if session is not None:
            self.sessions[(step.actor, wine_id)] = session

    def _accept_record(self, step: Step, purchase: bool = False) -> None:
        wine_id = step.params["wine_id"]
        service = self._service_for(step.actor)
        session = self.sessions.pop((step.actor, wine_id), None)
        custodian = self.consortium.consumers.get(step.actor) if purchase else None
        service.accept_record_flow(self._tag_for(step.params), session or "missing-session",
                                   custodian_key=custodian, purchase=purchase)

    def _onboard_member(self, step: Step) -> None:
        params = step.params
        self.consortium.onboard_member(params["member_id"],
                                       MemberRole(params.get("role", "participant")),
                                       NodeType(params.get("node_type", "validator")))

    def _clone_tag(self, step: Step) -> None:
        self.cloned[step.params["wine_id"]] = counterfeit_copy(
            self._tag_for(step.params), randbytes=self.consortium.randbytes)

    def _tamper_tag(self, step: Step) -> None:
        tag = self._tag_for(step.params)
        fieldname, value = step.params["field"], step.params["value"]
        if fieldname == "read_counter":
            tag.read_counter = value
        else:
            fields = json.loads(tag.memory)
            fields[fieldname] = value
            tag.memory = canonical_json_bytes(fields)

    def _tamper_record(self, step: Step) -> None:
        record = self.consortium.db.get(step.params["wine_id"])
        record.pedigree_data[step.params["field"]] = step.params["value"]

    # each action: its handler, then the params it reads with their types; an
    # Optional param may be left out. Scenario.validate refuses a step whose
    # params miss a key, add one, or give one another type
    ACTIONS: Dict[str, Tuple[Callable[["ScenarioRunner", Step], None], Dict[str, object]]] = {
        "create_record": (_create_record, {"wine_id": str, "pedigree": Optional[dict],
                                           "device_id": Optional[str]}),
        "ship_record": (lambda self, step: self._service_for(step.actor).ship_record_flow(
            self._tag_for(step.params)), {"wine_id": str}),
        "validate_record": (_validate_record, _TAGGED),
        "accept_record": (_accept_record, _TAGGED),
        "purchase_record": (lambda self, step: self._accept_record(step, purchase=True),
                            _TAGGED),
        "onboard_member": (_onboard_member, {"member_id": str, "role": Optional[str],
                                             "node_type": Optional[str]}),
        "remove_member": (lambda self, step: self.consortium.propose_member_removal(
            step.actor, step.params["member_id"]), {"member_id": str}),
        "set_consensus_level": (lambda self, step: self._service_for(
            step.actor).set_consensus_level(step.params["level"]), {"level": int}),
        "upgrade_contract": (lambda self, step: self._service_for(
            step.actor).upgrade_contract(step.params["version"]), {"version": str}),
        "halt_node": (lambda self, step: self.consortium.halted.add(step.params["member"]),
                      {"member": str}),
        "resume_node": (lambda self, step: self.consortium.halted.discard(
            step.params["member"]), {"member": str}),
        "clone_tag": (_clone_tag, _TAGGED),
        "tamper_tag": (_tamper_tag, {**_TAGGED, "field": str, "value": object}),
        "tamper_record": (_tamper_record, {"wine_id": str, "field": str, "value": object}),
    }

    # -- expectations: one check per kind, returning (passed, description) ------------------

    def _measured(self, spec: Dict[str, object], what: str, actual: object) -> Tuple[bool, str]:
        return actual == spec["equals"], f"{what} {actual} == {spec['equals']}"

    def _flagged(self) -> List[Dict[str, object]]:
        return [n for n in self.consortium.notifications if n["type"] == "record_flagged"]

    def _expect_attack_logged(self, spec: Dict[str, object]) -> Tuple[bool, str]:
        entries = self._flagged()
        for key in ("wine_id", "attack_class", "layer"):
            if key in spec:
                entries = [n for n in entries if n[key] == spec[key]]
        return bool(entries), (
            f"attack {spec.get('attack_class', 'any')} logged at "
            f"{spec.get('layer', 'any layer')} for {spec.get('wine_id', 'any record')}")

    def _expect_no_attacks(self, spec: Dict[str, object]) -> Tuple[bool, str]:
        entries = self._flagged()
        return not entries, f"no attack entries (found {len(entries)})"

    def _expect_last_validation(self, spec: Dict[str, object]) -> Tuple[bool, str]:
        outcomes = self.last_validation.get(spec["wine_id"], [])
        if spec.get("result", "pass") == "pass":
            ok = bool(outcomes) and all(o["result"] == "pass" for o in outcomes)
        else:
            ok = bool(outcomes) and outcomes[-1]["result"] == spec["result"]
        return ok, f"last validation of {spec['wine_id']} is {spec.get('result', 'pass')}"

    def _expect_step_error(self, spec: Dict[str, object]) -> Tuple[bool, str]:
        result = self.step_results[spec["index"]]
        ok = result.error is not None
        if ok and "contains" in spec:
            ok = spec["contains"] in result.error
        return ok, f"step {spec['index']} failed with {spec.get('contains', 'an error')!r}"

    def _sold_count(self) -> int:
        db = self.consortium.db
        return sum(1 for w in db.wine_ids() if db.get(w).wine_status is WineStatus.SOLD)

    # each expectation kind: its check, then the keys it reads, likewise refused at load
    EXPECTATIONS: Dict[str, Tuple[Callable[["ScenarioRunner", Dict[str, object]],
                                           Tuple[bool, str]], Dict[str, object]]] = {
        "chain_height_min": (lambda self, spec: (
            self.consortium.chain.height >= spec["value"],
            f"chain height {self.consortium.chain.height} >= {spec['value']}"), {"value": int}),
        "record_status": (lambda self, spec: self._measured(
            spec, f"record {spec['wine_id']} status",
            self.consortium.db.get(spec["wine_id"]).wine_status.value),
            {"wine_id": str, "equals": str}),
        "write_count": (lambda self, spec: self._measured(
            spec, "on-chain write count", self.consortium.chain.call_view(
                "get_record", {"wine_id": spec["wine_id"]})["write_count"]),
            {"wine_id": str, "equals": int}),
        "counters_in_sync": (lambda self, spec: (
            self.consortium.counters_in_sync(spec["wine_id"], self._tag_for(spec)),
            f"counters of {spec['wine_id']} match on tag, database, chain"), _TAGGED),
        "validator_count": (lambda self, spec: self._measured(
            spec, "validator count", len(self.consortium.chain.validators)), _COUNT),
        "registry_size": (lambda self, spec: self._measured(
            spec, "registry size", len(self.consortium.chain.call_view("get_peers", {}))),
            _COUNT),
        "record_count": (lambda self, spec: self._measured(
            spec, "on-chain record count", self.consortium.chain.call_view("record_count", {})),
            _COUNT),
        "attack_logged": (_expect_attack_logged, dict.fromkeys(
            ("wine_id", "attack_class", "layer"), Optional[str])),
        "no_attacks": (_expect_no_attacks, {}),
        "last_validation": (_expect_last_validation, {"wine_id": str, "result": Optional[str]}),
        "step_error": (_expect_step_error, {"index": int, "contains": Optional[str]}),
        "sold_count": (lambda self, spec: self._measured(spec, "sold records",
                                                         self._sold_count()), _COUNT),
    }

    def _build_report(self) -> Report:
        consortium = self.consortium
        expectations = []
        all_passed = True
        for spec in self.scenario.expectations:
            try:
                passed, description = self.EXPECTATIONS[spec["kind"]][0](self, spec)
            except DnasError as exc:  # it names a record or tag the run never made
                passed, description = False, f"{spec['kind']}: {exc}"
            expectations.append({"kind": spec["kind"], "description": description,
                                 "passed": passed})
            all_passed = all_passed and passed
        pooled, queued = len(consortium.chain.pool), self.bus.pending()
        if pooled or queued:
            # only a run cut at the hard stop gets here: work it started never finished
            expectations.append({"kind": "drained", "passed": False, "description":
                                 f"run drains before the hard stop ({pooled} pooled "
                                 f"tx(s), {queued} bus message(s) left)"})
            all_passed = False
        steps_ok = all(s.ok for s in self.step_results)
        records = {}
        for wine_id in consortium.db.wine_ids():
            record = consortium.db.get(wine_id)
            records[wine_id] = {
                "status": record.wine_status.value,
                "write_counter": record.write_counter,
                "read_counter": record.read_counter,
                "custodian": record.custodian_address,
                "transactions": len(record.transaction_data),
                "flags": len(record.unsuccessful_validation_data),
            }
        return Report(
            scenario=self.scenario.name, seed=self.seed,
            passed=all_passed and steps_ok,
            chain_height=consortium.chain.height,
            state_root=consortium.chain.head.state_root,
            validators=list(consortium.chain.validators),
            registry=consortium.chain.call_view("get_peers", {}),
            records=records,
            attack_log=[n for n in consortium.notifications
                        if n["type"] == "record_flagged"],
            steps=[asdict(s) for s in self.step_results],
            expectations=expectations,
            notifications=list(consortium.notifications),
        )


def run_scenario(scenario: Scenario, seed: Optional[int] = None) -> Report:
    return ScenarioRunner(scenario, seed=seed).run()


def replay_determinism_check(scenario: Scenario, runs: int = 3,
                             seed: Optional[int] = None) -> Dict[str, object]:
    """Re-run the scenario and compare the full transcripts byte for byte."""
    if runs < 2:
        raise ScenarioError("determinism check needs at least 2 runs")
    reports = [run_scenario(scenario, seed=seed) for _ in range(runs)]
    baseline = reports[0].canonical_bytes()
    identical = all(r.canonical_bytes() == baseline for r in reports[1:])
    return {
        "identical": identical,
        "runs": runs,
        "state_roots": [r.state_root for r in reports],
        "passed": identical and all(r.passed for r in reports),
    }
