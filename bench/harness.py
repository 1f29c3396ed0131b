"""Closed-loop load generator: one workload on one consortium, one thread.

Each simulated tick delivers the bus messages due, runs the tick's generated
operations one after another through the public ``BlockchainService`` flows,
then calls ``Consortium.seal_due``. Receipts and events go through a
``simnet.MessageBus`` with the one-tick deferral ``ScenarioRunner`` wires. No
other delay is injected, so every latency is processor time.
"""

import contextlib
import hashlib
import json
import random
import resource
import statistics
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

from dnas import simnet, tags
from dnas.errors import DnasError
from dnas.service import Consortium, MemberRole, NodeType

from hostspeed import REFERENCE_KDF_S, HostSpeed, clock
from workloads import CONSUMERS, EXPECTED, Op, Workload

# the bundled scenarios' consortium; the second winemaker joins by vote
MEMBERS = [
    ("admin", MemberRole.ADMINISTRATOR, NodeType.VALIDATOR),
    ("maker", MemberRole.WINEMAKER, NodeType.VALIDATOR),
    ("dist", MemberRole.PARTICIPANT, NodeType.VALIDATOR),
    ("retail", MemberRole.PARTICIPANT, NodeType.VALIDATOR),
    ("ship", MemberRole.PARTICIPANT, NodeType.LISTENER),
]
DRAIN_TICKS = 64


class SetupError(RuntimeError):
    pass


class Run:
    """One consortium driven by one workload stream."""

    def __init__(self, workload: Workload, seed: int, tracer=None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.rng = random.Random(f"{workload.name}/{seed}")
        self.bus = simnet.MessageBus()
        self.consortium: Optional[Consortium] = None
        self.tags: Dict[str, tags.NfcTag] = {}
        self.clones: Dict[str, tags.NfcTag] = {}
        self.sessions: Dict[Tuple[str, str], str] = {}
        self.attacked = set()
        # (FlowReceipt, returned at, HostSpeed.in_bursts then)
        self.pending: List[tuple] = []
        self.submitted: Dict[int, int] = {}      # id(tx) -> submit tick
        self.tick = 0
        self.speed = HostSpeed()
        self._reset_counts()

    def _reset_counts(self) -> None:
        kinds = ("create", "validate", "accept", "commit")
        # wall seconds, and the number of bursts run before each ended
        self.samples: Dict[str, List[float]] = {k: [] for k in kinds}
        self.burst_index: Dict[str, List[int]] = {k: [] for k in kinds}
        self.failures: List[str] = []
        self.failed_flow_txs = set()
        self.attempted = 0
        self.completed = 0
        self.scans = Counter()                   # genuine / attack kinds / repeat
        self.seen_pairs = set()
        self.layers = Counter()                  # "<layer>.<pass|fail>"
        self.pool_max = 0
        self.bus_max = 0

    # -- setup -------------------------------------------------------------------

    def setup(self) -> Tuple[float, float]:
        """Consortium, second winemaker, consumers and any inventory; returns
        the wall and the host-scaled seconds it took.

        Most of the first stretch is the members' scrypt keystores, so it
        is scaled by the scrypt bursts around it (see ``hostspeed``)."""
        speed = self.speed
        kdf = speed.kdf_bursts()
        start = clock()
        c = Consortium(seed=self.seed, initial_members=MEMBERS, bootstrap_count=5)
        c.onboard_member("maker2", MemberRole.WINEMAKER, NodeType.VALIDATOR)
        keystores = clock() - start
        kdf += speed.kdf_bursts()
        keystores_reference = keystores * REFERENCE_KDF_S / statistics.median(kdf)
        speed.calibrate()
        mark = speed.mark()
        c.run_until_idle()
        if not c.services["maker2"].peer_validate(c.services["maker2"].address):
            raise SetupError("second winemaker was not admitted")
        for consumer in CONSUMERS:
            c.add_consumer(consumer)
        c.dispatcher = lambda fn, *args: self.bus.schedule(c.now + 1, fn, *args)
        self.consortium = c
        self.tick = c.now + 1
        inventory, self.roles = self.workload.inventory_ops(self.rng)
        for ops in inventory:
            self._run_tick(ops)
        self._drain()
        if self.failures:
            raise SetupError(f"inventory build failed: {self.failures[:3]}")
        self.stream = self.workload.ticks(self.rng, self.roles)
        speed.calibrate()
        return keystores + speed.wall(mark), keystores_reference + speed.reference(mark)

    # -- the loop ----------------------------------------------------------------------

    def _run_tick(self, ops: List[Op]) -> None:
        c = self.consortium
        t = self.tick
        c.now = t
        self.bus.deliver_due(t)
        self._settle_flows()
        pool = c.chain.pool
        before = len(pool)
        for op in ops:
            self._run_op(op)
        for tx in pool[before:]:
            self.submitted[id(tx)] = t
        self.pool_max = max(self.pool_max, len(pool))
        c.seal_due(t)
        self.bus_max = max(self.bus_max, self.bus.pending())
        self.tick = t + 1
        self.speed.poll()

    def _drain(self) -> None:
        for _ in range(DRAIN_TICKS):
            if not (self.pending or self.bus.pending() or self.consortium.chain.pool):
                return
            self._run_tick([])
        self.failures.append(f"did not drain within {DRAIN_TICKS} ticks")

    def _latency(self, kind: str, seconds: float) -> None:
        self.samples[kind].append(seconds)
        self.burst_index[kind].append(len(self.speed.bursts))

    def scaled(self, kind: str) -> List[float]:
        """The latencies of ``kind`` on the reference host."""
        return [seconds * self.speed.scale_around(index) for seconds, index
                in zip(self.samples[kind], self.burst_index[kind])]

    def _settle_flows(self) -> None:
        now, bursts = clock(), self.speed.in_bursts
        waiting = []
        for flow, returned, bursts_then in self.pending:
            if flow.status == "pending":
                waiting.append((flow, returned, bursts_then))
            elif flow.status == "ok":
                self._latency("commit", now - returned - (bursts - bursts_then))
            else:
                self.failed_flow_txs.add(flow.tx_hash)
                self.failures.append(f"{flow.wine_id}: receipt {flow.status}: {flow.error}")
        self.pending = waiting

    def _run_op(self, op: Op) -> None:
        self.speed.poll()
        self.attempted += 1
        try:
            ok = getattr(self, f"_op_{op.kind}")(op)
        except DnasError as exc:
            self.failures.append(f"{op.kind} {op.wine_id} by {op.actor}: {exc}")
            return
        self.completed += 1
        if not ok:
            self.failures.append(f"{op.kind} {op.wine_id} by {op.actor}: wrong outcome")

    def _service(self, actor: str):
        c = self.consortium
        return c.services[actor] if actor in c.services else c.shared_service

    def _op_create(self, op: Op) -> bool:
        tag = tags.NfcTag(uid=op.uid)
        self.tags[op.wine_id] = tag
        service = self.consortium.services[op.actor]
        start = clock()
        flow = service.create_record_flow({"wine_id": op.wine_id, "pedigree_data": op.pedigree},
                                          tag, f"device-{op.actor}")
        end = clock()
        self._latency("create", end - start)
        self.pending.append((flow, end, self.speed.in_bursts))
        return True

    def _scan_tag(self, op: Op) -> tags.NfcTag:
        """The tag a scanner holds, after the op's attack (if any) is applied."""
        genuine = self.tags[op.wine_id]
        if op.attack is None:
            return genuine
        self.attacked.add(op.wine_id)
        if op.attack == "cloned":
            if op.wine_id not in self.clones:
                self.clones[op.wine_id] = tags.counterfeit_copy(genuine,
                                                                randbytes=lambda n: op.arg)
            return self.clones[op.wine_id]
        if op.attack == "replayed":
            genuine.read_counter += op.arg      # the tag was read off the network
            return genuine
        with self._tracing_off():
            self.consortium.db.get(op.wine_id).pedigree_data["vintage"] = op.arg
        return genuine

    def _op_validate(self, op: Op) -> bool:
        tag = self._scan_tag(op)
        pair = (op.wine_id, json.loads(tag.memory)["signature"])
        self.scans[op.attack or "genuine"] += 1
        self.scans["repeat"] += pair in self.seen_pairs
        self.seen_pairs.add(pair)
        service = self._service(op.actor)
        start = clock()
        outcomes, _, session = service.validate_record_flow(tag)
        self._latency("validate", clock() - start)
        for outcome in outcomes:
            self.layers[f"{outcome.layer.value}.{'pass' if outcome.passed else 'fail'}"] += 1
        if op.attack is None:
            if session is not None:
                self.sessions[(op.actor, op.wine_id)] = session
            return session is not None and len(outcomes) == 3 and all(
                o.passed for o in outcomes)
        last = outcomes[-1]
        return session is None and not last.passed and (
            last.result.value, last.layer.value) == EXPECTED[op.attack]

    def _op_accept(self, op: Op, purchase: bool = False) -> bool:
        session = self.sessions.pop((op.actor, op.wine_id), None)
        if session is None:  # the validation before it failed
            return False
        custodian = self.consortium.consumers[op.actor] if purchase else None
        service = self._service(op.actor)
        start = clock()
        flow = service.accept_record_flow(self.tags[op.wine_id], session,
                                          custodian_key=custodian, purchase=purchase)
        end = clock()
        self._latency("accept", end - start)
        self.pending.append((flow, end, self.speed.in_bursts))
        return True

    def _op_purchase(self, op: Op) -> bool:
        return self._op_accept(op, purchase=True)

    # -- the timed phase ---------------------------------------------------------------

    def digest(self) -> str:
        """SHA-256 over chain height, head state root, every record's status
        and counters, and the attack log."""
        c = self.consortium
        records = {}
        for wine_id in c.db.wine_ids():
            record = c.db.get(wine_id)
            records[wine_id] = [record.wine_status.value, record.write_counter,
                                record.read_counter]
        payload = {
            "height": c.chain.height, "state_root": c.chain.head.state_root,
            "records": records,
            "attack_log": [n for n in c.notifications if n["type"] == "record_flagged"],
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()

    @contextlib.contextmanager
    def _tracing_off(self):
        """Harness work that calls into dnas records no spans."""
        recording = self.tracer is not None and self.tracer.enabled
        if recording:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if recording:
                self.tracer.enabled = True

    def _untimed_digest(self) -> Tuple[str, float]:
        """The digest, taken with span recording off, and the seconds it
        took, which the timed phase does not count."""
        self.speed.pause()
        start = clock()
        with self._tracing_off():
            digest = self.digest()
        took = clock() - start
        self.speed.resume()
        return digest, took

    def _enough(self) -> bool:
        spec = self.workload
        return (len(self.tags) >= spec.min_records
                and all(len(s) >= spec.min_samples for s in self.samples.values() if s))

    def measure(self, seconds: float) -> Dict[str, object]:
        """Run the stream until ``seconds`` of wall clock have passed, the
        checkpoint tick is reached and every latency has its minimum sample
        count; then stop issuing operations and drain."""
        self._reset_counts()
        c = self.consortium
        first_block = c.chain.height + 1
        inventory_start = len(self.tags)
        tracer = self.tracer
        digest = None
        paused = 0.0
        ticks = 0
        speed = self.speed
        speed.calibrate()
        first_burst, bursts_before, mark = len(speed.bursts), speed.in_bursts, speed.mark()
        cpu_start = time.process_time()
        start = clock()
        if tracer is not None:
            tracer.mark("timed")
        for ops in self.stream:
            self._run_tick(ops)
            ticks += 1
            if ticks == self.workload.checkpoint_ticks:
                digest, took = self._untimed_digest()
                paused += took
            if (ticks >= self.workload.checkpoint_ticks and self._enough()
                    and clock() - start - paused - (speed.in_bursts - bursts_before) >= seconds):
                break
        self._drain()
        speed.calibrate()
        wall = clock() - start
        cpu = time.process_time() - cpu_start
        if tracer is not None:
            tracer.mark("end")
            tracer.enabled = False
        if digest is None:
            digest = self.digest()
            self.failures.append(f"stream ended after {ticks} ticks, before the checkpoint")
        self._check_end(first_block)
        blocks = c.chain.blocks[first_block:]
        inclusion = sorted(b.timestamp - self.submitted[id(tx)] for b in blocks
                           for tx in b.transactions if id(tx) in self.submitted)
        return {
            "elapsed_s": speed.wall(mark),
            "scaled_s": speed.reference(mark),
            "burst_ms": speed.summary_ms(first_burst),
            "cpu_share": cpu / wall, "ticks": ticks,
            "digest": digest, "inventory_start": inventory_start,
            "inventory_end": len(self.tags), "blocks": len(blocks),
            "empty_blocks": sum(1 for b in blocks if not b.transactions),
            "gas_used": sum(b.gas_used for b in blocks),
            "gas_limit": sum(b.gas_limit for b in blocks),
            "inclusion_ticks": inclusion,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def _check_end(self, first_block: int) -> None:
        """Every flow reached ok, no receipt is an error, and every record no
        attack touched has the same counters on tag, database and chain."""
        c = self.consortium
        for flow, *_ in self.pending:
            self.failures.append(f"{flow.wine_id}: flow still {flow.status} after the drain")
        for block in c.chain.blocks[first_block:]:
            for tx in block.transactions:
                receipt = c.chain.receipts[tx.tx_hash]
                if receipt.status != "ok" and tx.tx_hash not in self.failed_flow_txs:
                    self.failures.append(f"{tx.method} receipt {receipt.status}: {receipt.error}")
        for wine_id, tag in self.tags.items():
            if wine_id not in self.attacked and not c.counters_in_sync(wine_id, tag):
                self.failures.append(f"{wine_id}: counters out of sync")
