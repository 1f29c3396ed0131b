"""Seeded workload generators.

A workload is a stream of ticks; each tick is the list of operations the
harness runs, in order, before the tick's seal. Every choice comes from the
``random.Random`` passed in, so one seed always yields the same operations,
and the program under test only ever sees those operations.
"""

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

MAKERS = ("maker", "maker2")
CONSUMERS = tuple(f"consumer-{i}" for i in range(8))
VARIETALS = ("syrah", "merlot", "riesling", "nebbiolo", "grenache", "tempranillo")
# Popularity skew of genuine wines in counterfeit_scan. An assumption, not a
# measured figure: the paper gives no scan popularity. counterfeit_scan's
# repeat_scan_share (about 0.77) follows from it, so a gain that rests on
# repeated scans holds for this share.
ZIPF_S = 1.1
COUNTERFEIT_SHARE = 0.2     # of counterfeit_scan's scans

# counterfeit kinds, with the (attack class, layer) each must be caught as
EXPECTED = {
    "cloned": ("cloning", "off_chain_db"),
    "replayed": ("reapplication", "off_chain_db"),
    "tampered": ("modification", "content_store"),
}


@dataclass(frozen=True)
class Op:
    """One user operation.

    kind is create, validate, accept or purchase. For create, ``uid`` is the
    new tag's UID and ``pedigree`` the record body. For validate, ``attack``
    is None for a genuine scan, or one of ``EXPECTED``'s kinds with
    ``arg``: the clone's UID, the replayed tag's off-network read count, or
    the tampered vintage.
    """

    kind: str
    actor: str
    wine_id: str
    uid: bytes = b""
    pedigree: Optional[Dict[str, object]] = None
    attack: Optional[str] = None
    arg: object = None


def _create(rng: random.Random, maker: str, wine_id: str, lot: int) -> Op:
    return Op("create", maker, wine_id, uid=rng.randbytes(7), pedigree={
        "producer": f"Domaine {maker}", "lot": lot,
        "vintage": rng.randint(1990, 2023), "varietal": rng.choice(VARIETALS)})


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload; the defaults are the benchmark's. Why each
    workload was chosen is stated in ``BENCHMARK.json``."""

    name: str
    # ticks run before the determinism digest; also the least a run does
    checkpoint_ticks: int
    min_samples: int = 100      # per reported latency, per run
    min_records: int = 0        # records in state when the run ends
    lot_size: Tuple[int, int] = (400, 480)
    idle_ticks: Tuple[int, int] = (2, 4)
    inventory: Dict[str, int] = field(default_factory=dict)

    @property
    def inventory_size(self) -> int:
        return sum(self.inventory.values())

    def inventory_ops(self, rng: random.Random) -> Tuple[List[List[Op]], Dict[str, List[str]]]:
        """Ticks that build the settled inventory, and its wine ids by role."""
        ids = [f"C{i:05d}" for i in range(self.inventory_size)]
        ticks = [[_create(rng, MAKERS[i % 2], wine_id, i // 100)
                  for i, wine_id in enumerate(ids[start:start + 100], start)]
                 for start in range(0, len(ids), 100)]
        shuffled = ids[:]
        rng.shuffle(shuffled)
        roles, start = {}, 0
        for role in ("genuine", "cloned", "replayed", "tampered"):
            roles[role] = shuffled[start:start + self.inventory.get(role, 0)]
            start += self.inventory.get(role, 0)
        return ticks, roles

    def ticks(self, rng: random.Random, roles: Dict[str, List[str]]) -> Iterator[List[Op]]:
        return GENERATORS[self.name](self, rng, roles)


def bottling(spec: Workload, rng: random.Random, roles) -> Iterator[List[Op]]:
    """Lots larger than a block, each in one tick, from alternating makers."""
    serial = itertools.count()
    for lot in itertools.count():
        maker = MAKERS[lot % 2]
        yield [_create(rng, maker, f"B{next(serial):06d}", lot)
               for _ in range(rng.randint(*spec.lot_size))]
        for _ in range(rng.randint(*spec.idle_ticks)):
            yield []


def custody(spec: Workload, rng: random.Random, roles) -> Iterator[List[Op]]:
    """One or two new records a tick, each walked through every custody hop."""
    future: Dict[int, List[Op]] = {}
    serial = itertools.count()
    for tick in itertools.count():
        ops = future.pop(tick, [])
        for _ in range(rng.randint(1, 2)):
            wine_id = f"K{next(serial):06d}"
            ops.append(_create(rng, rng.choice(MAKERS), wine_id, tick))
            consumer = rng.choice(CONSUMERS)
            at = tick
            # every hop lands at least one tick after the previous one was sealed
            for kind, actor, gap in (("validate", "dist", 3), ("accept", "dist", 2),
                                     ("validate", "retail", 3), ("accept", "retail", 2),
                                     ("validate", consumer, 3), ("purchase", consumer, 2)):
                at += rng.randint(1, gap)
                future.setdefault(at, []).append(Op(kind, actor, wine_id))
        yield ops


def counterfeit_scan(spec: Workload, rng: random.Random,
                     roles: Dict[str, List[str]]) -> Iterator[List[Op]]:
    """One consumer scan every second tick over the settled inventory.

    Genuine scans follow a Zipf popularity over the genuine wines. Cloned and
    replayed wines can be scanned again and again; a tampered record can be
    caught at the content store only on its tag's first read (a failed scan
    leaves the tag one read ahead of the chain), so each tampered scan takes
    a fresh wine and the stream ends when the reserve runs out.
    """
    genuine = roles["genuine"]
    weights = list(itertools.accumulate(1.0 / (rank + 1) ** ZIPF_S
                                        for rank in range(len(genuine))))
    clone_uid = {wine_id: rng.randbytes(7) for wine_id in roles["cloned"]}
    fresh = iter(roles["tampered"])
    while True:
        consumer = rng.choice(CONSUMERS)
        if rng.random() >= COUNTERFEIT_SHARE:
            op = Op("validate", consumer, rng.choices(genuine, cum_weights=weights)[0])
        else:
            attack = rng.choice(sorted(EXPECTED))
            if attack == "cloned":
                wine_id = rng.choice(roles["cloned"])
                arg = clone_uid[wine_id]
            elif attack == "replayed":
                wine_id = rng.choice(roles["replayed"])
                arg = rng.randint(1, 3)
            else:
                wine_id = next(fresh, None)
                if wine_id is None:
                    return
                arg = rng.randint(1900, 1950)
            op = Op("validate", consumer, wine_id, attack=attack, arg=arg)
        yield [op]
        yield []


GENERATORS = {"bottling": bottling, "custody": custody,
              "counterfeit_scan": counterfeit_scan}

WORKLOADS = {
    "bottling": Workload(
        name="bottling",
        checkpoint_ticks=11, min_records=1000),
    "custody": Workload(
        name="custody",
        checkpoint_ticks=40),
    "counterfeit_scan": Workload(
        name="counterfeit_scan",
        checkpoint_ticks=200,
        inventory={"genuine": 200, "cloned": 10, "replayed": 10, "tampered": 180}),
}
