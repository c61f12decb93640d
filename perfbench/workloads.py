"""Seeded inputs: the table's rows and each connection's request stream.

Everything here is derived from ``--seed`` alone and imports nothing
from the program under test, so a change to the program cannot change
what the benchmark sends or what it expects back.

The table is ``t(id INTEGER PRIMARY KEY, grp INTEGER, score REAL,
version INTEGER)``. ``grp`` is a seeded group in ``[0, GROUPS)`` and
``score`` a seeded float with three decimals. Writes only change
``version``, which no read filters on, so every read's answer is known
exactly from the seed.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

GROUPS = 100
SCAN_WIDTH = 50
ZIPF_ALPHA = 1.0

POINT_SQL = "SELECT * FROM t WHERE id = {}"
SCAN_SQL = "SELECT COUNT(*), MAX(score) FROM t WHERE grp BETWEEN {} AND {}"
WRITE_SQL = "UPDATE t SET version = {} WHERE id = {}"
CREATE_SQL = (
    "CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, score REAL, "
    "version INTEGER)"
)


@dataclass(frozen=True)
class Workload:
    """One traffic mix: table size, cluster shape and per-connection mix.

    ``mixes[c]`` describes connection ``c``: ``"point"`` issues only
    Zipf primary-key reads; an integer ``n`` issues aggregate scans in
    segments of ``n`` scans, each segment followed by one Zipf
    primary-key update.
    """

    name: str
    rows: int
    shards: int
    mixes: Tuple[object, ...]
    #: reads a point connection sends in the fixed defense phase (a
    #: scan connection sends one full cycle of its scan bounds).
    defense_points: int


WORKLOADS: Dict[str, Workload] = {
    "point_zipf": Workload(
        name="point_zipf",
        rows=20_000,
        shards=0,
        mixes=("point", "point"),
        defense_points=1000,
    ),
    "scan_rw": Workload(
        name="scan_rw",
        rows=20_000,
        shards=0,
        # 9 scans per update: 10% writes.
        mixes=(9, 9),
        defense_points=0,
    ),
    "cluster_rw": Workload(
        name="cluster_rw",
        rows=10_000,
        shards=4,
        # 2 scans per update: 2/3 scatter reads.
        mixes=("point", 2),
        defense_points=600,
    ),
}

#: each connection's identity, sent with every query.
IDENTITIES = ("client-0", "client-1")


@dataclass(frozen=True)
class Request:
    """One statement plus everything needed to check its answer."""

    kind: str  # "point" | "scan" | "write"
    sql: str
    #: point/write: the primary key; scan: the lower group bound.
    key: int
    #: tuples the read must be priced on (0 for writes).
    tuples: int


class Dataset:
    """The table's rows and the exact answers to every read."""

    def __init__(self, rows: int, seed: int):
        rng = random.Random(f"rows/{seed}/{rows}")
        self.rows = rows
        self.ids = list(range(1, rows + 1))
        self.grp = [rng.randrange(GROUPS) for _ in range(rows)]
        self.score = [rng.randrange(1_000, 10_000_000) / 1000 for _ in range(rows)]
        # Zipf ranks are assigned to ids by a seeded permutation, so the
        # hot keys are spread over the key space (and over shards).
        self.by_rank = list(self.ids)
        rng.shuffle(self.by_rank)
        weights = [1.0 / (rank ** ZIPF_ALPHA) for rank in range(1, rows + 1)]
        self._cdf: List[float] = []
        running = 0.0
        for weight in weights:
            running += weight
            self._cdf.append(running)
        group_count = [0] * GROUPS
        group_max: List[Optional[float]] = [None] * GROUPS
        for g, s in zip(self.grp, self.score):
            group_count[g] += 1
            if group_max[g] is None or s > group_max[g]:
                group_max[g] = s
        self._aggregates = {}
        for low in range(GROUPS - SCAN_WIDTH + 1):
            span = range(low, low + SCAN_WIDTH)
            self._aggregates[low] = (
                sum(group_count[g] for g in span),
                max(group_max[g] for g in span),
            )

    def table_rows(self) -> List[Tuple[int, int, float, int]]:
        return [
            (self.ids[i], self.grp[i], self.score[i], 0)
            for i in range(self.rows)
        ]

    def zipf_key(self, rng: random.Random) -> int:
        rank = bisect.bisect_left(self._cdf, rng.random() * self._cdf[-1])
        return self.by_rank[min(rank, self.rows - 1)]

    def expected_point(self, key: int) -> Tuple[int, int, float]:
        """``(id, grp, score)`` of row ``key``."""
        return key, self.grp[key - 1], self.score[key - 1]

    def expected_aggregate(self, low: int) -> Tuple[int, float]:
        """``(COUNT(*), MAX(score))`` of the scan starting at ``low``."""
        return self._aggregates[low]

    def ids_read(self, request: Request) -> List[int]:
        """The ids whose tuples a read is priced on."""
        if request.kind == "point":
            return [request.key]
        top = request.key + SCAN_WIDTH - 1
        return [i for i, g in zip(self.ids, self.grp) if request.key <= g <= top]

    def scan_lows(self, connection: int, connections: int) -> List[int]:
        """The scan bounds a connection cycles through.

        Each connection owns a disjoint set of bounds and sends each
        once per cycle, with an update closing every segment, so no scan
        can be answered from the result cache: a repeat of the same
        statement always crosses a committed write, which moves the
        snapshot epoch.
        """
        return list(range(connection, GROUPS - SCAN_WIDTH + 1, connections))


def defense_reads(dataset: Dataset, workload: Workload, connection: int) -> int:
    """Reads connection ``connection`` sends in the fixed defense phase.

    A scan connection sends one full cycle, so every run's defense
    phase scans every bound exactly once: only the seeded data and
    order differ between seeds.
    """
    if workload.mixes[connection] == "point":
        return workload.defense_points
    return len(dataset.scan_lows(connection, len(workload.mixes)))


def defense_list(dataset: Dataset, workload: Workload, seed: int) -> List[Request]:
    """The reads of the fixed defense phase, over all connections."""
    reads = []
    for connection in range(len(workload.mixes)):
        stream = request_stream(dataset, workload, connection, seed)
        wanted = defense_reads(dataset, workload, connection)
        while wanted:
            request = next(stream)
            if request.kind != "write":
                reads.append(request)
                wanted -= 1
    return reads


def request_stream(
    dataset: Dataset, workload: Workload, connection: int, seed: int
) -> Iterator[Request]:
    """Connection ``connection``'s endless, seed-determined requests."""
    rng = random.Random(f"requests/{seed}/{workload.name}/{connection}")
    mix = workload.mixes[connection]
    if mix == "point":
        while True:
            key = dataset.zipf_key(rng)
            yield Request("point", POINT_SQL.format(key), key, 1)
    lows = dataset.scan_lows(connection, len(workload.mixes))
    version = 0
    while True:
        cycle = list(lows)
        rng.shuffle(cycle)
        while cycle:
            segment = cycle[:mix]
            del cycle[:len(segment)]
            for low in segment:
                count, _ = dataset.expected_aggregate(low)
                sql = SCAN_SQL.format(low, low + SCAN_WIDTH - 1)
                yield Request("scan", sql, low, count)
            version += 1
            key = dataset.zipf_key(rng)
            yield Request("write", WRITE_SQL.format(version, key), key, 0)
