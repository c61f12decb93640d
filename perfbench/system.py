"""The system under test, driven through its front door.

One process holds both sides: a :class:`~repro.server.DelayServer` on
a virtual clock (the priced delay is charged and reported, never
slept) serving a single node or a 4-shard cluster, and one closed-loop
:class:`~repro.server.DelayClient` connection per workload connection,
each on its own thread, each waiting for its reply before sending the
next request.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from checks import check_answer
from workloads import (
    CREATE_SQL,
    IDENTITIES,
    POINT_SQL,
    Dataset,
    Request,
    Workload,
    defense_reads,
    request_stream,
)

from repro.cluster import ClusterService
from repro.core import GuardConfig
from repro.server import DelayClient, DelayServer, ServerError
from repro.service import DataProviderService

#: the one configuration field changed from the defaults.
RESULT_CACHE_SIZE = 1024
#: seconds between background anti-entropy rounds on the cluster.
GOSSIP_INTERVAL = 2.0
#: rows per INSERT statement when loading a cluster through its router.
LOAD_BATCH = 500
#: keep at most this many answer failures for the report.
MAX_ERRORS = 20


class Ledger:
    """What the clients saw, for the end-of-run correctness checks."""

    def __init__(self) -> None:
        self.delays: List[float] = []
        self.expected_tuples = 0
        self.failed = 0
        self.errors: List[str] = []
        self._lock = threading.Lock()

    def note(self, request: Request, response: Optional[Dict], problem) -> None:
        with self._lock:
            if response is None:
                self.failed += 1
            else:
                self.delays.append(response["delay"])
                self.expected_tuples += request.tuples
            if problem is not None and len(self.errors) < MAX_ERRORS:
                self.errors.append(problem)


class Connection:
    """One closed-loop client connection with its own request stream."""

    def __init__(self, system: "System", index: int, seed: int):
        self.system = system
        self.identity = IDENTITIES[index]
        self.client = DelayClient(*system.server.address)
        self.stream = request_stream(
            system.dataset, system.workload, index, seed
        )
        #: (kind, sent, received, delay) per completed request.
        self.log: List[Tuple[str, float, float, float]] = []

    def send(self, request: Request) -> Optional[Dict]:
        system = self.system
        sent = time.perf_counter()
        try:
            response = self.client.query(request.sql, identity=self.identity)
        except ServerError as error:
            system.ledger.note(request, None, f"{request.sql}: {error}")
            return None
        received = time.perf_counter()
        problem = check_answer(request, response, system.dataset, system.cap)
        system.ledger.note(request, response, problem)
        self.log.append((request.kind, sent, received, response["delay"]))
        return response

    def run(self, reads: Optional[int] = None, until: Optional[float] = None) -> None:
        """Send requests until ``reads`` reads have been sent (the writes
        between them included), or until ``until``."""
        sent = 0
        for request in self.stream:
            if reads is not None and sent >= reads:
                self.stream = itertools.chain([request], self.stream)
                return
            if until is not None and time.perf_counter() >= until:
                self.stream = itertools.chain([request], self.stream)
                return
            self.send(request)
            sent += request.kind != "write"

    def close(self) -> None:
        self.client.close()


class System:
    """A loaded, serving system plus its client connections."""

    def __init__(self, workload: Workload, dataset: Dataset, seed: int):
        self.workload = workload
        self.dataset = dataset
        self.ledger = Ledger()
        config = GuardConfig(result_cache_size=RESULT_CACHE_SIZE)
        self.cap = config.cap
        if workload.shards:
            self.service = ClusterService(
                shard_count=workload.shards,
                guard_config=config,
                gossip_interval=GOSSIP_INTERVAL,
            )
            self._load_cluster()
            # After a full gossip round every shard prices every key
            # from the global counts.
            self.pricing = self.service.guards[0].policy
        else:
            self.service = DataProviderService(guard_config=config)
            self.service.database.execute(CREATE_SQL)
            rowids = self.service.database.insert_rows(
                "t", dataset.table_rows()
            )
            #: the guard's tuple key for id ``i + 1``.
            self.keys = [("t", rowid) for rowid in rowids]
            self.pricing = self.service.guard.policy
        self.guard = self.service.guard
        self.clock_start = self.service.clock.now()
        self.server = DelayServer(self.service)
        self.server.start()
        self.connections = [
            Connection(self, index, seed)
            for index in range(len(workload.mixes))
        ]
        # The first good answer ends set-up.
        probe = Request("point", POINT_SQL.format(1), 1, 1)
        if self.connections[0].send(probe) is None or self.ledger.errors:
            raise RuntimeError(f"set-up probe failed: {self.ledger.errors}")

    def _load_cluster(self) -> None:
        router = self.service.router
        router.execute(CREATE_SQL)
        rows = self.dataset.table_rows()
        for start in range(0, len(rows), LOAD_BATCH):
            values = ", ".join(
                f"({i}, {g}, {s!r}, {v})"
                for i, g, s, v in rows[start:start + LOAD_BATCH]
            )
            router.execute(f"INSERT INTO t VALUES {values}")
        self.keys = [None] * len(rows)
        for shard in self.service.shards:
            owned = shard.database.execute("SELECT id FROM t")
            for (key,), rowid in zip(owned.rows, owned.rowids):
                self.keys[key - 1] = ("t", rowid)

    # -- driving -------------------------------------------------------------

    def run_connections(self, targets: List[Callable[[], None]]) -> None:
        threads = [
            threading.Thread(target=target, name=f"bench-client-{index}")
            for index, target in enumerate(targets)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def run_defense(self) -> None:
        """Each connection sends its fixed defense-phase requests."""
        self.run_connections(
            [
                (lambda conn=conn, n=n: conn.run(reads=n))
                for conn, n in zip(
                    self.connections,
                    (
                        defense_reads(self.dataset, self.workload, index)
                        for index in range(len(self.connections))
                    ),
                )
            ]
        )

    def run_for(self, seconds: float) -> float:
        """All connections send until ``seconds`` have passed; returns
        the wall time from start until the last reply."""
        started = time.perf_counter()
        until = started + seconds
        self.run_connections(
            [(lambda conn=conn: conn.run(until=until)) for conn in self.connections]
        )
        return time.perf_counter() - started

    # -- quiescent reads of the program's own state --------------------------

    def quiesce(self) -> None:
        """Let background convergence finish: one full gossip round."""
        gossip = getattr(self.service, "gossip", None)
        if gossip is not None:
            gossip.run_round()

    def replay_price(self, reads: List[Request]) -> float:
        """Mean delay per tuple the guard would now charge ``reads``."""
        times = [0] * len(self.keys)
        for request in reads:
            for key in self.dataset.ids_read(request):
                times[key - 1] += 1
        delays = self.pricing.delays_for(self.keys)
        return math.fsum(n * d for n, d in zip(times, delays)) / sum(times)

    def popularity_total(self) -> float:
        return self.guard.popularity.total_requests

    def clock_advance(self) -> float:
        return self.service.clock.now() - self.clock_start

    def shard_guards(self) -> List:
        if self.workload.shards:
            return self.service.guards
        return [self.guard]

    def close(self) -> None:
        for conn in self.connections:
            conn.close()
        self.server.stop()
        close = getattr(self.service, "close", None)
        if close is not None:
            close()
