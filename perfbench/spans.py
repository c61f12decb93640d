"""Spans around each layer's public entry points, recorded from outside.

:class:`Tracer` patches the entry points listed in :data:`ENTRY_POINTS`
at run time (classes and module bindings; nothing under ``src/`` is
edited) so that each call records a span: name, start, end and parent.
Nesting comes from a per-thread stack. A span's self time is its
duration minus the durations of its direct children. Spans stay in
memory until the traced window ends; :func:`layer_metrics` turns them
into the per-layer figures.

A server-side root span (the guard's or the router's ``execute`` with
no parent on its thread) is joined to the client request it served by
its ``identity`` and by lying inside that connection's send/receive
window: each connection is closed-loop, so the match is exact.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import POINT_SQL, SCAN_SQL, WRITE_SQL

import repro.cluster.router as router_module
import repro.core.pipeline as pipeline_module
from repro.cluster.gossip import GossipCoordinator
from repro.cluster.router import ClusterRouter
from repro.core.delay_policy import PopularityDelayPolicy
from repro.core.guard import DelayGuard
from repro.core.popularity import PopularityTracker
from repro.core.result_cache import ResultCache
from repro.core.update_tracker import UpdateRateTracker
from repro.engine.database import Database
from repro.engine.rwlock import ReadWriteLock
from repro.server import DelayClient

#: (owner, attribute, span name). ``parse_cached`` is patched where the
#: pipeline and the router bind it.
ENTRY_POINTS: Tuple[Tuple[object, str, str], ...] = (
    (DelayClient, "query", "client"),
    (DelayGuard, "execute", "guard"),
    (ClusterRouter, "execute", "router"),
    (Database, "execute", "engine"),
    (pipeline_module, "parse_cached", "parse"),
    (router_module, "parse_cached", "parse"),
    (ResultCache, "get", "cache.get"),
    (ResultCache, "put", "cache.put"),
    (PopularityDelayPolicy, "delays_for", "price"),
    (PopularityTracker, "record_many", "record"),
    (UpdateRateTracker, "record_update", "update_tracker"),
    (ReadWriteLock, "acquire_read", "rwlock.read"),
    (ReadWriteLock, "acquire_write", "rwlock.write"),
    (GossipCoordinator, "run_round", "gossip"),
)

#: spans whose first argument after ``self`` is the tuple-key list.
_KEYED = ("price", "record")
#: spans that carry the caller's identity (server-side roots).
_IDENTIFIED = ("guard", "router", "client")

_PREFIXES = (
    (POINT_SQL.split("{")[0], "point"),
    (SCAN_SQL.split("{")[0], "scan"),
    (WRITE_SQL.split("{")[0], "write"),
)


def kind_of(sql: str) -> str:
    for prefix, kind in _PREFIXES:
        if sql.startswith(prefix):
            return kind
    return "other"


class Span:
    __slots__ = ("name", "t0", "t1", "parent", "root", "child", "identity",
                 "arg", "kind")

    def __init__(self, name: str, parent: Optional["Span"]):
        self.name = name
        self.parent = parent
        self.root = parent.root if parent is not None else self
        self.child = 0.0
        self.identity = None
        #: the SQL text (client spans), key count (price/record),
        #: execution path (engine spans) or guard run (guard spans:
        #: ``"full"``, or ``"probe_hit"``/``"probe_miss"`` for the
        #: server's cache-only fast-path probe).
        self.arg = None
        self.kind = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def self_time(self) -> float:
        return self.t1 - self.t0 - self.child


class Tracer:
    """Installs span-recording wrappers; collects spans in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._originals: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attribute, name in ENTRY_POINTS:
            original = owner.__dict__[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def _wrap(self, fn, name: str):
        local = self._local
        spans = self.spans
        clock = time.perf_counter
        keyed = name in _KEYED
        identified = name in _IDENTIFIED
        is_client = name == "client"
        is_engine = name == "engine"
        is_guard = name == "guard"

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span = Span(name, parent)
            if identified:
                span.identity = kwargs.get("identity")
            if keyed:
                span.arg = len(args[1])
            elif is_client:
                span.arg = args[1]
            stack.append(span)
            span.t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = clock()
                stack.pop()
                if parent is not None:
                    parent.child += span.t1 - span.t0
                spans.append(span)
            if is_engine:
                span.arg = getattr(result, "execution_path", None)
            elif is_guard:
                if not kwargs.get("cache_only"):
                    span.arg = "full"
                else:
                    span.arg = "probe_miss" if result is None else "probe_hit"
            return result

        return traced


class QueueSampler:
    """Samples the server's admission-queue depth on a fixed period."""

    def __init__(self, server, period: float = 0.005):
        self.server = server
        self.period = period
        self.samples: List[int] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="bench-sampler")

    def _run(self) -> None:
        while not self._stop.wait(self.period):
            self.samples.append(self.server.queue_depth)

    def __enter__(self) -> "QueueSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()


def join_requests(spans: Sequence[Span]) -> Tuple[List[Tuple[Span, float]], int]:
    """Join server roots to client requests.

    Returns ``(client span, server self seconds)`` per client request
    and the number of client requests no server root joined. Each root
    joined to a request is tagged with the request's kind, so every
    span beneath it can be attributed to a point, scan or write.
    """
    clients: Dict[str, List[Span]] = {}
    roots: Dict[str, List[Span]] = {}
    for span in spans:
        if span.name == "client":
            clients.setdefault(span.identity, []).append(span)
        elif span.parent is None and span.name in ("guard", "router"):
            roots.setdefault(span.identity, []).append(span)
    joined: List[Tuple[Span, float]] = []
    unjoined = 0
    for identity, requests in clients.items():
        requests.sort(key=lambda span: span.t0)
        served = sorted(roots.get(identity, []), key=lambda span: span.t0)
        cursor = 0
        for request in requests:
            kind = kind_of(request.arg)
            request.kind = kind
            while cursor < len(served) and served[cursor].t0 < request.t0:
                cursor += 1
            inside = 0.0
            hits = 0
            while cursor < len(served) and served[cursor].t1 <= request.t1:
                served[cursor].kind = kind
                inside += served[cursor].duration
                hits += 1
                cursor += 1
            if hits == 0:
                unjoined += 1
                continue
            joined.append((request, request.duration - inside))
    return joined, unjoined


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(
    spans: Sequence[Span], requests: Sequence[Tuple[Span, float]]
) -> Dict[str, float]:
    """Per-layer figures from joined spans (see BENCHMARK.json)."""
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name: str) -> List[Span]:
        return by_name.get(name, [])

    def busy(name: str, kinds=None) -> float:
        return math.fsum(
            span.duration
            for span in named(name)
            if kinds is None or span.root.kind in kinds
        )

    def per_tuple_ns(name: str) -> float:
        tuples = sum(span.arg for span in named(name))
        return busy(name) / tuples * 1e9 if tuples else 0.0

    def self_p50_us(name: str, kinds=None) -> float:
        return _median([
            span.self_time * 1e6
            for span in named(name)
            if kinds is None or span.root.kind in kinds
        ])

    def guard_self_p50_us(run: str) -> float:
        return _median([
            span.self_time * 1e6 for span in named("guard") if span.arg == run
        ])

    def engine_p50_us(kind: str) -> float:
        return _median([
            span.duration * 1e6
            for span in named("engine")
            if span.root.kind == kind
        ])

    reads = ("point", "scan")
    round_trip = sum(request.duration for request, _ in requests)
    server_self = [self_time for _, self_time in requests]
    engine_reads = [span for span in named("engine") if span.root.kind in reads]
    vectorized = sum(
        1 for span in engine_reads if span.arg in ("vectorized", "parallel")
    )
    engine_read_busy = sum(span.duration for span in engine_reads)
    accounting = busy("price", reads) + busy("record", reads)
    return {
        "server.self_p50_us": _median(server_self) * 1e6,
        "server.self_share": sum(server_self) / round_trip if round_trip else 0.0,
        "guard.calls": len(named("guard")) / len(requests) if requests else 0.0,
        "guard.self_p50_us": guard_self_p50_us("full"),
        "guard.probe_hit_self_p50_us": guard_self_p50_us("probe_hit"),
        "guard.probe_miss_self_p50_us": guard_self_p50_us("probe_miss"),
        "parse.busy_s": busy("parse"),
        "engine.point_p50_us": engine_p50_us("point"),
        "engine.scan_p50_us": engine_p50_us("scan"),
        "engine.write_p50_us": engine_p50_us("write"),
        "engine.vectorized_share": (
            vectorized / len(engine_reads) if engine_reads else 0.0
        ),
        "rwlock.write_wait_p50_us": _median(
            [span.duration * 1e6 for span in named("rwlock.write")]
        ),
        "rwlock.read_wait_s": busy("rwlock.read"),
        "price.busy_s": busy("price"),
        "price.ns_per_tuple": per_tuple_ns("price"),
        "record.busy_s": busy("record"),
        "record.ns_per_tuple": per_tuple_ns("record"),
        "accounting_over_engine": (
            accounting / engine_read_busy if engine_read_busy else 0.0
        ),
        "update_tracker.busy_s": busy("update_tracker"),
        "router.self_p50_us": self_p50_us("router", ("point",)),
        "router.scatter_self_p50_us": self_p50_us("router", ("scan",)),
        "gossip.rounds": float(len(named("gossip"))),
        "gossip.busy_s": busy("gossip"),
    }
