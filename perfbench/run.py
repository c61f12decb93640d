"""The repository benchmark: one workload, one seed, one JSON result line.

Usage::

    python3 perfbench/run.py --workload point_zipf --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
Each run:

1. sets the system up repeatedly, before and after the measured phase
   (load the table, start the server, get the first good answer), and
   reports the median as ``setup_s``;
2. on the first set-up and on the one kept for step 3, sends the fixed,
   seed-generated defense request list and reads the defense figures
   (priced delay, extraction cost) on the virtual clock; the two replays
   must agree bit for bit;
3. on the kept system, drives the closed-loop connections for
   ``--seconds`` and reports the speed figures (``--trace 0``), or
   alternates untraced and traced windows and reports the per-layer
   figures (``--trace 1``);
4. checks every answer and the defense's bookkeeping (see ``checks``).

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from system import System  # noqa: E402
from workloads import WORKLOADS, Dataset, Workload, defense_list  # noqa: E402

from repro.engine.parser.parser import (  # noqa: E402
    configure_parse_cache,
    parse_cache_info,
)

#: set-ups per run (at least) and their least total duration; ``setup_s``
#: is their median.
SETUPS = 6
SETUP_SECONDS = 3.0
#: traced runs alternate untraced and traced windows this many times.
TRACE_WINDOW_PAIRS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "conn0_p50_ms": "ms",
    "conn0_p90_ms": "ms",
    "conn1_p50_ms": "ms",
    "conn1_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "priced_delay_ms": "ms",
    "extraction_cost_h": "h",
}

PER_LAYER_UNITS = {
    "server.self_p50_us": "us",
    "server.self_share": "ratio",
    "server.fast_path_ratio": "ratio",
    "server.queue_depth_mean": "requests",
    "guard.calls": "calls/req",
    "guard.self_p50_us": "us",
    "guard.probe_hit_self_p50_us": "us",
    "guard.probe_miss_self_p50_us": "us",
    "parse.busy_s": "s",
    "parse.cache_hit_ratio": "ratio",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "cache.invalidations": "count",
    "engine.point_p50_us": "us",
    "engine.scan_p50_us": "us",
    "engine.write_p50_us": "us",
    "engine.vectorized_share": "ratio",
    "rwlock.write_wait_p50_us": "us",
    "rwlock.read_wait_s": "s",
    "price.busy_s": "s",
    "price.ns_per_tuple": "ns",
    "record.busy_s": "s",
    "record.ns_per_tuple": "ns",
    "accounting_over_engine": "ratio",
    "tuples_priced_per_read": "tuples",
    "update_tracker.busy_s": "s",
    "router.self_p50_us": "us",
    "router.scatter_self_p50_us": "us",
    "router.scatter_share": "ratio",
    "gossip.rounds": "count",
    "gossip.busy_s": "s",
    "trace.overhead_share": "ratio",
}


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (q in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def speed(connections, seconds: float) -> Dict[str, float]:
    """Throughput and per-connection latency of the measured phase.

    Throughput is every completed request over the whole measured wall
    time, and each latency quantile is taken over all of a connection's
    requests, so periodic work (gossip rounds, garbage collection) is
    paid for in full.
    """
    completed = sum(len(conn.log) for conn in connections)
    metrics = {"throughput_qps": completed / seconds}
    for index, conn in enumerate(connections):
        latencies = [(received - sent) * 1e3 for _, sent, received, _ in conn.log]
        for q in (50, 90):
            metrics[f"conn{index}_p{q}_ms"] = quantile(latencies, q / 100)
    return metrics


class Run:
    """One benchmark run over one workload and seed."""

    def __init__(self, workload: Workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.dataset = Dataset(workload.rows, seed)
        self.failures: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.setup_times: List[float] = []
        self.defense_list = defense_list(self.dataset, workload, seed)
        #: (extraction cost, replay price) after each defense replay.
        self.defense: List[Tuple[float, float]] = []
        self.tuples_per_read = 0.0

    # -- phases -------------------------------------------------------------

    def set_up(self) -> System:
        # Each set-up starts as a fresh process would: the statement
        # cache is process-global, so empty it; and what the benchmark
        # already holds is frozen out of the collector's reach, so a
        # set-up after the measured phase does not pay to scan it.
        configure_parse_cache(parse_cache_info().maxsize)
        gc.collect()
        gc.freeze()
        try:
            started = time.perf_counter()
            system = System(self.workload, self.dataset, self.seed)
            self.setup_times.append(time.perf_counter() - started)
        finally:
            gc.unfreeze()
        return system

    def defend(self, system: System) -> None:
        """Replay the fixed defense list; read the defense figures."""
        stats = system.guard.stats
        before = (stats.selects, stats.tuples_charged)
        system.run_defense()
        system.quiesce()
        self.defense.append(
            (
                system.guard.extraction_cost(),
                system.replay_price(self.defense_list),
            )
        )
        selects = stats.selects - before[0]
        self.tuples_per_read = (stats.tuples_charged - before[1]) / selects

    def verify(self, system: System) -> None:
        """Every correctness check over the system's whole life."""
        system.quiesce()
        ledger = system.ledger
        stats = system.guard.stats
        self.failures.extend(ledger.errors)
        self.failures.extend(
            checks.check_delay_ledger(
                ledger.delays, stats.total_delay, system.clock_advance()
            )
        )
        self.failures.extend(
            checks.check_charges(
                ledger.expected_tuples,
                stats.tuples_charged,
                system.popularity_total(),
            )
        )
        self.failures.extend(
            checks.check_handler_errors(
                system.server.handler_errors,
                system.server.handler_errors_total,
            )
        )
        self.attempted += len(ledger.delays) + ledger.failed
        self.failed += ledger.failed

    def prepare(self) -> System:
        """Set-ups and defense replays; returns the system left serving.

        The first set-up and the one returned replay the defense list;
        the returned one stays up for the measured phase, so that phase
        starts from the same popularity state in every run. Half of the set-up
        samples are taken here, the rest after the measured phase (see
        :meth:`sample_setups`).
        """
        system = self.set_up()
        self._replay(system, keep=False)
        self.sample_setups(SETUPS // 2, SETUP_SECONDS / 2)
        system = self.set_up()
        self._replay(system, keep=True)
        self.failures.extend(checks.check_determinism(self.defense))
        for conn in system.connections:
            conn.log.clear()
        return system

    def sample_setups(self, count: int, seconds: float) -> None:
        """Set up and tear down until there are at least ``count``
        set-ups that took at least ``seconds`` together: a cheap set-up
        is sampled more often, and sampling before and after the
        measured phase spreads the samples over the whole run."""
        while len(self.setup_times) < count or sum(self.setup_times) < seconds:
            system = self.set_up()
            self.verify(system)
            system.close()

    def _replay(self, system: System, keep: bool) -> None:
        """Send the defense list; close the system unless ``keep``."""
        try:
            self.defend(system)
            if not keep:
                self.verify(system)
        except BaseException:
            system.close()
            raise
        if not keep:
            system.close()

    # -- the two kinds of run ------------------------------------------------

    def timed(self) -> Dict[str, float]:
        system = self.prepare()
        try:
            seconds = system.run_for(self.seconds)
            self.verify(system)
        finally:
            system.close()
        self.sample_setups(SETUPS, SETUP_SECONDS)
        metrics = {"setup_s": statistics.median(self.setup_times)}
        metrics.update(speed(system.connections, seconds))
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        metrics.update(self.defense_metrics())
        return metrics

    def defense_metrics(self) -> Dict[str, float]:
        cost, delay = self.defense[0]
        return {
            "priced_delay_ms": delay * 1e3,
            "extraction_cost_h": cost / 3600,
        }

    def traced(self) -> Dict[str, float]:
        from spans import QueueSampler, Tracer, join_requests, layer_metrics

        system = self.prepare()
        window = self.seconds / (2 * TRACE_WINDOW_PAIRS)
        tracer = Tracer()
        counters = Counters(system)
        samples: List[int] = []
        #: (requests, seconds) of the untraced and of the traced windows.
        plain = [0, 0.0]
        spanned = [0, 0.0]

        def measure(totals: List) -> None:
            before = sum(len(conn.log) for conn in system.connections)
            totals[1] += system.run_for(window)
            totals[0] += sum(len(conn.log) for conn in system.connections) - before

        try:
            for _ in range(TRACE_WINDOW_PAIRS):
                measure(plain)
                counters.start()
                tracer.install()
                try:
                    with QueueSampler(system.server) as sampler:
                        measure(spanned)
                finally:
                    tracer.uninstall()
                counters.stop()
                samples.extend(sampler.samples)
            self.verify(system)
        finally:
            system.close()
        requests, unjoined = join_requests(tracer.spans)
        if unjoined:
            self.failures.append(
                f"{unjoined} traced requests joined no server span"
            )
        metrics = layer_metrics(tracer.spans, requests)
        metrics.update(counters.metrics(len(requests)))
        metrics["server.queue_depth_mean"] = (
            statistics.fmean(samples) if samples else 0.0
        )
        metrics["tuples_priced_per_read"] = self.tuples_per_read
        metrics["trace.overhead_share"] = 1 - (spanned[0] / spanned[1]) / (
            plain[0] / plain[1]
        )
        return metrics


class Counters:
    """Program counters summed over the traced windows."""

    def __init__(self, system: System):
        self.system = system
        self.totals: Dict[str, float] = {}
        self._start: Dict[str, float] = {}

    def read(self) -> Dict[str, float]:
        system = self.system
        values = {
            "fast_path_hits": system.server.cache_fast_path_hits,
        }
        parse = parse_cache_info()
        values["parse_hits"] = parse.hits
        values["parse_misses"] = parse.misses
        for field in ("hits", "misses", "evictions", "invalidations"):
            values[f"cache_{field}"] = 0
        for guard in system.shard_guards():
            cache = guard.result_cache
            if cache is None:
                continue
            info = cache.info()
            for field in ("hits", "misses", "evictions", "invalidations"):
                values[f"cache_{field}"] += info[field]
        router = getattr(system.service, "router", None)
        stats = router.routing_stats() if router is not None else {}
        values["scatter"] = stats.get("scatter_queries", 0)
        values["single"] = stats.get("single_shard_queries", 0)
        return values

    def start(self) -> None:
        self._start = self.read()

    def stop(self) -> None:
        for key, value in self.read().items():
            self.totals[key] = self.totals.get(key, 0) + value - self._start[key]

    def metrics(self, requests: int) -> Dict[str, float]:
        t = self.totals

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        return {
            "server.fast_path_ratio": ratio(t["fast_path_hits"], requests),
            "parse.cache_hit_ratio": ratio(
                t["parse_hits"], t["parse_hits"] + t["parse_misses"]
            ),
            "cache.hit_ratio": ratio(
                t["cache_hits"], t["cache_hits"] + t["cache_misses"]
            ),
            "cache.evictions": float(t["cache_evictions"]),
            "cache.invalidations": float(t["cache_invalidations"]),
            "router.scatter_share": ratio(
                t["scatter"], t["scatter"] + t["single"]
            ),
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds)
    if args.trace:
        values, units = run.traced(), PER_LAYER_UNITS
    else:
        values, units = run.timed(), END_TO_END_UNITS
    for failure in run.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
