"""Self-tests: every correctness check rejects tampered output.

Run from the repository root with::

    python3 -m pytest -q perfbench

The first group feeds each check tampered values directly; the second
runs a small system end to end and tampers with what the server sends
or records, and requires the run to come out incorrect.
"""

from __future__ import annotations

import math

import checks
import run
import spans
from workloads import POINT_SQL, Dataset, Request, Workload, request_stream

from repro.core.guard import DelayGuard
from repro.core.popularity import PopularityTracker
from repro.server import DelayServer

CAP = 10.0
DATASET = Dataset(2_000, seed=7)
SMALL = Workload(
    name="selftest",
    rows=2_000,
    shards=0,
    mixes=("point", 3),
    defense_points=40,
)


def point(key: int) -> Request:
    return Request("point", f"SELECT * FROM t WHERE id = {key}", key, 1)


def scan(low: int) -> Request:
    count, _ = DATASET.expected_aggregate(low)
    return Request("scan", "SELECT ...", low, count)


# -- the checks on tampered values -------------------------------------------


def test_answer_accepts_the_true_row_and_rejects_an_altered_one():
    key = 17
    row = list(DATASET.expected_point(key)) + [3]
    good = {"rows": [row], "delay": 0.5}
    assert checks.check_answer(point(key), good, DATASET, CAP) is None
    for column in range(3):
        altered = list(row)
        altered[column] = altered[column] + 1
        bad = {"rows": [altered], "delay": 0.5}
        assert checks.check_answer(point(key), bad, DATASET, CAP)
    assert checks.check_answer(point(key), {"rows": [], "delay": 0.5}, DATASET, CAP)


def test_answer_rejects_an_altered_aggregate():
    count, top = DATASET.expected_aggregate(3)
    good = {"rows": [[count, top]], "delay": 1.0}
    assert checks.check_answer(scan(3), good, DATASET, CAP) is None
    for bad_row in ([count - 1, top], [count, top + 0.001]):
        bad = {"rows": [bad_row], "delay": 1.0}
        assert checks.check_answer(scan(3), bad, DATASET, CAP)


def test_answer_rejects_a_delay_over_the_cap():
    row = list(DATASET.expected_point(5)) + [0]
    over = {"rows": [row], "delay": math.nextafter(CAP, math.inf)}
    assert checks.check_answer(point(5), over, DATASET, CAP)
    count, top = DATASET.expected_aggregate(0)
    at_cap = {"rows": [[count, top]], "delay": CAP * count}
    assert checks.check_answer(scan(0), at_cap, DATASET, CAP) is None


def test_answer_rejects_a_failed_write():
    write = Request("write", "UPDATE ...", 9, 0)
    done = {"rowcount": 1, "delay": 0.0}
    assert checks.check_answer(write, done, DATASET, CAP) is None
    missed = {"rowcount": 0, "delay": 0.0}
    assert checks.check_answer(write, missed, DATASET, CAP)


def test_delay_ledger_rejects_an_altered_delay():
    delays = [0.25, 10.0, 0.125, 3.5]
    total = math.fsum(delays)
    assert checks.check_delay_ledger(delays, total, total) == []
    altered = list(delays)
    altered[1] = 9.5
    assert checks.check_delay_ledger(altered, total, total)
    assert checks.check_delay_ledger(delays, total, total + 0.5)


def test_charges_reject_a_dropped_charge():
    assert checks.check_charges(1000, 1000, 1000.0) == []
    assert checks.check_charges(1000, 1000, 999.0)
    assert checks.check_charges(1000, 999, 1000.0)


def test_handler_errors_reject_any_error():
    assert checks.check_handler_errors([], 0) == []
    assert checks.check_handler_errors([RuntimeError("boom")], 1)


def test_determinism_rejects_a_one_ulp_difference():
    cost, delay = 123456.789, 0.25
    assert checks.check_determinism([(cost, delay), (cost, delay)]) == []
    assert checks.check_determinism(
        [(cost, delay), (math.nextafter(cost, 0.0), delay)]
    )
    assert checks.check_determinism(
        [(cost, delay), (cost, math.nextafter(delay, 1.0))]
    )


def test_streams_are_seeded():
    def first(seed: int, connection: int):
        stream = request_stream(DATASET, SMALL, connection, seed)
        return [next(stream).sql for _ in range(30)]

    assert first(1, 0) == first(1, 0)
    assert first(1, 0) != first(2, 0)
    assert first(1, 1) != first(1, 0)


# -- a small system, end to end ----------------------------------------------


def small_run(monkeypatch) -> run.Run:
    # The small table sets up in milliseconds; the minimum set-up count
    # is enough here.
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)
    result = run.Run(SMALL, seed=3, seconds=0.3)
    result.timed()
    return result


def test_small_run_is_correct(monkeypatch):
    result = small_run(monkeypatch)
    assert result.failures == []
    assert result.failed == 0
    assert result.attempted > 2 * SMALL.defense_points


def _tamper_encode(monkeypatch, mutate, skip=20):
    """Make the server alter one response ``mutate`` accepts, after
    letting ``skip`` of them through (the set-up probe among them)."""
    original = DelayServer._encode
    done = []
    seen = []

    def encode(self, payload):
        if not done and payload.get("ok"):
            seen.append(None)
            if len(seen) > skip and mutate(payload):
                done.append(payload)
        return original(self, payload)

    monkeypatch.setattr(DelayServer, "_encode", encode)
    return done


def test_small_run_rejects_an_altered_row(monkeypatch):
    def alter_row(payload):
        rows = payload.get("rows")
        if rows and len(rows[0]) == 4 and payload.get("delay", 0) > 0:
            rows[0][2] = rows[0][2] + 1.0
            return True
        return False

    done = _tamper_encode(monkeypatch, alter_row)
    result = small_run(monkeypatch)
    assert done
    assert any("expected" in failure for failure in result.failures)


def test_small_run_rejects_an_altered_delay(monkeypatch):
    def alter_delay(payload):
        if payload.get("delay", 0) > 0:
            payload["delay"] = payload["delay"] / 2
            return True
        return False

    done = _tamper_encode(monkeypatch, alter_delay)
    result = small_run(monkeypatch)
    assert done
    assert any("delay" in failure for failure in result.failures)


def test_small_run_rejects_a_dropped_charge(monkeypatch):
    original = PopularityTracker.record_many
    dropped = []

    def record_many(self, keys):
        keys = list(keys)
        if not dropped and len(keys) > 1:
            dropped.append(keys.pop())
        return original(self, keys)

    monkeypatch.setattr(PopularityTracker, "record_many", record_many)
    result = small_run(monkeypatch)
    assert dropped
    assert any("popularity totals" in failure for failure in result.failures)


def test_guard_spans_tell_probes_from_full_runs():
    tracer = spans.Tracer()
    hit = object()
    guard = tracer._wrap(lambda self, sql, **kwargs: kwargs.get("hit"), "guard")
    guard(None, "q", cache_only=True)
    guard(None, "q", cache_only=True, hit=hit)
    guard(None, "q", hit=hit)
    assert [span.arg for span in tracer.spans] == [
        "probe_miss", "probe_hit", "full"
    ]


def test_join_flags_a_request_no_server_span_served():
    def span(name, t0, t1, sql=None):
        made = spans.Span(name, None)
        made.t0, made.t1, made.identity, made.arg = t0, t1, "client-0", sql
        return made

    served = span("client", 0.0, 1.0, POINT_SQL.format(1))
    unserved = span("client", 2.0, 3.0, POINT_SQL.format(2))
    root = span("guard", 0.25, 0.5)
    joined, unjoined = spans.join_requests([served, unserved, root])
    assert unjoined == 1
    assert joined == [(served, 0.75)]
    assert root.kind == "point"


def test_small_traced_run_reports_every_layer(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)
    original = DelayGuard.__dict__["execute"]
    result = run.Run(SMALL, seed=3, seconds=0.4)
    metrics = result.traced()
    assert result.failures == []
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert DelayGuard.__dict__["execute"] is original
    assert metrics["guard.calls"] >= 1
    assert metrics["guard.self_p50_us"] > 0
    assert metrics["guard.probe_miss_self_p50_us"] > 0
    assert metrics["price.busy_s"] > 0 and metrics["record.busy_s"] > 0
