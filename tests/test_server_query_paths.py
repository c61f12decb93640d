"""The server's three query paths answer alike.

One statement reaches the guard three ways: the embedded
``handle_request`` call, a TCP request served by a worker (cold result
cache), and a TCP request answered on the I/O loop from the result
cache (warm). Given the same popularity state, all three must return
the same rows and the same priced delay, and each finished trace must
show the delay being served.
"""

import json

import pytest

from repro.core import GuardConfig, VirtualClock
from repro.server import DelayClient, DelayServer
from repro.service import DataProviderService

SQL = "SELECT id, v FROM t WHERE id <= 3"
#: touches the same tuples as SQL under a different cache key, so a
#: service can be warmed without putting SQL itself in the cache.
SAME_TUPLES_SQL = "SELECT * FROM t WHERE id <= 3"


def build_service(warm_sql):
    service = DataProviderService(
        guard_config=GuardConfig(cap=5.0, unit=10.0, result_cache_size=32),
        clock=VirtualClock(),
    )
    service.database.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)"
    )
    service.database.insert_rows("t", [(i, f"v{i}") for i in range(1, 21)])
    # One earlier read of the same tuples, so every path prices warm
    # (popularity-based) delays from identical counts.
    service.query(None, warm_sql)
    return service


def newest_query_trace(service):
    traces = [
        trace
        for trace in service.obs.tracer.to_json(limit=10)
        if trace["status"] == "ok" and trace["sql"] == SQL
    ]
    assert traces
    return traces[0]


def answer_embedded():
    service = build_service(SAME_TUPLES_SQL)
    server = DelayServer(service)
    response = server.handle_request(json.dumps({"op": "query", "sql": SQL}))
    return response, service, server


def answer_over_tcp(warm_sql):
    service = build_service(warm_sql)
    with DelayServer(service) as server:
        with DelayClient(*server.address) as client:
            response = client.query(SQL)
    return response, service, server


@pytest.fixture(scope="module")
def answers():
    return {
        "embedded": answer_embedded(),
        "worker": answer_over_tcp(SAME_TUPLES_SQL),
        "fast_path": answer_over_tcp(SQL),
    }


def test_paths_return_the_same_answer(answers):
    embedded = answers["embedded"][0]
    assert embedded["ok"] is True
    assert embedded["delay"] > 0
    for name in ("worker", "fast_path"):
        response = answers[name][0]
        for field in ("columns", "rows", "rowcount", "delay"):
            assert response[field] == embedded[field], (name, field)


def test_only_the_cache_hit_is_marked_cached(answers):
    assert answers["embedded"][0]["cached"] is False
    assert answers["worker"][0]["cached"] is False
    assert answers["fast_path"][0]["cached"] is True
    assert answers["worker"][2].cache_fast_path_hits == 0
    assert answers["fast_path"][2].cache_fast_path_hits == 1


@pytest.mark.parametrize("name", ["embedded", "worker", "fast_path"])
def test_each_trace_serves_the_delay(answers, name):
    response, service, _server = answers[name]
    trace = newest_query_trace(service)
    assert trace["delay"] == response["delay"] > 0
    assert "sleep" in {span["name"] for span in trace["spans"]}
    assert service.clock.total_slept >= response["delay"]


@pytest.mark.parametrize("name", ["embedded", "worker", "fast_path"])
def test_no_handler_errors(answers, name):
    assert list(answers[name][2].handler_errors) == []
