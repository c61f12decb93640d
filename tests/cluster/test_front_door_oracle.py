"""Differential oracle: a cluster answers and prices like one node.

Runs the vectorized-equivalence corpus through a single node and
through clusters of M ∈ {1, 2, 4} shards, in lockstep, with a full
gossip round before every compared statement and no popularity decay
(so every shard prices from exactly the single node's counts). For
each statement the two shapes must agree on:

- the rows — as ordered lists under ORDER BY, as multisets otherwise;
- ``touched``, after mapping each (table, rowid) to its primary key
  (cluster rowids are strided per shard, so raw rowids differ);
- the per-tuple delays, sorted, exactly; the total delay to 1e-9
  relative (the summation order differs);
- the error, when the statement fails.

The guard's refusals (``result_limit``, the daily query quota, a spent
deadline) must be raised alike in every shape.
"""

from collections import Counter

import pytest

from repro.cluster import ClusterService
from repro.core import AccountPolicy, GuardConfig
from repro.core.errors import AccessDenied, ConfigError
from repro.service import DataProviderService

from ..engine.test_vectorized_equivalence import CORPUS, populate

CONFIG = dict(policy="popularity", cap=30.0, unit=600.0, decay_rate=1.0)
SHARDS = [1, 2, 4]

#: the subquery bugfix statements, on this fixture's schema: a
#: key-proven read whose subquery needs other partitions, and the
#: matching write (rejected on a multi-shard cluster).
SUBQUERY_SELECT = (
    "SELECT * FROM users WHERE id = 4 AND id IN (SELECT uid FROM orders)"
)
SUBQUERY_UPDATE = (
    "UPDATE users SET age = 99 WHERE id = 4 "
    "AND id IN (SELECT uid FROM orders)"
)
#: key-proven reads (the owner-routed path), run twice so the second
#: pass prices warmed counts.
POINT_READS = [
    "SELECT * FROM users WHERE id = 3",
    "SELECT * FROM orders WHERE oid = 12",
    "SELECT k, v FROM big WHERE k = 4",
    "SELECT name FROM users WHERE id IN (1, 2, 6) ORDER BY id",
]
STATEMENTS = CORPUS + POINT_READS + [
    SUBQUERY_SELECT,
    "SELECT * FROM users WHERE id = 1 AND age > (SELECT MIN(age) FROM users)",
] + POINT_READS


class Pair:
    """A single node and an M-shard cluster loaded with ``populate``."""

    def __init__(self, shards, account_policy=None, **config):
        settings = dict(CONFIG, **config)
        self.single = DataProviderService(
            guard_config=GuardConfig(**settings),
            account_policy=account_policy,
        )
        self.cluster = ClusterService(
            shard_count=shards,
            guard_config=GuardConfig(**settings),
            account_policy=account_policy,
        )
        self.identity = None
        if account_policy is not None:
            self.identity = "loader"
            for service in self.services:
                service.register(self.identity)
        for service in self.services:
            populate(_Loader(service, self.identity))
        self.pk_of = {
            "single": _pk_map([self.single.database]),
            "cluster": _pk_map(
                [shard.database for shard in self.cluster.shards]
            ),
        }

    @property
    def services(self):
        return (self.single, self.cluster)

    def both(self, sql, **kwargs):
        """Run ``sql`` on each shape; (result or error) per shape."""
        self.cluster.gossip.run_round()
        outcomes = []
        for service in self.services:
            try:
                outcomes.append(
                    service.guard.execute(
                        sql, identity=self.identity, **kwargs
                    )
                )
            except Exception as error:  # noqa: BLE001 — compared below
                outcomes.append(error)
        return outcomes

    def touched(self, shape, result):
        pk_of = self.pk_of[shape]
        return Counter(pk_of[key] for key in result.result.touched)


class _Loader:
    """``populate`` calls ``db.execute(sql)``; route it through a guard."""

    def __init__(self, service, identity):
        self.service = service
        self.identity = identity

    def execute(self, sql):
        return self.service.query(self.identity, sql)


def _pk_map(databases):
    """(table, rowid) -> (table, primary key) over every partition."""
    mapping = {}
    for database in databases:
        catalog = database.catalog
        for name in catalog.table_names():
            heap = catalog.table(name)
            position = heap.schema.position(heap.schema.primary_key)
            for rowid, row in heap.scan():
                mapping[(name.lower(), rowid)] = (name.lower(), row[position])
    return mapping


def assert_same(pair, sql, ours, theirs):
    if isinstance(theirs, Exception) or isinstance(ours, Exception):
        assert type(ours) is type(theirs), (sql, ours, theirs)
        assert str(ours) == str(theirs), sql
        return
    rows_ours = [repr(row) for row in ours.rows]
    rows_theirs = [repr(row) for row in theirs.rows]
    if "ORDER BY" in sql:
        assert rows_ours == rows_theirs, sql
    else:
        assert Counter(rows_ours) == Counter(rows_theirs), sql
    assert pair.touched("cluster", ours) == pair.touched(
        "single", theirs
    ), sql
    assert sorted(ours.per_tuple_delays) == sorted(
        theirs.per_tuple_delays
    ), sql
    assert ours.delay == pytest.approx(theirs.delay, rel=1e-9, abs=0), sql


@pytest.mark.parametrize("shards", SHARDS)
def test_corpus_matches_single_node(shards):
    pair = Pair(shards)
    for sql in STATEMENTS:
        theirs, ours = pair.both(sql)
        assert_same(pair, sql, ours, theirs)
    # The same history leaves the same global counts behind.
    pair.cluster.gossip.run_round()
    assert (
        pair.cluster.router.popularity.total_requests
        == pair.single.guard.popularity.total_requests
    )


@pytest.mark.parametrize("shards", SHARDS)
def test_subquery_write(shards):
    pair = Pair(shards)
    theirs, ours = pair.both(SUBQUERY_UPDATE)
    assert theirs.result.rowcount == 1
    if shards == 1:
        assert ours.result.rowcount == 1
    else:
        # On the owner the subquery would see one partition; broadcast,
        # each shard sees its own: refused instead of answered wrongly.
        assert isinstance(ours, ConfigError), ours
    theirs, ours = pair.both("SELECT age FROM users WHERE id = 4")
    assert theirs.rows == [(99,)]
    assert ours.rows == ([(99,)] if shards == 1 else [(25,)])


def _denial_reason(outcome):
    assert isinstance(outcome, AccessDenied), outcome
    return outcome.reason


@pytest.mark.parametrize("shards", SHARDS)
def test_result_limit_alike(shards):
    pair = Pair(shards, max_result_rows=3)
    denied = 0
    for sql in STATEMENTS:
        theirs, ours = pair.both(sql)
        if isinstance(theirs, AccessDenied):
            assert _denial_reason(theirs) == "result_limit"
            assert _denial_reason(ours) == "result_limit", sql
            denied += 1
        else:
            assert_same(pair, sql, ours, theirs)
    assert denied > 10
    assert pair.cluster.guard.stats.denied == pair.single.guard.stats.denied


@pytest.mark.parametrize("shards", SHARDS)
def test_quota_alike(shards):
    quota = 12  # the loader spends 6 statements of it
    pair = Pair(shards, account_policy=AccountPolicy(daily_query_quota=quota))
    for sql in STATEMENTS[: quota - 6]:
        theirs, ours = pair.both(sql)
        assert_same(pair, sql, ours, theirs)
    for sql in (STATEMENTS[0], SUBQUERY_SELECT):
        theirs, ours = pair.both(sql)
        assert _denial_reason(theirs) == "query_quota"
        assert _denial_reason(ours) == "query_quota"


@pytest.mark.parametrize("shards", SHARDS)
def test_past_deadline_alike(shards):
    pair = Pair(shards)
    for sql in STATEMENTS:
        theirs, ours = pair.both(sql, deadline_at=0.0)
        assert _denial_reason(theirs) == "deadline_exceeded"
        assert _denial_reason(ours) == "deadline_exceeded", sql
    stats = (pair.single.guard.stats, pair.cluster.guard.stats)
    assert stats[0].deadline_aborts == stats[1].deadline_aborts
    assert pair.cluster.router.popularity.total_requests == 0
