"""One front door: cluster queries run the single node's guard pipeline.

Every guard limit, trace, stage histogram and Table 5 timing bucket a
single node has must hold on a cluster too, because the router runs
the same :class:`~repro.core.pipeline.QueryPipeline` with only its
execute, price and record steps routed.
"""

import pytest

from repro.cluster import ClusterService
from repro.core import GuardConfig
from repro.core.errors import AccessDenied, ConfigError
from repro.service import DataProviderService

from .test_router import CONFIG, build_pair, load_fixture

LIMITED = dict(CONFIG, max_result_rows=5)


def load_rows(service, rows=50):
    service.query(None, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    values = ", ".join(f"({i}, 'v{i}')" for i in range(1, rows + 1))
    service.query(None, f"INSERT INTO t VALUES {values}")


class TestResultLimit:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_scatter_denied_like_single_node(self, shards):
        cluster = ClusterService(
            shard_count=shards, guard_config=GuardConfig(**LIMITED)
        )
        single = DataProviderService(guard_config=GuardConfig(**LIMITED))
        for service in (cluster, single):
            load_rows(service)
            with pytest.raises(AccessDenied) as denied:
                service.query(None, "SELECT * FROM t")
            assert denied.value.reason == "result_limit"
            assert service.guard.stats.denied == 1
        # Nothing was recorded anywhere: the caller got nothing.
        assert all(
            guard.popularity.total_requests == 0 for guard in cluster.guards
        )

    def test_under_limit_point_read_served(self):
        cluster = ClusterService(
            shard_count=2, guard_config=GuardConfig(**LIMITED)
        )
        load_rows(cluster)
        result = cluster.query(None, "SELECT * FROM t WHERE id = 3")
        assert result.rows == [(3, "v3")]
        assert cluster.router.single_shard_queries == 1


class TestObservability:
    def test_cluster_query_is_traced_stage_by_stage(self):
        cluster, _ = build_pair()
        load_fixture(cluster)
        scatter = cluster.query(None, "SELECT * FROM users WHERE team = 2")
        names = [span.name for span in scatter.trace.spans]
        assert names == [
            "parse", "execute", "account", "price", "record", "sleep",
        ]
        routed = cluster.query(None, "SELECT * FROM users WHERE id = 7")
        assert [span.name for span in routed.trace.spans] == names
        assert cluster.router.single_shard_queries == 1

    def test_stage_histograms_fed(self):
        cluster, _ = build_pair()
        load_fixture(cluster)
        cluster.query(None, "SELECT COUNT(*) FROM users")
        registry = cluster.obs.registry
        for stage in ("price", "record", "execute"):
            histogram = registry.get(f"guard_stage_{stage}_seconds")
            assert histogram is not None and histogram.count > 0, stage

    def test_accounting_seconds_counted(self):
        cluster, _ = build_pair()
        load_fixture(cluster)
        before = cluster.router.stats.accounting_seconds
        cluster.query(None, "SELECT * FROM users")
        stats = cluster.router.stats
        assert stats.accounting_seconds > before
        assert stats.overhead_fraction() > 0

    def test_shard_unavailable_counted_by_reason(self, tmp_path):
        cluster = ClusterService(
            shard_count=2,
            guard_config=GuardConfig(**CONFIG),
            data_dir=tmp_path,
            replication_factor=2,
        )
        try:
            load_rows(cluster, rows=10)
            cluster.monitor.ship_all()
            for member in cluster.groups[0].members:
                member.kill()
            cluster.monitor.probe()
            with pytest.raises(AccessDenied, match="shard"):
                cluster.query(None, "SELECT * FROM t")
            denied = cluster.obs.registry.get("guard_denied_total")
            assert denied.value(reason="shard_unavailable") == 1
            assert cluster.router.stats.denied == 1
        finally:
            cluster.close()


SUBQUERY_SELECT = (
    "SELECT * FROM users WHERE id = 7 AND team IN (SELECT id FROM teams)"
)
SUBQUERY_UPDATE = (
    "UPDATE users SET team = 9 WHERE id = 7 "
    "AND team IN (SELECT id FROM teams)"
)


def build_subquery_pair(shard_count):
    """20 users over 5 teams, the cluster next to a single node."""
    config = GuardConfig(**CONFIG)
    cluster = ClusterService(shard_count=shard_count, guard_config=config)
    single = DataProviderService(guard_config=GuardConfig(**CONFIG))
    statements = [
        "CREATE TABLE users (id INTEGER PRIMARY KEY, team INTEGER)",
        "CREATE TABLE teams (id INTEGER PRIMARY KEY, label TEXT)",
    ]
    statements += [
        f"INSERT INTO users VALUES ({i}, {i % 5})" for i in range(1, 21)
    ]
    statements += [
        f"INSERT INTO teams VALUES ({i}, 'team-{i}')" for i in range(5)
    ]
    for service in (cluster, single):
        for sql in statements:
            service.query(None, sql)
    return cluster, single


class TestSubqueryRouting:
    def test_key_proven_select_with_subquery_scatters(self):
        cluster, single = build_subquery_pair(4)
        ours = cluster.query(None, SUBQUERY_SELECT)
        theirs = single.query(None, SUBQUERY_SELECT)
        assert theirs.rows == [(7, 2)]
        assert ours.rows == theirs.rows
        assert len(ours.result.touched) == len(theirs.result.touched) == 6
        assert ours.delay == pytest.approx(theirs.delay, rel=1e-9)
        assert cluster.router.scatter_queries == 1
        assert cluster.router.single_shard_queries == 0

    def test_scalar_subquery_scatters(self):
        cluster, single = build_subquery_pair(4)
        sql = "SELECT id FROM users WHERE id = (SELECT MAX(id) FROM teams)"
        assert cluster.query(None, sql).rows == single.query(None, sql).rows
        assert cluster.router.single_shard_queries == 0

    @pytest.mark.parametrize(
        "sql",
        [
            SUBQUERY_UPDATE,
            "DELETE FROM users WHERE team IN (SELECT id FROM teams)",
        ],
    )
    def test_sharded_write_with_subquery_rejected(self, sql):
        cluster, _ = build_subquery_pair(4)
        with pytest.raises(ConfigError, match="subquery"):
            cluster.query(None, sql)
        rows = cluster.query(None, "SELECT * FROM users ORDER BY id").rows
        assert len(rows) == 20 and (7, 2) in rows
