"""The SQLite proxy holds the native guard's limits and refusals.

Two drifts from :class:`~repro.core.guard.DelayGuard`: subqueries must
be refused with a structured ``ConfigError`` (never a raw
``sqlite3.OperationalError``), and ``max_result_rows`` must deny an
over-limit SELECT before anything is priced, recorded or charged.
"""

import sqlite3

import pytest

from repro.adapters import SQLiteDelayProxy
from repro.core import (
    AccessDenied,
    AccountManager,
    AccountPolicy,
    GuardConfig,
    VirtualClock,
)
from repro.core.errors import ConfigError


@pytest.fixture
def conn():
    connection = sqlite3.connect(":memory:")
    connection.execute(
        "CREATE TABLE users (id INTEGER PRIMARY KEY, team INTEGER)"
    )
    connection.executemany(
        "INSERT INTO users VALUES (?, ?)",
        [(i, i % 5) for i in range(1, 21)],
    )
    connection.execute("CREATE TABLE teams (id INTEGER PRIMARY KEY)")
    connection.executemany(
        "INSERT INTO teams VALUES (?)", [(i,) for i in range(5)]
    )
    connection.commit()
    yield connection
    connection.close()


def make_proxy(conn, **config):
    clock = VirtualClock()
    return SQLiteDelayProxy(
        conn, config=GuardConfig(cap=5.0, **config), clock=clock
    ), clock


class TestSubqueriesRefused:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM users WHERE team IN (SELECT id FROM teams)",
            "SELECT * FROM users WHERE id = (SELECT MAX(id) FROM teams)",
            "SELECT * FROM users WHERE id = 7 "
            "AND team IN (SELECT id FROM teams)",
            "UPDATE users SET team = 9 WHERE team IN (SELECT id FROM teams)",
            "DELETE FROM users WHERE id IN (SELECT id FROM teams)",
        ],
    )
    def test_structured_refusal(self, conn, sql):
        proxy, clock = make_proxy(conn)
        with pytest.raises(ConfigError, match="subqueries"):
            proxy.execute(sql)
        assert proxy.popularity.total_requests == 0
        assert proxy.update_rates.total_updates == 0
        assert clock.total_slept == 0
        # Nothing reached SQLite.
        assert conn.execute(
            "SELECT COUNT(*) FROM users WHERE team = 9"
        ).fetchone() == (0,)
        assert conn.execute("SELECT COUNT(*) FROM users").fetchone() == (20,)


class TestResultLimit:
    def test_over_limit_denied_before_recording(self, conn):
        proxy, clock = make_proxy(conn, max_result_rows=3)
        with pytest.raises(AccessDenied) as denied:
            proxy.execute("SELECT * FROM users")
        assert denied.value.reason == "result_limit"
        assert proxy.popularity.total_requests == 0
        assert clock.total_slept == 0
        assert proxy.stats.denied == 1
        assert proxy.stats.selects == 0
        assert proxy.stats.queries == 1

    def test_at_limit_served(self, conn):
        proxy, _ = make_proxy(conn, max_result_rows=3)
        result = proxy.execute("SELECT * FROM users WHERE id <= 3")
        assert len(result.rows) == 3
        assert result.delay == pytest.approx(15.0)
        assert proxy.popularity.total_requests == 3

    def test_limit_counts_result_rows_not_touched_tuples(self, conn):
        """An aggregate returns one row: under the limit, still priced
        for every tuple it read — as in the native guard."""
        proxy, _ = make_proxy(conn, max_result_rows=3)
        result = proxy.execute("SELECT COUNT(*) FROM users")
        assert result.rows == [(20,)]
        assert result.delay == pytest.approx(100.0)

    def test_denial_does_not_charge_the_account(self, conn):
        clock = VirtualClock()
        accounts = AccountManager(
            policy=AccountPolicy(daily_query_quota=100), clock=clock
        )
        proxy = SQLiteDelayProxy(
            conn,
            config=GuardConfig(cap=1.0, max_result_rows=3),
            clock=clock,
            accounts=accounts,
        )
        accounts.register("u")
        with pytest.raises(AccessDenied, match="result_limit"):
            proxy.execute("SELECT * FROM users", identity="u")
        assert accounts.accounts["u"].tuples_retrieved == 0


class TestBatchedAccounting:
    def test_batch_price_matches_per_key_price(self, conn):
        proxy, _ = make_proxy(conn)
        for _ in range(3):
            proxy.execute("SELECT * FROM users WHERE id <= 4")
        keys = [("users", rowid) for rowid in range(1, 11)]
        expected = sum(proxy.policy.delay_for(key) for key in keys)
        result = proxy.execute("SELECT * FROM users WHERE id <= 10")
        assert result.delay == pytest.approx(expected, rel=1e-12)
