"""The SQLite proxy and the native guard price one config alike.

Both front doors build their count store and delay policy from the
same :class:`~repro.core.GuardConfig`, so one statement sequence on the
same data must charge the same delay per statement under every policy.
"""

import sqlite3

import pytest

from repro.adapters import SQLiteDelayProxy
from repro.core import DelayGuard, GuardConfig, VirtualClock
from repro.engine import Database

ROWS = [(i, f"v{i}") for i in range(1, 41)]

#: (seconds to advance both clocks first, statement). A hot tuple is
#: read, updated five times a second apart, then read again — the
#: update-rate half of the policy only shows after the updates.
SEQUENCE = (
    [(0.0, "SELECT * FROM t WHERE id = 1")] * 3
    + [(0.0, "SELECT * FROM t WHERE id <= 5")]
    + [(1.0, "UPDATE t SET v = 'hot' WHERE id = 1")] * 5
    + [(0.0, "SELECT * FROM t WHERE id = 1")] * 2
    + [(0.5, "SELECT * FROM t WHERE id <= 5")]
    + [(0.0, "DELETE FROM t WHERE id = 40")]
    + [(0.0, "SELECT * FROM t WHERE id >= 30")] * 2
    + [(0.0, "SELECT * FROM t WHERE id <= 12")]
)


def _proxy(config, clock):
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    connection.executemany("INSERT INTO t VALUES (?, ?)", ROWS)
    connection.commit()
    return SQLiteDelayProxy(connection, config=config, clock=clock)


def _guard(config, clock):
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    database.insert_rows("t", ROWS)
    return DelayGuard(database, config=config, clock=clock)


@pytest.mark.parametrize("policy", GuardConfig._POLICIES)
@pytest.mark.parametrize("count_store", ["memory", "space_saving"])
def test_proxy_charges_what_the_native_guard_charges(policy, count_store):
    config = GuardConfig(
        policy=policy,
        cap=10.0,
        update_c=1000.0,
        fixed_delay=0.25,
        count_store=count_store,
        count_capacity=8,
    )
    proxy_clock, guard_clock = VirtualClock(), VirtualClock()
    proxy = _proxy(config, proxy_clock)
    guard = _guard(config, guard_clock)
    for advance, sql in SEQUENCE:
        proxy_clock.advance(advance)
        guard_clock.advance(advance)
        proxied = proxy.execute(sql, sleep=False)
        native = guard.execute(sql, sleep=False)
        assert proxied.rows == native.rows, sql
        assert proxied.rowids == native.result.rowids, sql
        assert proxied.delay == pytest.approx(native.delay, rel=1e-12), (
            policy,
            sql,
        )
    assert proxy.delay_for("t", 1) == pytest.approx(
        guard.delay_for("t", 1), rel=1e-12
    )


def test_both_prices_a_hot_updated_tuple_by_its_update_rate():
    config = GuardConfig(policy="both", cap=10.0, update_c=1000.0)
    proxy_clock, guard_clock = VirtualClock(), VirtualClock()
    proxy = _proxy(config, proxy_clock)
    guard = _guard(config, guard_clock)
    for _ in range(5):
        proxy_clock.advance(1.0)
        guard_clock.advance(1.0)
        proxy.execute("UPDATE t SET v = 'hot' WHERE id = 1")
        guard.execute("UPDATE t SET v = 'hot' WHERE id = 1")
    for _ in range(50):
        proxy.execute("SELECT * FROM t WHERE id = 1", sleep=False)
        guard.execute("SELECT * FROM t WHERE id = 1", sleep=False)
    assert guard.delay_for("t", 1) == 10.0
    assert proxy.delay_for("t", 1) == 10.0

