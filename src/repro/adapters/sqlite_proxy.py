"""The delay defense as a proxy over SQLite.

:class:`SQLiteDelayProxy` gives a real ``sqlite3`` database the paper's
front door: every SELECT is charged per returned tuple by popularity,
updates feed the update-rate tracker, and the §2.4 account limits apply
— all without touching the underlying schema (no count column is added;
counts live in the proxy, exactly as §2.3/§4.4 recommend via external
count storage).

How accounting works: the incoming SQL is parsed with this library's
own parser (so only its SQL subset is accepted — a real deployment
would fail closed on statements it cannot attribute). For a SELECT, the
proxy runs a companion query ``SELECT rowid FROM <table> [WHERE ...]
[ORDER BY ...] [LIMIT ...]`` to learn exactly which rows the user's
query touches, charges and records them, then runs the user's original
query for the results. DML statements likewise resolve their affected
rowids first. ``max_result_rows`` denies an over-limit SELECT with
``result_limit`` before anything is priced, recorded or charged, as
the native guard's account stage does.

Joins, GROUP BY and subqueries are rejected by the proxy with a
:class:`~repro.core.errors.ConfigError` (attribution through SQLite
would need rowid plumbing per table); the native engine guard supports
them.
"""

from __future__ import annotations

import sqlite3
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..core.accounts import AccountManager
from ..core.clock import Clock, VirtualClock
from ..core.config import GuardConfig
from ..core.errors import AccessDenied, ConfigError
from ..core.guard import GuardStats, build_count_store, build_delay_policy
from ..core.popularity import PopularityTracker
from ..core.update_tracker import UpdateRateTracker
from ..engine.expr import contains_subquery
from ..engine.parser.ast import (
    DeleteStatement,
    InsertStatement,
    SelectStatement,
    UpdateStatement,
)
from ..engine.parser.parser import parse_cached


@dataclass
class ProxyResult:
    """Result of a proxied statement."""

    rows: List[Tuple] = field(default_factory=list)
    columns: List[str] = field(default_factory=list)
    delay: float = 0.0
    rowids: List[int] = field(default_factory=list)
    rowcount: int = 0
    statement_kind: str = "select"


class SQLiteDelayProxy:
    """Wraps a ``sqlite3.Connection`` with the delay defense.

    Args:
        connection: an open sqlite3 connection (the proxy does not own
            it; close it yourself).
        config: guard configuration (same knobs as the native guard).
        clock: time source; virtual by default.
        accounts: optional §2.4 account manager.

    >>> import sqlite3
    >>> conn = sqlite3.connect(":memory:")
    >>> _ = conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    >>> _ = conn.execute("INSERT INTO t VALUES (1, 'x')")
    >>> proxy = SQLiteDelayProxy(conn, config=GuardConfig(cap=3.0))
    >>> result = proxy.execute("SELECT * FROM t WHERE id = 1")
    >>> (result.rows, result.delay)
    ([(1, 'x')], 3.0)
    """

    def __init__(
        self,
        connection: sqlite3.Connection,
        config: Optional[GuardConfig] = None,
        clock: Optional[Clock] = None,
        accounts: Optional[AccountManager] = None,
    ):
        self.connection = connection
        self.config = (config if config is not None else GuardConfig()).validate()
        self.clock = clock if clock is not None else VirtualClock()
        self.accounts = accounts
        self.stats = GuardStats()
        self.popularity = PopularityTracker(
            store=build_count_store(self.config),
            decay_rate=self.config.decay_rate,
        )
        self.update_rates = UpdateRateTracker(
            clock=self.clock,
            time_constant=self.config.update_time_constant,
        )
        self.last_update_times = {}
        self.policy = build_delay_policy(
            self.config, self.popularity, self.update_rates, self.population
        )

    def population(self) -> int:
        """Total rows across all user tables in the SQLite database."""
        total = 0
        names = self.connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' "
            "AND name NOT LIKE 'sqlite_%'"
        ).fetchall()
        for (name,) in names:
            count = self.connection.execute(
                f'SELECT COUNT(*) FROM "{name}"'
            ).fetchone()
            total += count[0]
        return max(total, 1)

    # -- statement handling ----------------------------------------------------

    @staticmethod
    def _where_sql(statement) -> str:
        return f" WHERE {statement.where}" if statement.where else ""

    @staticmethod
    def _tail_sql(statement: SelectStatement) -> str:
        parts = []
        if statement.order_by:
            keys = ", ".join(
                f"{item.expression}{' DESC' if item.descending else ''}"
                for item in statement.order_by
            )
            parts.append(f" ORDER BY {keys}")
        if statement.limit is not None:
            parts.append(f" LIMIT {statement.limit}")
            if statement.offset is not None:
                parts.append(f" OFFSET {statement.offset}")
        return "".join(parts)

    def _rowids_for_select(self, statement: SelectStatement) -> List[int]:
        has_aggregate = any(item.aggregate for item in statement.items)
        sql = (
            f'SELECT rowid FROM "{statement.table}"'
            + self._where_sql(statement)
        )
        if not has_aggregate:
            sql += self._tail_sql(statement)
        return [row[0] for row in self.connection.execute(sql)]

    def _rowids_for_dml(self, statement) -> List[int]:
        sql = (
            f'SELECT rowid FROM "{statement.table}"'
            + self._where_sql(statement)
        )
        return [row[0] for row in self.connection.execute(sql)]

    def execute(
        self,
        sql: str,
        identity: Optional[str] = None,
        record: bool = True,
        sleep: bool = True,
    ) -> ProxyResult:
        """Proxy one statement through the defense to SQLite.

        Raises :class:`~repro.engine.errors.ParseError` for SQL outside
        the supported subset,
        :class:`~repro.core.errors.ConfigError` for attributable-but-
        unsupported shapes (joins, GROUP BY, subqueries), and
        :class:`~repro.core.errors.AccessDenied` (``result_limit``) for
        a SELECT returning more than ``max_result_rows`` rows.
        """
        accounting_start = time.perf_counter()
        if self.accounts is not None:
            if identity is None:
                raise ConfigError(
                    "this proxy requires an identity for every query"
                )
            try:
                self.accounts.authorize_query(identity)
            except Exception:
                self.stats.note_denied()
                raise
        statement = parse_cached(sql)
        if isinstance(statement, SelectStatement):
            if statement.joins or statement.group_by:
                raise ConfigError(
                    "the SQLite proxy cannot attribute joins or GROUP BY; "
                    "use the native engine guard for those"
                )
        if contains_subquery(
            getattr(statement, "where", None)
        ) or contains_subquery(getattr(statement, "having", None)):
            raise ConfigError(
                "the SQLite proxy cannot attribute subqueries; "
                "use the native engine guard for those"
            )
        accounting = time.perf_counter() - accounting_start

        if isinstance(statement, SelectStatement):
            return self._execute_select(
                statement, sql, identity, record, sleep, accounting
            )
        if isinstance(statement, (InsertStatement, UpdateStatement,
                                  DeleteStatement)):
            return self._execute_dml(statement, sql, accounting)
        # DDL and transaction control pass straight through.
        engine_start = time.perf_counter()
        self.connection.execute(sql)
        self.connection.commit()
        self.stats.note_query(
            0.0, time.perf_counter() - engine_start, accounting
        )
        return ProxyResult(statement_kind="ddl")

    def _execute_select(
        self, statement, sql, identity, record, sleep, accounting
    ) -> ProxyResult:
        engine_start = time.perf_counter()
        cursor = self.connection.execute(sql)
        rows = cursor.fetchall()
        engine_elapsed = time.perf_counter() - engine_start

        accounting_start = time.perf_counter()
        limit = self.config.max_result_rows
        if limit is not None and len(rows) > limit:
            # §1.1's strawman result-size limit: the engine has read the
            # rows, but nothing is priced, recorded or charged.
            self.stats.note_denied()
            accounting += time.perf_counter() - accounting_start
            self.stats.note_query(0.0, engine_elapsed, accounting)
            raise AccessDenied("result_limit")
        table_key = statement.table.lower()
        rowids = self._rowids_for_select(statement)
        keys = [(table_key, rowid) for rowid in rowids]
        per_tuple = self.policy.delays_for(keys)
        delay = (
            sum(per_tuple)
            if self.config.charge_returned_tuples
            else max(per_tuple, default=0.0)
        )
        if record and self.config.record_accesses:
            self.popularity.record_many(keys)
        if self.accounts is not None and identity is not None:
            self.accounts.record_retrieval(identity, len(keys))
        accounting += time.perf_counter() - accounting_start

        self.stats.note_select(delay, len(keys))
        self.stats.note_query(delay, engine_elapsed, accounting)
        if delay > 0 and sleep:
            self.clock.sleep(delay)
        return ProxyResult(
            rows=rows,
            columns=[desc[0] for desc in cursor.description or []],
            delay=delay,
            rowids=rowids,
            rowcount=len(rows),
            statement_kind="select",
        )

    def _execute_dml(self, statement, sql, accounting) -> ProxyResult:
        accounting_start = time.perf_counter()
        table_key = statement.table.lower()
        if isinstance(statement, InsertStatement):
            affected_before: List[int] = []
        else:
            affected_before = self._rowids_for_dml(statement)
        accounting += time.perf_counter() - accounting_start

        engine_start = time.perf_counter()
        cursor = self.connection.execute(sql)
        self.connection.commit()
        engine_elapsed = time.perf_counter() - engine_start

        accounting_start = time.perf_counter()
        if isinstance(statement, InsertStatement):
            last = cursor.lastrowid or 0
            count = cursor.rowcount if cursor.rowcount > 0 else 1
            rowids = list(range(last - count + 1, last + 1))
        else:
            rowids = affected_before
        if self.config.record_updates:
            now = self.clock.now()
            for rowid in rowids:
                key = (table_key, rowid)
                self.update_rates.record_update(key)
                self.last_update_times[key] = now
        accounting += time.perf_counter() - accounting_start

        kind = type(statement).__name__.replace("Statement", "").lower()
        self.stats.note_query(0.0, engine_elapsed, accounting)
        return ProxyResult(
            rowids=rowids,
            rowcount=len(rowids),
            statement_kind=kind,
        )

    # -- analysis --------------------------------------------------------------

    def delay_for(self, table: str, rowid: int) -> float:
        """Current delay for one tuple."""
        return self.policy.delay_for((table.lower(), rowid))

    def extraction_cost(self, table: str) -> float:
        """Total delay to extract ``table`` under current counts."""
        rowids = [
            row[0]
            for row in self.connection.execute(
                f'SELECT rowid FROM "{table}"'
            )
        ]
        key = table.lower()
        return sum(self.policy.delays_for([(key, rowid) for rowid in rowids]))
