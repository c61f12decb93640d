"""Scatter-gather statement routing with one globally-priced delay.

The router is the cluster's single front door. It is a
:class:`~repro.core.guard.FrontDoor`: every statement runs the same
:class:`~repro.core.pipeline.QueryPipeline` a single node runs —
admit, parse, authorize, account (including ``max_result_rows``),
deadlines, stats, forensics, tracing and audit are shared, so every
guard limit holds on a cluster exactly as on one node. Only the three
data-plane steps are the cluster's own:

- **execute** routes by statement kind (below);
- **price** uses the owner shard's policy for a single-shard SELECT and
  the first live shard's gossip-merged policy for a scatter — one
  delay per query, priced from the global view, served once (summing
  M per-shard prices against M under-counted views is exactly the
  vulnerability sharding introduces);
- **record** counts each served key at its owning shard (a live peer
  if the owner is down), so the owners stay the authoritative count
  holders and gossip carries the increments to every peer. Writes
  record their update rates at the shards that applied them.

Routing by statement kind:

- **DDL** (CREATE/DROP/EXPLAIN targets) broadcasts to every shard —
  all shards hold the full schema, so any shard can answer any
  statement about its own partition.
- **INSERT** splits its VALUES rows by partition-key hash and
  re-renders each shard's subset as SQL text (shards journal DML as
  source text).
- **UPDATE/DELETE** routes to the owning shard when the WHERE clause
  proves a partition key, otherwise broadcasts — partitions are
  disjoint, so the broadcast touches each affected row exactly once.
  A subquery in the WHERE clause is rejected: it would read only the
  executing shard's partition.
- **SELECT** runs on the owner's engine when a partition-key equality
  proves one owner and no subquery needs other partitions. Anything
  else — scans, joins, aggregates, subqueries — executes against a
  merged read-only engine built from every shard's rows under their
  read locks (cached per cluster-wide mutation-epoch vector).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.accounts import AccountManager
from ..core.clock import Clock
from ..core.config import GuardConfig
from ..core.delay_policy import DelayPolicy
from ..core.errors import AccessDenied, ConfigError, ShardUnavailable
from ..core.guard import FrontDoor, GuardedResult
from ..core.pipeline import QueryContext, QueryPipeline
from ..engine.database import Database
from ..engine.errors import EngineError
from ..engine.executor import ResultSet
from ..engine.expr import Literal, Negate, contains_subquery
from ..engine.parser.ast import (
    DeleteStatement,
    InsertStatement,
    SelectStatement,
    TransactionStatement,
    UpdateStatement,
)
# Parsing runs in the pipeline's parse stage; the binding stays here
# because perfbench/spans.py patches ``parse_cached`` on this module.
from ..engine.parser.parser import parse_cached  # noqa: F401
from ..obs import Observability
from .sharding import ShardMap, pk_values_from_where, render_insert_sql

Key = Tuple[str, int]


def _as_literal(value) -> Literal:
    """One VALUES entry of a sharded INSERT, as a literal.

    The parser reads a signed number as ``Negate(Literal)``; that is
    still a literal and folds to one. Anything else must already be a
    :class:`Literal` — placement needs the partition-key value before
    any shard evaluates the row.
    """
    if isinstance(value, Negate) and isinstance(value.operand, Literal):
        number = value.operand.value
        if isinstance(number, (int, float)) and not isinstance(number, bool):
            return Literal(-number)
    if not isinstance(value, Literal):
        raise ConfigError("sharded INSERT rows must be literal values")
    return value


class ClusterRouter(FrontDoor):
    """Routes statements across shards; prices one global delay.

    Args:
        shards: the shard services, in shard-index order (shard ``i``
            allocates rowids ≡ ``i + 1 (mod M)``).
        shard_map: the cluster's partitioning scheme.
        config: the cluster-wide guard configuration — pricing mode,
            cap, limits, forensics thresholds. Shard guards run with
            forensics off; the router runs the cluster-wide monitor
            over the global population so spray-across-shards coverage
            is visible in one place.
        clock: the shared cluster clock (delays are served here).
        population: zero-argument callable returning the global tuple
            count.
        accounts: the shared account manager (per-identity budgets are
            global, not per-shard).
        obs: the router's observability bundle: query traces, stage
            histograms and audit events for every cluster query.
    """

    def __init__(
        self,
        shards: Sequence,
        shard_map: ShardMap,
        config: GuardConfig,
        clock: Clock,
        population,
        accounts: Optional[AccountManager] = None,
        obs: Optional[Observability] = None,
    ):
        super().__init__(
            config,
            clock,
            accounts,
            obs if obs is not None else Observability.disabled(),
            population,
        )
        self.shards = list(shards)
        self.shard_map = shard_map
        self.population = population
        self._merged_lock = threading.Lock()
        self._merged_cache: Optional[Tuple[tuple, Database]] = None
        #: routing counters for cluster health.
        self.single_shard_queries = 0
        self.scatter_queries = 0
        self.broadcast_statements = 0
        #: degraded-mode counters (replica groups down, shard errors).
        self.shard_failures = 0
        self.unavailable_denials = 0
        self.partial_scatter_queries = 0
        if self.obs.enabled:
            self._register_metrics()
        self.pipeline = QueryPipeline(self)

    # -- shard availability --------------------------------------------------

    def _is_available(self, index: int) -> bool:
        return getattr(self.shards[index], "available", True)

    def _available_indexes(self) -> List[int]:
        return [
            index
            for index in range(len(self.shards))
            if self._is_available(index)
        ]

    def _note_unavailable(self) -> None:
        self.stats.note_denied()
        if self.obs.enabled:
            self._m_denied.inc(reason="shard_unavailable")

    def _deny_unavailable(self, indexes: Sequence[int]) -> ShardUnavailable:
        """Build (and account) the structured degraded-mode denial."""
        retry_after = max(
            (
                getattr(self.shards[index], "retry_after", 0.0)
                for index in indexes
            ),
            default=0.0,
        )
        self.unavailable_denials += 1
        self._note_unavailable()
        self._emit_audit(
            "cluster_shard_unavailable", shards=sorted(indexes)
        )
        return ShardUnavailable(indexes, retry_after=retry_after)

    def _require_shards(self, indexes: Sequence[int]) -> None:
        down = [i for i in indexes if not self._is_available(i)]
        if down:
            raise self._deny_unavailable(down)

    def _shard(self, index: int):
        """Shard ``index``, or the structured denial when it is down."""
        self._require_shards([index])
        return self.shards[index]

    def _reference_shard(self):
        """Any live shard (schema is replicated everywhere): used for
        catalog lookups and coordinator-side pricing."""
        for index in range(len(self.shards)):
            if self._is_available(index):
                return self.shards[index]
        raise self._deny_unavailable(list(range(len(self.shards))))

    # -- the front door ------------------------------------------------------

    def execute(
        self,
        sql_or_statement: Union[str, object],
        identity: Optional[str] = None,
        record: bool = True,
        sleep: bool = True,
        deadline_at: Optional[float] = None,
        partial_results: bool = False,
    ) -> GuardedResult:
        """Run one statement through the pipeline; serve its one delay.

        Same contract as :meth:`repro.core.guard.DelayGuard.execute`.
        ``partial_results`` opts a scatter SELECT into degraded-mode
        serving: with one or more replica groups down it answers from
        the live shards and attaches per-shard coverage metadata to
        the result instead of failing closed — never silently partial.
        """
        return self._serve(
            QueryContext(
                sql_or_statement=sql_or_statement,
                identity=identity,
                record=record,
                sleep=sleep,
                deadline_at=deadline_at,
                partial_results=partial_results,
            )
        )

    # -- the data plane ------------------------------------------------------

    def run_statement(self, ctx: QueryContext) -> ResultSet:
        """Route the statement (see the module docstring)."""
        statement = ctx.statement
        if isinstance(statement, SelectStatement):
            return self._execute_select(ctx)
        if isinstance(statement, TransactionStatement):
            raise ConfigError(
                "explicit transactions are not supported through the "
                "cluster router (statements are atomic per shard)"
            )
        source = ctx.sql_or_statement
        if not isinstance(source, str):
            source = None
        if isinstance(statement, InsertStatement):
            return self._execute_insert(statement, source)
        if isinstance(statement, (UpdateStatement, DeleteStatement)):
            return self._execute_dml(statement, source)
        return self._broadcast(statement, source)

    def pricing_policy(self, ctx: QueryContext) -> DelayPolicy:
        """The owner's policy for a routed read, else the first live
        shard's: every shard converges on the same global view."""
        if ctx.route is not None:
            return self._shard(ctx.route).guard.policy
        return self._reference_shard().guard.policy

    def record_reads(self, keys: List[Key]) -> None:
        """Record served keys into each owner's tracker.

        Owners stay the authoritative holders of their partition's
        counts — gossip then carries these increments to every peer.
        """
        by_owner: Dict[int, List[Key]] = {}
        for key in keys:
            owner = self.shard_map.owner_of_rowid(key[1])
            by_owner.setdefault(owner, []).append(key)
        for owner, owned in by_owner.items():
            if not self._is_available(owner):
                # Partial-mode reads never return a down owner's rows;
                # this is pure defence-in-depth. Recording at a live
                # peer keeps the mass in the global view — gossip
                # carries it onward, never understating.
                self._reference_shard().guard.popularity.record_many(owned)
                continue
            self.shards[owner].guard.popularity.record_many(owned)

    def record_writes(self, result: ResultSet) -> None:
        """Nothing to do: each shard that applied the write recorded
        its own update rates in its own pipeline."""

    # -- writes and DDL ------------------------------------------------------

    def _shard_execute(
        self, index: int, statement, source, completed: Optional[List[int]] = None
    ) -> ResultSet:
        """Run one statement on one shard's guard (no sleep, no price).

        Failure taxonomy: semantic errors (the engine parsing or
        rejecting the statement, a guard denial) propagate unchanged —
        the shard answered, deterministically. An *infrastructure*
        failure (the shard process/group blowing up mid-statement) is
        mapped into the structured ``shard_unavailable`` denial, with
        the partial outcome — which shards had already applied the
        statement — recorded in routing stats and the audit log rather
        than silently discarded.
        """
        guard = self._shard(index).guard
        try:
            guarded = guard.execute(
                source if source is not None else statement,
                record=False,
                sleep=False,
            )
        except (EngineError, AccessDenied, ConfigError):
            raise
        except Exception as error:
            self.shard_failures += 1
            self._note_unavailable()
            self._emit_audit(
                "cluster_shard_failure",
                shard=index,
                error=repr(error),
                completed_shards=list(completed or []),
            )
            raise ShardUnavailable(
                [index],
                retry_after=getattr(self.shards[index], "retry_after", 0.0),
            ) from error
        return guarded.result

    def _broadcast(self, statement, source) -> ResultSet:
        """DDL fan-out: every shard applies the same statement."""
        self.broadcast_statements += 1
        self._require_shards(range(len(self.shards)))
        result = None
        completed: List[int] = []
        for index in range(len(self.shards)):
            result = self._shard_execute(index, statement, source, completed)
            completed.append(index)
        self._emit_audit(
            "cluster_broadcast",
            shards=list(range(len(self.shards))),
            kind=type(statement).__name__,
        )
        return result if result is not None else ResultSet(
            statement_kind="ddl"
        )

    def _execute_insert(
        self, statement: InsertStatement, source
    ) -> ResultSet:
        """Split VALUES rows by partition key; re-render per shard."""
        if self.shard_map.shard_count == 1:
            return self._shard_execute(0, statement, source)
        schema = self._reference_shard().database.catalog.table(
            statement.table
        ).schema
        pk = schema.primary_key
        if pk is None:
            raise ConfigError(
                f"sharded INSERT into {statement.table!r} requires a "
                "primary key to place rows"
            )
        if statement.columns:
            names = [name.lower() for name in statement.columns]
            if pk.lower() not in names:
                raise ConfigError(
                    f"sharded INSERT into {statement.table!r} must "
                    f"list the partition key column {pk!r}"
                )
            pk_position = names.index(pk.lower())
        else:
            pk_position = schema.position(pk)
        rows = [
            tuple(_as_literal(value) for value in row)
            for row in statement.rows
        ]
        placed: List[List[Tuple[Literal, ...]]] = [
            [] for _ in range(self.shard_map.shard_count)
        ]
        for row in rows:
            shard = self.shard_map.shard_for(
                statement.table, row[pk_position].value
            )
            placed[shard].append(row)
        total = 0
        touched_shards = []
        self._require_shards(
            [index for index, rows in enumerate(placed) if rows]
        )
        for index, rows in enumerate(placed):
            if not rows:
                continue
            sql = render_insert_sql(
                statement.table, statement.columns, rows
            )
            result = self._shard_execute(index, None, sql, touched_shards)
            total += result.rowcount
            touched_shards.append(index)
        self._emit_audit(
            "cluster_insert",
            shards=touched_shards,
            table=statement.table,
            rows=total,
        )
        return ResultSet(
            table=statement.table, rowcount=total, statement_kind="insert"
        )

    def _execute_dml(self, statement, source) -> ResultSet:
        """UPDATE/DELETE: owner when the key is proven, else broadcast."""
        if self.shard_map.shard_count > 1 and contains_subquery(
            statement.where
        ):
            # On the owner the subquery sees one partition; broadcast,
            # each shard sees its own. Either answer is wrong.
            kind = "UPDATE" if isinstance(statement, UpdateStatement) else "DELETE"
            raise ConfigError(
                f"sharded {kind} on {statement.table!r} cannot use a "
                "subquery in WHERE"
            )
        schema = self._reference_shard().database.catalog.table(
            statement.table
        ).schema
        values = pk_values_from_where(
            statement.where, schema.primary_key, statement.table
        )
        if values is not None:
            owners = {
                self.shard_map.shard_for(statement.table, value)
                for value in values
            }
            if len(owners) == 1:
                owner = owners.pop()
                result = self._shard_execute(owner, statement, source)
                self._emit_audit(
                    "cluster_dml",
                    shards=[owner],
                    table=statement.table,
                    rowcount=result.rowcount,
                )
                return result
        self.broadcast_statements += 1
        self._require_shards(range(len(self.shards)))
        total = 0
        rowids: List[int] = []
        completed: List[int] = []
        for index in range(len(self.shards)):
            result = self._shard_execute(index, statement, source, completed)
            completed.append(index)
            total += result.rowcount
            rowids.extend(result.rowids)
        self._emit_audit(
            "cluster_dml",
            shards=list(range(len(self.shards))),
            table=statement.table,
            rowcount=total,
        )
        return ResultSet(
            table=statement.table,
            rowcount=total,
            rowids=rowids,
            statement_kind=result.statement_kind,
        )

    # -- reads ---------------------------------------------------------------

    def _execute_select(self, ctx: QueryContext) -> ResultSet:
        statement = ctx.statement
        single = self._single_shard_for(statement)
        if single is not None:
            result = self._shard(single).database.execute(
                statement, tracked=True
            )
            self.single_shard_queries += 1
            ctx.route = single
            return result
        self.scatter_queries += 1
        answering = self._available_indexes()
        missing = sorted(set(range(len(self.shards))) - set(answering))
        if missing and not ctx.partial_results:
            # Fail closed: a silently partial scan would both hide rows
            # and under-price the touched-set.
            raise self._deny_unavailable(missing)
        if missing:
            self.partial_scatter_queries += 1
            ctx.coverage = {
                "partial": True,
                "shards_total": len(self.shards),
                "shards_answered": answering,
                "shards_missing": missing,
            }
        merged = self._merged_database(tuple(answering))
        return merged.execute(statement, tracked=True)

    def _single_shard_for(
        self, statement: SelectStatement
    ) -> Optional[int]:
        """The one shard that can answer this SELECT alone, if proven.

        A subquery reads its own tables, which a single shard holds
        only one partition of, so any subquery forces a scatter.
        """
        if (
            statement.joins
            or contains_subquery(statement.where)
            or contains_subquery(statement.having)
        ):
            return None
        catalog = self._reference_shard().database.catalog
        if not catalog.has_table(statement.table):
            return None
        schema = catalog.table(statement.table).schema
        values = pk_values_from_where(
            statement.where,
            schema.primary_key,
            statement.table,
            statement.table_alias,
        )
        if not values:
            return None
        owners = {
            self.shard_map.shard_for(statement.table, value)
            for value in values
        }
        if len(owners) == 1:
            return owners.pop()
        return None

    # -- the merged read view ------------------------------------------------

    def _merged_database(
        self, indexes: Optional[Tuple[int, ...]] = None
    ) -> Database:
        """A read-only engine holding every shard's rows, global rowids.

        Cached on (participating shards, their mutation-epoch vector):
        any committed mutation on any included shard invalidates it
        (the epoch moves), so a served scatter-read is always against a
        consistent cut no older than the last commit; a degraded merge
        over fewer shards never aliases the full one. Rows keep their
        global rowids via ``restore``, so the merged touched-set prices
        and records against exactly the same keys the owners track.
        """
        if indexes is None:
            indexes = tuple(range(len(self.shards)))
        participants = [self.shards[index] for index in indexes]
        epochs = (
            indexes,
            tuple(
                shard.database.mutation_epoch for shard in participants
            ),
        )
        with self._merged_lock:
            cached = self._merged_cache
            if cached is not None and cached[0] == epochs:
                return cached[1]
        merged = Database()
        for shard in participants:
            with shard.database.read_view():
                catalog = shard.database.catalog
                for name in catalog.table_names():
                    heap = catalog.table(name)
                    if not merged.catalog.has_table(name):
                        merged.catalog.create_table(heap.schema)
                    target = merged.catalog.table(name)
                    for rowid, row in heap.scan():
                        target.restore(rowid, row)
        with self._merged_lock:
            self._merged_cache = (epochs, merged)
        return merged

    # -- observability -------------------------------------------------------

    def _emit_audit(self, event: str, **fields) -> None:
        audit = self.obs.audit
        if audit is not None:
            audit.emit(event, **fields)

    def routing_stats(self) -> Dict:
        """Routing counters for cluster health."""
        return {
            "single_shard_queries": self.single_shard_queries,
            "scatter_queries": self.scatter_queries,
            "broadcast_statements": self.broadcast_statements,
            "shard_failures": self.shard_failures,
            "unavailable_denials": self.unavailable_denials,
            "partial_scatter_queries": self.partial_scatter_queries,
        }

    # -- cluster-wide read-only reports --------------------------------------

    def _live_guards(self) -> List:
        return [self.shards[index].guard for index in self._available_indexes()]

    @property
    def popularity(self):
        """A live shard's gossip-merged popularity view."""
        return self._reference_shard().guard.popularity

    def extraction_cost(self, table: Optional[str] = None) -> float:
        """Global extraction cost: the sum over every shard's tuples.

        Each shard prices its own partition against the merged trackers
        and the global N, so the sum equals the single-node figure up
        to gossip staleness. Down replica groups are skipped — their
        partitions are unreadable, so the figure is a lower bound while
        degraded (the health view flags the missing groups).
        """
        return sum(guard.extraction_cost(table) for guard in self._live_guards())

    def max_extraction_cost(self, table: Optional[str] = None) -> float:
        if self.config.cap is None:
            raise ConfigError("max_extraction_cost requires a delay cap")
        if table is None:
            return self.population() * self.config.cap
        total = 0
        for index in self._available_indexes():
            database = self.shards[index].database
            with database.read_view():
                total += len(database.catalog.table(table))
        return total * self.config.cap

    def staleness_report(self) -> Dict[str, Dict]:
        """Per-table staleness, merged across shards.

        Extraction horizons, update rates, and populations add; the
        stale fraction is the population-weighted mean (it is an
        expected count divided by a population, and both sum).
        """
        merged: Dict[str, Dict] = {}
        for guard in self._live_guards():
            for table, entry in guard.staleness_report().items():
                slot = merged.setdefault(
                    table,
                    {
                        "population": 0,
                        "extraction_seconds": 0.0,
                        "update_rate_per_second": 0.0,
                        "updated_keys": 0,
                        "_expected_stale": 0.0,
                    },
                )
                slot["population"] += entry["population"]
                slot["extraction_seconds"] += entry["extraction_seconds"]
                slot["update_rate_per_second"] += entry[
                    "update_rate_per_second"
                ]
                slot["updated_keys"] += entry["updated_keys"]
                slot["_expected_stale"] += (
                    entry["smax_fraction"] * entry["population"]
                )
        for slot in merged.values():
            slot["smax_fraction"] = slot.pop("_expected_stale") / max(
                slot["population"], 1
            )
        return merged

    def refresh_staleness_gauges(self) -> Dict[str, Dict]:
        """The server's health op calls this; clusters just report.

        Shard guards run with observability disabled, so there are no
        per-shard gauges to pump — the merged report is the product.
        """
        return self.staleness_report()
