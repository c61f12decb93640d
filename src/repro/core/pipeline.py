"""The guard lifecycle as an explicit staged pipeline.

Historically the whole query lifecycle lived in one ~250-line
``DelayGuard._serve`` method, and the server wrapped every call in a
global statement lock. This module decomposes the lifecycle into small
stage objects run in a fixed order:

    admit → parse → authorize → cache → execute → cache_store
          → account → price → record → forensics → sleep

Each stage owns one concern, times itself (a trace span plus a
``guard_stage_<name>_seconds`` histogram when observability is on), and
declares which Table 5 cost bucket its time lands in: *parse* and
*execute* feed ``engine_seconds``, the accounting stages feed
``accounting_seconds``, and *sleep* is the product, charged to neither.

Every front door runs this one pipeline: a single node's
:class:`~repro.core.guard.DelayGuard` and a cluster's
:class:`~repro.cluster.router.ClusterRouter` differ only in the three
data-plane steps the guard supplies — ``run_statement`` (execute),
``pricing_policy`` (price) and ``record_reads``/``record_writes``
(record). Admission, accounts, limits, deadlines, stats, forensics,
tracing and audit are shared, so a guard limit holds in every shape.

Concurrency: no stage holds the engine lock except *execute*, which
delegates to :meth:`repro.engine.database.Database.execute` — the engine
takes its own read/write lock there (shared for SELECT/EXPLAIN,
exclusive for DML/DDL). Everything else synchronises on the component
it touches (tracker locks, the account manager's lock, the guard's
update-times lock), so concurrent queries overlap everywhere except
inside conflicting engine statements. *price* reads each tuple's counts
through the policy's :meth:`~repro.core.delay_policy.DelayPolicy.delays_for`,
which resolves the whole key list against one consistent tracker
snapshot instead of re-locking per tuple.

Denial taxonomy: every refusal is a structured
:class:`~repro.core.errors.AccessDenied` with a machine-readable
``reason`` — ``result_limit``, ``deadline_exceeded``, ``query_quota``,
``registration_rate``, ``subnet_rate``, and (cluster only, raised by
the router's execute or price step) ``shard_unavailable`` with the dead
shard indexes and a ``retry_after`` covering the failover window. The
server maps them all onto one wire shape; nothing in the stack ever
surfaces a raw infrastructure exception to a client.

The *cache* / *cache_store* pair (skipped entirely unless the guard has
a :class:`~repro.core.result_cache.ResultCache`) serves repeated
SELECTs without touching the engine. Deliberately, a hit replaces
**only** the execute stage: account, price, record, and sleep still run
on the cached result's ``touched`` set, so a hit and a miss are
indistinguishable in popularity counts, account charges, and mandated
delay — the cache saves engine CPU, never the defense's price.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from ..engine.parser.ast import SelectStatement
from ..engine.parser.normalize import normalize_sql
from ..engine.parser.parser import parse_cached
from ..obs import QueryTrace, delay_buckets
from .errors import AccessDenied, ConfigError
from .result_cache import CachedResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine.executor import ResultSet
    from .guard import FrontDoor

#: Bucket bounds for the per-stage latency histograms: stages run in
#: microseconds (accounting) up to tens of seconds (sleep).
_STAGE_BUCKETS = delay_buckets(low=1e-6, high=1e2, per_decade=3)


@dataclass
class QueryContext:
    """Mutable state threaded through the pipeline for one query."""

    sql_or_statement: Union[str, object]
    identity: Optional[str] = None
    record: bool = True
    sleep: bool = True
    #: fast-path probe mode: run parse → cache lookup first and bail
    #: out (before authorize charges the account) when the result
    #: cache misses. See :meth:`QueryPipeline.run`.
    cache_only: bool = False
    #: cluster scatter reads: serve from the live shards (with
    #: ``coverage`` set) instead of failing closed when one is down.
    partial_results: bool = False
    #: absolute ``time.monotonic()`` deadline for the whole request, or
    #: None for no budget. Checked at every stage boundary, and by the
    #: price stage against the mandated delay itself (a delay longer
    #: than the remaining budget is rejected up front instead of
    #: holding a thread in sleep).
    deadline_at: Optional[float] = None
    trace: Optional[QueryTrace] = None
    #: the parsed statement (set by *parse*, or directly for pre-parsed
    #: input).
    statement: object = None
    #: canonical SQL text (set by *parse*; None for pre-parsed input,
    #: which the result cache therefore never serves).
    normalized_sql: Optional[str] = None
    #: the engine snapshot epoch the cache stage observed, and whether
    #: it served the result (execute is skipped on a hit).
    cache_epoch: Optional[int] = None
    cache_hit: bool = False
    #: the engine result (set by *execute*).
    result: Optional["ResultSet"] = None
    #: the shard a cluster's execute step routed a SELECT to (None for
    #: a single node or a scatter); its price step prices there.
    route: Optional[int] = None
    #: per-shard coverage of a partial cluster scatter (None when
    #: complete).
    coverage: Optional[Dict] = None
    #: base tuples charged for a SELECT (set by *account*).
    keys: List[Tuple[str, int]] = field(default_factory=list)
    per_tuple: List[float] = field(default_factory=list)
    delay: float = 0.0
    engine_seconds: float = 0.0
    accounting_seconds: float = 0.0
    #: set when a denial should still count the query's timing buckets
    #: (the result-limit strawman denies *after* the engine did the
    #: work, so its cost must not vanish from Table 5).
    count_query_on_denial: bool = False


class Stage:
    """One pipeline step.

    Attributes:
        name: span and histogram label.
        bucket: which :class:`~repro.core.guard.GuardStats` timing
            bucket this stage's wall time lands in — ``"engine"``,
            ``"accounting"``, or None (the sleep itself is the charged
            product, not overhead).
    """

    name = "stage"
    bucket: Optional[str] = None

    def __init__(self, guard: "FrontDoor"):
        self.guard = guard

    def applies(self, ctx: QueryContext) -> bool:
        """Whether this stage runs for this query (skipped silently)."""
        return True

    def run(self, ctx: QueryContext) -> None:
        raise NotImplementedError


class AdmitStage(Stage):
    """Reject unidentified callers when the guard enforces accounts."""

    name = "admit"
    bucket = "accounting"

    def applies(self, ctx: QueryContext) -> bool:
        return self.guard.accounts is not None

    def run(self, ctx: QueryContext) -> None:
        if ctx.identity is None:
            raise ConfigError(
                "this guard requires an identity for every query"
            )


class ParseStage(Stage):
    """Parse SQL text (cached); pre-parsed statements skip this stage.

    Parsing lands in the engine bucket: it used to happen inside
    ``Database.execute``, and keeping it there keeps Table 5
    comparisons stable across refactors.
    """

    name = "parse"
    bucket = "engine"

    def applies(self, ctx: QueryContext) -> bool:
        return isinstance(ctx.sql_or_statement, str)

    def run(self, ctx: QueryContext) -> None:
        ctx.normalized_sql = normalize_sql(ctx.sql_or_statement)
        ctx.statement = parse_cached(ctx.normalized_sql)


class AuthorizeStage(Stage):
    """Charge the query against every account-level limit (§2.4)."""

    name = "authorize"
    bucket = "accounting"

    def applies(self, ctx: QueryContext) -> bool:
        return self.guard.accounts is not None

    def run(self, ctx: QueryContext) -> None:
        guard = self.guard
        try:
            guard.accounts.authorize_query(ctx.identity)
        except Exception as error:
            guard.stats.note_denied()
            if ctx.trace is not None:
                guard._m_denied.inc(
                    reason=getattr(error, "reason", None)
                    or type(error).__name__
                )
            raise


class CacheLookupStage(Stage):
    """Serve a repeated SELECT from the result cache — still priced.

    Runs *after* admit/authorize (an unauthorized caller never sees a
    cached byte) and replaces only the execute stage on a hit: the
    account, price, record, and sleep stages run on the cached result's
    ``touched`` set exactly as they would on a miss, so popularity
    counts, account charges, and the mandated delay are identical
    either way. The key is ``(normalized SQL, snapshot epoch)`` —
    identity-independent by design, and bumped past every committed
    mutation by the engine's epoch counter. An adversary's probes are
    priced whether they hit or miss; only engine CPU is ever saved.
    """

    name = "cache"
    bucket = "accounting"

    def applies(self, ctx: QueryContext) -> bool:
        return (
            self.guard.result_cache is not None
            and ctx.normalized_sql is not None
            and isinstance(ctx.statement, SelectStatement)
        )

    def run(self, ctx: QueryContext) -> None:
        guard = self.guard
        ctx.cache_epoch = guard.database.mutation_epoch
        frozen = guard.result_cache.get(ctx.normalized_sql, ctx.cache_epoch)
        if frozen is not None:
            ctx.result = frozen.thaw()
            ctx.cache_hit = True
            if guard.obs.enabled:
                guard._m_execution_path.inc(path="cached")


class ExecuteStage(Stage):
    """Run the statement through the guard's data plane.

    The only stage that touches an engine lock: a single node runs its
    own engine (shared read side for SELECT/EXPLAIN, exclusive write
    side for everything else); a cluster routes to the owner shard, the
    merged scatter view, or the write fan-out. Skipped when the cache
    stage already produced the result.
    """

    name = "execute"
    bucket = "engine"

    def applies(self, ctx: QueryContext) -> bool:
        return not ctx.cache_hit

    def run(self, ctx: QueryContext) -> None:
        ctx.result = self.guard.run_statement(ctx)
        if self.guard.obs.enabled:
            path = getattr(ctx.result, "execution_path", None)
            if path:
                self.guard._m_execution_path.inc(path=path)


class CacheStoreStage(Stage):
    """Freeze a freshly-executed SELECT into the result cache.

    Only sound when no commit landed during execution: the stage
    re-reads the engine epoch and skips the store if it moved past the
    one the lookup observed (and the cache itself refuses stale-epoch
    writes, so the check is belt *and* suspenders).
    """

    name = "cache_store"
    bucket = "accounting"

    def applies(self, ctx: QueryContext) -> bool:
        result = ctx.result
        return (
            self.guard.result_cache is not None
            and not ctx.cache_hit
            and ctx.cache_epoch is not None
            and result is not None
            and result.statement_kind == "select"
            and result.table is not None
        )

    def run(self, ctx: QueryContext) -> None:
        guard = self.guard
        if guard.database.mutation_epoch != ctx.cache_epoch:
            return
        guard.result_cache.put(
            ctx.normalized_sql,
            ctx.cache_epoch,
            CachedResult.freeze(ctx.result),
        )


class AccountStage(Stage):
    """Result-limit strawman, charged-key extraction, per-identity use."""

    name = "account"
    bucket = "accounting"

    def applies(self, ctx: QueryContext) -> bool:
        result = ctx.result
        return (
            result is not None
            and result.statement_kind == "select"
            and result.table is not None
        )

    def run(self, ctx: QueryContext) -> None:
        guard = self.guard
        result = ctx.result
        # §1.1's strawman result-size limit, kept as a baseline.
        # Enforced post-execution (the engine has already read the rows)
        # but pre-recording/charging: the caller gets nothing.
        limit = guard.config.max_result_rows
        if limit is not None and len(result.rows) > limit:
            guard.stats.note_denied()
            if ctx.trace is not None:
                guard._m_denied.inc(reason="result_limit")
            ctx.count_query_on_denial = True
            raise AccessDenied("result_limit")
        # `touched` covers every contributing base tuple, across joined
        # tables; fall back to the driving table's rowids for result
        # sets produced without it.
        if result.touched:
            ctx.keys = list(result.touched)
        else:
            ctx.keys = [
                (result.table.lower(), rowid) for rowid in result.rowids
            ]
        if guard.accounts is not None and ctx.identity is not None:
            guard.accounts.record_retrieval(ctx.identity, len(ctx.keys))


class PriceStage(Stage):
    """Compute per-tuple delays from one consistent count snapshot."""

    name = "price"
    bucket = "accounting"

    def applies(self, ctx: QueryContext) -> bool:
        result = ctx.result
        return (
            result is not None
            and result.statement_kind == "select"
            and result.table is not None
        )

    def run(self, ctx: QueryContext) -> None:
        guard = self.guard
        ctx.per_tuple = guard.pricing_policy(ctx).delays_for(ctx.keys)
        if guard.config.charge_returned_tuples:
            ctx.delay = sum(ctx.per_tuple)
        else:
            ctx.delay = max(ctx.per_tuple, default=0.0)
        if ctx.deadline_at is not None and ctx.delay > 0:
            remaining = ctx.deadline_at - time.monotonic()
            if ctx.delay > remaining:
                # The mandated delay cannot fit the caller's budget:
                # reject *before* the record/sleep stages, reporting
                # the full delay so the caller knows the true price.
                # Nothing is recorded — the tuples were never served.
                guard.stats.note_deadline_abort()
                if ctx.trace is not None:
                    guard._m_denied.inc(reason="deadline_exceeded")
                raise AccessDenied(
                    "deadline_exceeded", retry_after=ctx.delay
                )


class RecordStage(Stage):
    """Feed the trackers: popularity for reads, rates for updates."""

    name = "record"
    bucket = "accounting"

    def applies(self, ctx: QueryContext) -> bool:
        result = ctx.result
        if result is None:
            return False
        if result.statement_kind == "select":
            return result.table is not None
        return result.statement_kind in ("insert", "update", "delete")

    def run(self, ctx: QueryContext) -> None:
        guard = self.guard
        result = ctx.result
        if result.statement_kind == "select":
            if ctx.record and guard.config.record_accesses:
                guard.record_reads(ctx.keys)
            guard.stats.note_select(ctx.delay, len(ctx.keys))
            if (
                ctx.trace is not None
                and ctx.identity is not None
                and ctx.delay > 0
            ):
                guard._m_identity_delay.inc(ctx.delay, identity=ctx.identity)
            return
        if guard.config.record_updates and result.table is not None:
            guard.record_writes(result)


class ForensicsStage(Stage):
    """Feed the live extraction-risk monitor (§2.4 "notice the robot").

    Runs after *record* (the served tuples and the priced delay are
    final) and before *sleep* (the caller's mandated delay should not
    postpone their own risk evaluation). Skipped entirely unless the
    guard was built with ``GuardConfig.forensics`` — the monitor's
    record+evaluate is an extra accounting cost per identified SELECT.
    """

    name = "forensics"
    bucket = "accounting"

    def applies(self, ctx: QueryContext) -> bool:
        result = ctx.result
        return (
            self.guard.forensics is not None
            and ctx.identity is not None
            and result is not None
            and result.statement_kind == "select"
            and result.table is not None
        )

    def run(self, ctx: QueryContext) -> None:
        self.guard.forensics.observe(
            ctx.identity,
            ctx.keys,
            delay=ctx.delay,
            trace_id=ctx.trace.trace_id if ctx.trace is not None else None,
        )


class SleepStage(Stage):
    """Serve the computed delay on the guard's clock.

    Unbucketed: the sleep is the defense's product, not overhead. The
    server and the concurrent simulator pass ``sleep=False`` and serve
    the delay themselves (per-connection / event-scheduled), so only
    that one caller blocks — never the pipeline of another query.
    """

    name = "sleep"
    bucket = None

    def applies(self, ctx: QueryContext) -> bool:
        return ctx.delay > 0 and ctx.sleep

    def run(self, ctx: QueryContext) -> None:
        self.guard.clock.sleep(ctx.delay)


class QueryPipeline:
    """Runs the staged lifecycle for one guard.

    Stateless between queries: all per-query state lives in the
    :class:`QueryContext`, so one pipeline instance serves any number
    of concurrent callers.
    """

    STAGES = (
        AdmitStage,
        ParseStage,
        AuthorizeStage,
        CacheLookupStage,
        ExecuteStage,
        CacheStoreStage,
        AccountStage,
        PriceStage,
        RecordStage,
        ForensicsStage,
        SleepStage,
    )

    def __init__(self, guard: "FrontDoor"):
        self.guard = guard
        self.stages = [stage_class(guard) for stage_class in self.STAGES]
        # Fast-path probe order (``ctx.cache_only``): the cache lookup
        # runs *before* admit/authorize so a miss can bail out without
        # charging the account — the full pipeline run that follows
        # charges exactly once. A hit still authorizes before a single
        # byte is returned (AccountStage runs after AuthorizeStage).
        by_name = {stage.name: stage for stage in self.stages}
        self._probe_stages = [
            by_name[name]
            for name in (
                "parse",
                "cache",
                "admit",
                "authorize",
                "account",
                "price",
                "record",
                "forensics",
                "sleep",
            )
        ]
        self._histograms = {}
        if guard.obs.enabled:
            for stage in self.stages:
                self._histograms[stage.name] = guard.obs.registry.histogram(
                    f"guard_stage_{stage.name}_seconds",
                    f"Wall time in the {stage.name!r} pipeline stage "
                    "(seconds)",
                    buckets=_STAGE_BUCKETS,
                )

    def run(self, ctx: QueryContext) -> QueryContext:
        """Run every applicable stage in order; returns the context.

        A stage that raises still gets its span and bucket time
        recorded (partial work costs real time). Denials flagged with
        ``count_query_on_denial`` contribute their timing buckets to
        :class:`~repro.core.guard.GuardStats` before propagating.
        """
        if not isinstance(ctx.sql_or_statement, str):
            ctx.statement = ctx.sql_or_statement
        stages = self._probe_stages if ctx.cache_only else self.stages
        for stage in stages:
            if ctx.cache_only and not ctx.cache_hit and stage.name == "admit":
                # Probe missed the cache: hand the query back untouched
                # and uncharged — no engine work, no authorize charge,
                # no query/timing stats (the full run counts it once).
                return ctx
            if not stage.applies(ctx):
                continue
            self._check_deadline(ctx)
            start = time.perf_counter()
            try:
                stage.run(ctx)
            except Exception:
                self._finish_stage(stage, ctx, start)
                if ctx.count_query_on_denial:
                    self.guard.stats.note_query(
                        0.0, ctx.engine_seconds, ctx.accounting_seconds
                    )
                raise
            self._finish_stage(stage, ctx, start)
        self.guard.stats.note_query(
            ctx.delay, ctx.engine_seconds, ctx.accounting_seconds
        )
        return ctx

    def _check_deadline(self, ctx: QueryContext) -> None:
        """Abort between stages once the caller's budget is spent.

        Cheap (one clock read) and early: a request that can no longer
        be answered in time should not consume engine or accounting
        work it cannot finish.
        """
        if ctx.deadline_at is None:
            return
        if time.monotonic() >= ctx.deadline_at:
            self.guard.stats.note_deadline_abort()
            if ctx.trace is not None:
                self.guard._m_denied.inc(reason="deadline_exceeded")
            raise AccessDenied("deadline_exceeded")

    def _finish_stage(
        self, stage: Stage, ctx: QueryContext, start: float
    ) -> None:
        now = time.perf_counter()
        elapsed = now - start
        if stage.bucket == "engine":
            ctx.engine_seconds += elapsed
        elif stage.bucket == "accounting":
            ctx.accounting_seconds += elapsed
        if ctx.trace is not None:
            ctx.trace.add_span(stage.name, start, now)
        histogram = self._histograms.get(stage.name)
        if histogram is not None:
            histogram.observe(elapsed)

    def stage_names(self) -> List[str]:
        """The configured stage order (introspection/docs)."""
        return [stage.name for stage in self.stages]
