"""Popularity tracking with exponential age decay (§2.3).

The paper tracks a per-tuple count of requests, normalised by a global
request count. To track *changing* distributions it weights each request
by a factor that decays exponentially with age. Discounting every count
at every access would cost O(N); instead — exactly as §2.3 prescribes —
we inflate the value by which counts increase on each access and keep a
matching normalisation, rescaling everything when the inflated increment
approaches overflow (at a small, bounded precision loss).

Two popularity normalisations are offered:

* ``"raw"`` (paper reading of §2.3: "normalized by a global count of all
  requests"): decayed count divided by the *undecayed* total. Stronger
  decay then shrinks every popularity estimate, inflating delays — this
  is what produces the decay sweeps of Tables 3 and 4.
* ``"decayed"``: decayed count divided by the decayed total — a proper
  probability estimate over the effective window, useful as an ablation.

Replication (the cluster's anti-entropy substrate): every tracker has an
*origin* id and keeps, next to its own counts, a per-origin mirror of
the masses other trackers have gossiped to it. :meth:`delta_since` emits
versioned present-scale masses for the local origin *and* every mirrored
origin (so gossip is transitive), and :meth:`merge` folds a delta in
with per-(origin, key) last-version-wins adoption — commutative,
associative, and idempotent, because each origin's versions are totally
ordered and the shipped value is a function of the version. Effective
queries (popularity, rank, snapshot, totals) sum local and mirrored
mass; with ``decay_rate == 1.0`` the merged view is exact, and with
decay the mirrors hold each origin's mass as of its last delta — a
staleness bounded by the gossip interval, never an undercount an
adversary could mint by spraying shards.
"""

from __future__ import annotations

import itertools
import math
import threading
from bisect import bisect_right
from functools import reduce
from itertools import accumulate, repeat
from operator import add, mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .counts import CountStore, InMemoryCountStore, Key
from .errors import ConfigError

#: process-unique default origins for trackers built without one.
_ORIGIN_SEQ = itertools.count()


def _freeze_key(key) -> Key:
    """JSON round-trips tuple keys as lists; restore them."""
    return tuple(key) if isinstance(key, list) else key


def _thaw_key(key):
    """Make a key JSON-serialisable (tuples become lists)."""
    return list(key) if isinstance(key, tuple) else key


class PopularityTracker:
    """Decayed per-tuple request counts with popularity and rank queries.

    Args:
        store: count storage backend (defaults to exact in-memory).
        decay_rate: per-request inflation factor γ >= 1. 1.0 means no
            decay (full history); larger values forget faster. A request
            ``k`` requests old carries relative weight ``γ**-k``.
        rescale_threshold: when the internal increment exceeds this, all
            counts are rescaled to keep floats in range.
        rank_refresh: recompute cached ranks after this many records
            (ranks are only needed by policies with β > 0; the cache
            bounds the cost of repeated sorting).
        origin: replication identity for :meth:`delta_since` /
            :meth:`merge` (e.g. ``"shard-0"``). Defaults to a
            process-unique id; cluster deployments set it explicitly so
            it survives restarts.
    """

    #: version headroom added on :meth:`load_state`, so records made
    #: after a recovery outrank pre-crash entries peers mirror back.
    RECOVERY_VERSION_JUMP = 1 << 32

    def __init__(
        self,
        store: Optional[CountStore] = None,
        decay_rate: float = 1.0,
        rescale_threshold: float = 1e100,
        rank_refresh: int = 1000,
        origin: Optional[str] = None,
    ):
        if decay_rate < 1.0:
            raise ConfigError(
                f"decay_rate must be >= 1.0 (got {decay_rate}); values "
                "above 1 forget faster"
            )
        if rescale_threshold <= 1.0:
            raise ConfigError("rescale_threshold must exceed 1.0")
        if rank_refresh < 1:
            raise ConfigError("rank_refresh must be >= 1")
        self.store = store if store is not None else InMemoryCountStore()
        self.decay_rate = float(decay_rate)
        self.rescale_threshold = float(rescale_threshold)
        self.rank_refresh = rank_refresh
        # Re-entrant: record -> _rescale and rank -> store.items() nest.
        # The store has its own lock, but the multi-step bookkeeping here
        # (count + both totals + increment) must be atomic as a unit or
        # concurrent recorders would desynchronise counts from totals.
        self._lock = threading.RLock()
        self._increment = 1.0  # weight assigned to the NEXT request
        self._raw_total = 0.0
        self._decayed_total = 0.0
        self._rescales = 0
        self._rank_cache: Optional[Dict[Key, int]] = None
        self._records_since_rank = 0
        self.origin = (
            origin if origin is not None else f"tracker-{next(_ORIGIN_SEQ)}"
        )
        #: origin -> key -> (present-scale mass, version): counts other
        #: trackers have gossiped here. Empty outside cluster use, and
        #: every query path skips the mirror work when it is empty.
        self._remote: Dict[str, Dict[Key, Tuple[float, int]]] = {}
        #: origin -> {"version", "raw_total", "decayed_total"}
        self._remote_meta: Dict[str, Dict[str, float]] = {}
        #: after load_state: the snapshot's data high-water mark. While
        #: set, :meth:`versions` advertises it (not the jumped counter)
        #: for the local origin, so peers reflect back own-origin mass
        #: the crash destroyed; :meth:`_merge_self` ratchets it forward
        #: as reflections arrive, ending the resends once caught up.
        self._self_floor: Optional[int] = None

    # -- recording ---------------------------------------------------------

    def record(self, key: Key, weight: float = 1.0) -> None:
        """Record one access to ``key`` (``weight`` allows batched hits)."""
        self.record_many((key,), weight)

    def record_many(self, keys: Sequence[Key], weight: float = 1.0) -> None:
        """Record accesses to ``keys`` in order, as one atomic batch.

        Bit-identical to one :meth:`record` per key, rescales included.
        Holding the lock across the batch means a concurrent
        :meth:`popularity_many` snapshot sees none or all of it.
        """
        if weight <= 0:
            raise ConfigError(f"weight must be positive, got {weight}")
        with self._lock:
            self._records_since_rank += len(keys)
            if self._records_since_rank >= self.rank_refresh:
                self._rank_cache = None
            # increments[i] weighs keys[i]; increments[len(keys)] is the
            # increment left for the next request.
            increments = self._increments(len(keys), self._increment)
            restarted = None
            while increments[len(keys)] > self.rescale_threshold:
                # Rescale right after the access that passes the bound.
                split = bisect_right(increments, self.rescale_threshold, 1)
                self._add_chunk(keys[:split], increments, weight)
                self._increment = increments[split]
                self._rescale()
                keys = keys[split:]
                if restarted is None:  # every later chunk starts at 1.0
                    restarted = self._increments(len(keys), 1.0)
                increments = restarted
            self._add_chunk(keys, increments, weight)
            self._increment = increments[len(keys)]

    def _increments(self, count: int, first: float) -> List[float]:
        """``first`` and the ``count`` increments that follow it."""
        if self.decay_rate == 1.0:  # x * 1.0 == x: skip the products
            return [first] * (count + 1)
        return list(
            accumulate(repeat(self.decay_rate, count), mul, initial=first)
        )

    def _add_chunk(
        self, keys: Sequence[Key], increments: List[float], weight: float
    ) -> None:
        """Add ``keys`` at ``increments`` × ``weight``, summing totals
        left to right as per-key adds would; lock held."""
        amounts = increments[: len(keys)]
        if weight != 1.0:
            amounts = [amount * weight for amount in amounts]
        self.store.add_many(keys, amounts)
        self._decayed_total = reduce(add, amounts, self._decayed_total)
        self._raw_total = reduce(
            add, repeat(weight, len(keys)), self._raw_total
        )

    def _rescale(self) -> None:
        """Divide all state by the current increment (overflow guard)."""
        with self._lock:
            factor = 1.0 / self._increment
            self.store.scale(factor)
            self._decayed_total *= factor
            self._increment = 1.0
            self._rescales += 1

    def apply_decay(self, factor: float) -> None:
        """Explicitly decay all accumulated history by ``factor``.

        Used for period-boundary decay: the box-office experiment (§4.2)
        applies its decay factor at weekly boundaries rather than per
        request. Equivalent to dividing every stored count by ``factor``
        but implemented, like per-request decay, by inflating the weight
        of future requests.
        """
        if factor < 1.0:
            raise ConfigError(f"decay factor must be >= 1.0, got {factor}")
        with self._lock:
            self._increment *= factor
            # Every key's present-scale mass just changed; peers holding
            # mirrored masses must be sent all of them again.
            self.store.mark_all_changed()
            if self._increment > self.rescale_threshold:
                self._rescale()

    # -- queries ------------------------------------------------------------

    def _remote_count(self, key: Key) -> float:
        """Mirrored present-scale mass of ``key``; lock held by caller."""
        total = 0.0
        for entries in self._remote.values():
            entry = entries.get(key)
            if entry is not None:
                total += entry[0]
        return total

    def _remote_raw_total(self) -> float:
        return sum(
            meta["raw_total"] for meta in self._remote_meta.values()
        )

    def _remote_decayed_total(self) -> float:
        return sum(
            meta["decayed_total"] for meta in self._remote_meta.values()
        )

    @property
    def total_requests(self) -> float:
        """Undecayed number of recorded requests (all known origins)."""
        with self._lock:
            if not self._remote_meta:
                return self._raw_total
            return self._raw_total + self._remote_raw_total()

    @property
    def decayed_total(self) -> float:
        """Decayed request total on the present-request weight scale.

        This is the correct denominator for shares of *decayed* counts
        (e.g. ``snapshot()`` weights): with no decay it equals
        ``total_requests``, and with decay it is the effective number of
        'current' requests the surviving weight represents.
        """
        with self._lock:
            local = self._decayed_total / self._increment
            if not self._remote_meta:
                return local
            return local + self._remote_decayed_total()

    @property
    def rescales(self) -> int:
        """How many overflow rescales have occurred (diagnostic)."""
        return self._rescales

    def present_count(self, key: Key) -> float:
        """Decayed count of ``key`` on the latest-request weight scale.

        With no decay this is exactly the raw hit count; with decay it is
        the equivalent number of 'current' requests. Mirrored mass from
        other origins is included.
        """
        with self._lock:
            count = self.store.get(key) / self._increment
            if self._remote:
                count += self._remote_count(key)
            return count

    def popularity(self, key: Key, mode: str = "raw") -> float:
        """Normalised popularity estimate of ``key`` in [0, ~1].

        ``mode="raw"`` divides the decayed count by the raw request
        total (the paper's normalisation); ``mode="decayed"`` divides by
        the decayed total (a true frequency over the effective window).
        Returns 0 for unseen keys or before any requests. Both numerator
        and denominator span every known origin, so a clustered tracker
        prices against the *global* distribution.
        """
        return self.popularity_many((key,), mode)[0]

    def popularity_many(
        self, keys: Sequence[Key], mode: str = "raw"
    ) -> List[float]:
        """:meth:`popularity` of every key from one consistent snapshot.

        One lock acquisition covers the batch and the increment and
        total are read once, so every estimate shares the same state —
        the property the guard's price stage relies on.
        """
        if mode not in ("raw", "decayed"):
            raise ConfigError(f"unknown popularity mode {mode!r}")
        with self._lock:
            # Read every count even when the answer is all zeros: a
            # write-behind store's get() moves its cache like per-key reads.
            counts = self.store.get_many(keys)
            increment = self._increment
            if mode == "raw":
                total = self._raw_total
                if self._remote_meta:
                    total += self._remote_raw_total()
            else:
                total = self._decayed_total / increment
                if self._remote_meta:
                    total += self._remote_decayed_total()
            if total <= 0:
                return [0.0] * len(keys)
            if self._remote:
                counts = [
                    weight / increment + self._remote_count(key)
                    for key, weight in zip(keys, counts)
                ]
                increment = 1.0  # already divided: x / 1.0 == x
            return [
                0.0 if weight <= 0 else weight / increment / total
                for weight in counts
            ]

    def _merged_counts(self) -> Dict[Key, float]:
        """All (key -> present-scale mass) across origins; lock held."""
        merged = {
            key: count / self._increment
            for key, count in self.store.items()
        }
        for entries in self._remote.values():
            for key, (mass, _version) in entries.items():
                merged[key] = merged.get(key, 0.0) + mass
        return merged

    def max_popularity(self, mode: str = "raw") -> float:
        """Popularity of the most popular tracked key (0 if none)."""
        with self._lock:
            keys = {key for key, _count in self.store.items()}
            for entries in self._remote.values():
                keys.update(entries)
            return max(self.popularity_many(list(keys), mode), default=0.0)

    def rank(self, key: Key) -> int:
        """1-based popularity rank of ``key`` (1 = most popular).

        Unseen keys rank after every tracked key. Ranks come from a
        cache refreshed every ``rank_refresh`` records, so they may lag
        the counts slightly — acceptable for delay assignment, where the
        ranking moves slowly.
        """
        with self._lock:
            if self._rank_cache is None:
                if self._remote:
                    ordered = sorted(
                        self._merged_counts().items(),
                        key=lambda item: item[1],
                        reverse=True,
                    )
                else:
                    ordered = sorted(
                        self.store.items(),
                        key=lambda item: item[1],
                        reverse=True,
                    )
                self._rank_cache = {
                    key_: position + 1
                    for position, (key_, _) in enumerate(ordered)
                }
                self._records_since_rank = 0
            return self._rank_cache.get(key, len(self._rank_cache) + 1)

    def snapshot(self) -> List[Tuple[Key, float]]:
        """All (key, present_count) pairs, most popular first."""
        with self._lock:
            if self._remote:
                pairs = list(self._merged_counts().items())
            else:
                pairs = [
                    (key, count / self._increment)
                    for key, count in self.store.items()
                ]
        pairs.sort(key=lambda item: item[1], reverse=True)
        return pairs

    def tracked_keys(self) -> int:
        """Number of keys with a stored or mirrored count."""
        with self._lock:
            if not self._remote:
                return len(self.store)
            keys = {key for key, _count in self.store.items()}
            for entries in self._remote.values():
                keys.update(entries)
            return len(keys)

    def reset(self) -> None:
        """Forget all history (mirrored origins included)."""
        with self._lock:
            self.store.clear()
            self._increment = 1.0
            self._raw_total = 0.0
            self._decayed_total = 0.0
            self._rank_cache = None
            self._records_since_rank = 0
            self._remote = {}
            self._remote_meta = {}
            self._self_floor = None

    # -- replication ---------------------------------------------------------

    def versions(self) -> Dict[str, int]:
        """Per-origin version high-water marks this tracker holds.

        Feed a peer's :meth:`versions` into :meth:`delta_since` to get
        exactly the entries that peer is missing.

        For the local origin this is normally the store's counter; a
        freshly recovered tracker instead advertises the snapshot's
        high-water mark, because the counter was jumped far past it and
        would make peers withhold the reflected entries recovery needs.
        """
        with self._lock:
            own = (
                self._self_floor
                if self._self_floor is not None
                else self.store.version
            )
            versions = {self.origin: own}
            for origin, meta in self._remote_meta.items():
                versions[origin] = int(meta["version"])
            return versions

    def delta_since(self, versions: Optional[Dict[str, int]] = None) -> Dict:
        """Versioned present-scale masses newer than ``versions``.

        The delta carries one payload per known origin — this tracker's
        own counts *and* every mirrored origin — so gossip spreads
        state transitively without all-pairs exchange. ``versions`` maps
        origin ids to the receiver's high-water marks (missing origins
        mean "send everything").
        """
        versions = dict(versions or {})
        with self._lock:
            store_delta = self.store.delta_since(
                versions.get(self.origin, 0)
            )
            payloads = [
                {
                    "origin": self.origin,
                    "version": store_delta["version"],
                    "raw_total": self._raw_total,
                    "decayed_total": self._decayed_total / self._increment,
                    "entries": [
                        [_thaw_key(key), weight / self._increment, changed]
                        for key, weight, changed in store_delta["entries"]
                    ],
                }
            ]
            for origin, entries_map in self._remote.items():
                since = versions.get(origin, 0)
                meta = self._remote_meta[origin]
                entries = [
                    [_thaw_key(key), mass, version]
                    for key, (mass, version) in entries_map.items()
                    if version > since
                ]
                if not entries and meta["version"] <= since:
                    continue
                payloads.append(
                    {
                        "origin": origin,
                        "version": int(meta["version"]),
                        "raw_total": meta["raw_total"],
                        "decayed_total": meta["decayed_total"],
                        "entries": entries,
                    }
                )
        return {"payloads": payloads}

    def merge(self, delta: Dict) -> int:
        """Fold a :meth:`delta_since` payload in; returns entries adopted.

        Remote-origin entries land in per-origin mirrors with
        last-version-wins adoption. Entries for *this* tracker's own
        origin are reflections of its past self (a peer gossiping back
        what it learned before this tracker crashed): they are adopted
        into the local store only where the local version is older, which
        restores popularity lost since the last snapshot without ever
        clobbering post-recovery records.
        """
        payloads = delta.get("payloads", ())
        adopted = 0
        with self._lock:
            for payload in payloads:
                origin = payload.get("origin")
                if origin == self.origin:
                    adopted += self._merge_self(payload)
                else:
                    adopted += self._merge_remote(payload)
            if adopted:
                self._rank_cache = None
        return adopted

    def _merge_self(self, payload: Dict) -> int:
        """Adopt reflected own-origin entries where newer; lock held."""
        entries = [
            [_freeze_key(key), float(mass) * self._increment, int(version)]
            for key, mass, version in payload.get("entries", ())
        ]
        adopted = self.store.merge(
            {"version": int(payload.get("version", 0)), "entries": entries}
        )
        if adopted:
            # The store changed under us; the decayed total is, by
            # construction, exactly the sum of stored masses.
            self._decayed_total = sum(
                weight for _key, weight in self.store.items()
            )
        self._raw_total = max(
            self._raw_total, float(payload.get("raw_total", 0.0))
        )
        if self._self_floor is not None:
            # Everything the peer mirrors up to its payload version has
            # now been offered back; advertising past it stops the
            # re-reflection without hiding genuinely newer entries.
            self._self_floor = max(
                self._self_floor, int(payload.get("version", 0))
            )
        return adopted

    def _merge_remote(self, payload: Dict) -> int:
        """Last-version-wins adoption into one origin mirror; lock held."""
        origin = payload["origin"]
        entries_map = self._remote.setdefault(origin, {})
        meta = self._remote_meta.setdefault(
            origin, {"version": 0, "raw_total": 0.0, "decayed_total": 0.0}
        )
        adopted = 0
        for key, mass, version in payload.get("entries", ()):
            key = _freeze_key(key)
            current = entries_map.get(key)
            if current is not None and current[1] >= version:
                continue
            entries_map[key] = (float(mass), int(version))
            adopted += 1
        version = int(payload.get("version", 0))
        if version > meta["version"]:
            meta["version"] = version
            meta["raw_total"] = float(payload.get("raw_total", 0.0))
            meta["decayed_total"] = float(payload.get("decayed_total", 0.0))
        return adopted

    # -- persistence ---------------------------------------------------------

    def dump_state(self) -> Dict:
        """Serialise counts, totals, versions, and origin mirrors.

        Masses are stored on the present-request scale, so the snapshot
        is independent of the increment at dump time.
        """
        with self._lock:
            store_delta = self.store.delta_since(0)
            return {
                "format": "repro-popularity-v1",
                "origin": self.origin,
                "decay_rate": self.decay_rate,
                "raw_total": self._raw_total,
                "decayed_total": self._decayed_total / self._increment,
                "version": self.store.version,
                "counts": [
                    [_thaw_key(key), weight / self._increment, changed]
                    for key, weight, changed in store_delta["entries"]
                ],
                "remote": {
                    origin: {
                        "version": int(meta["version"]),
                        "raw_total": meta["raw_total"],
                        "decayed_total": meta["decayed_total"],
                        "entries": [
                            [_thaw_key(key), mass, version]
                            for key, (mass, version) in self._remote[
                                origin
                            ].items()
                        ],
                    }
                    for origin, meta in self._remote_meta.items()
                },
            }

    def load_state(self, payload: Dict) -> None:
        """Restore :meth:`dump_state` output, replacing current state.

        The store's version counter is advanced by
        :data:`RECOVERY_VERSION_JUMP` past the snapshot's high-water
        mark, so every record made after this load outranks any
        pre-crash entry a peer may still mirror.
        """
        if payload.get("format") != "repro-popularity-v1":
            raise ConfigError(
                f"unknown popularity state format "
                f"{payload.get('format')!r}"
            )
        decay_rate = float(payload.get("decay_rate", self.decay_rate))
        if decay_rate != self.decay_rate:
            raise ConfigError(
                f"snapshot decay_rate {decay_rate} does not match "
                f"tracker decay_rate {self.decay_rate}"
            )
        with self._lock:
            self.store.clear()
            self._increment = 1.0
            self.store.merge(
                {
                    "version": int(payload.get("version", 0)),
                    "entries": [
                        [_freeze_key(key), float(mass), int(version)]
                        for key, mass, version in payload.get("counts", ())
                    ],
                }
            )
            self.store.advance_version(
                int(payload.get("version", 0)) + self.RECOVERY_VERSION_JUMP
            )
            self._self_floor = int(payload.get("version", 0))
            self.origin = payload.get("origin", self.origin)
            self._raw_total = float(payload.get("raw_total", 0.0))
            self._decayed_total = sum(
                weight for _key, weight in self.store.items()
            )
            self._remote = {}
            self._remote_meta = {}
            for origin, mirror in payload.get("remote", {}).items():
                self._remote[origin] = {
                    _freeze_key(key): (float(mass), int(version))
                    for key, mass, version in mirror.get("entries", ())
                }
                self._remote_meta[origin] = {
                    "version": int(mirror.get("version", 0)),
                    "raw_total": float(mirror.get("raw_total", 0.0)),
                    "decayed_total": float(
                        mirror.get("decayed_total", 0.0)
                    ),
                }
            self._rank_cache = None
            self._records_since_rank = 0


class AdaptiveTracker:
    """Several trackers with different decay terms, auto-selected (§2.3).

    The paper notes that when the right decay term is unknown, one can
    "simultaneously track counts with more than one decay term,
    switching to the appropriate set as the request pattern warrants" —
    the agile/stable estimator trick from wireless networking and energy
    management. Each candidate tracker scores its one-step-ahead
    predictive log-loss for the observed key (before updating); an EWMA
    of that loss selects the active tracker.

    Args:
        decay_rates: candidate γ values (must be unique, each >= 1).
        score_smoothing: EWMA factor in (0, 1]; smaller = slower switch.
        store_factory: builds a fresh count store per candidate.
        origin: replication identity shared by every candidate tracker.
    """

    _EPSILON = 1e-12

    def __init__(
        self,
        decay_rates: Sequence[float],
        score_smoothing: float = 0.02,
        store_factory=InMemoryCountStore,
        origin: Optional[str] = None,
    ):
        if not decay_rates:
            raise ConfigError("need at least one decay rate")
        if len(set(decay_rates)) != len(decay_rates):
            raise ConfigError("decay rates must be unique")
        if not 0 < score_smoothing <= 1:
            raise ConfigError("score_smoothing must be in (0, 1]")
        if origin is None:
            origin = f"tracker-{next(_ORIGIN_SEQ)}"
        self.origin = origin
        self.trackers: Dict[float, PopularityTracker] = {
            rate: PopularityTracker(
                store=store_factory(), decay_rate=rate, origin=origin
            )
            for rate in decay_rates
        }
        self.score_smoothing = score_smoothing
        self._lock = threading.Lock()
        self._scores: Dict[float, float] = {rate: 0.0 for rate in decay_rates}
        self._seen_any = False

    def record(self, key: Key, weight: float = 1.0) -> None:
        """Score each candidate's prediction for ``key``, then update all."""
        # Scoring reads every tracker before any of them is updated; the
        # lock keeps concurrent records from interleaving the two halves.
        with self._lock:
            for rate, tracker in self.trackers.items():
                predicted = max(
                    tracker.popularity(key, "decayed"), self._EPSILON
                )
                loss = -math.log(predicted)
                previous = self._scores[rate]
                if self._seen_any:
                    self._scores[rate] = (
                        (1 - self.score_smoothing) * previous
                        + self.score_smoothing * loss
                    )
                else:
                    self._scores[rate] = loss
            self._seen_any = True
            for tracker in self.trackers.values():
                tracker.record(key, weight)

    @property
    def active_rate(self) -> float:
        """The decay rate whose tracker currently predicts best."""
        return min(self._scores, key=self._scores.get)  # type: ignore[arg-type]

    @property
    def active(self) -> PopularityTracker:
        """The currently selected tracker."""
        return self.trackers[self.active_rate]

    def scores(self) -> Dict[float, float]:
        """Current EWMA predictive losses per decay rate (lower = better)."""
        return dict(self._scores)

    # Delegate the query interface to the active tracker so an
    # AdaptiveTracker can stand in wherever a PopularityTracker is used.

    def record_many(self, keys: Iterable[Key]) -> None:
        """Record a sequence of accesses in order."""
        for key in keys:
            self.record(key)

    def popularity(self, key: Key, mode: str = "raw") -> float:
        """Popularity under the currently best decay rate."""
        return self.active.popularity(key, mode)

    def popularity_many(
        self, keys: Sequence[Key], mode: str = "raw"
    ) -> List[float]:
        """Batch popularities under the currently best decay rate."""
        return self.active.popularity_many(keys, mode)

    def rank(self, key: Key) -> int:
        """Rank under the currently best decay rate."""
        return self.active.rank(key)

    def snapshot(self) -> List[Tuple[Key, float]]:
        """Snapshot under the currently best decay rate."""
        return self.active.snapshot()

    @property
    def total_requests(self) -> float:
        """Undecayed request total (same across candidates)."""
        return self.active.total_requests

    # -- replication ---------------------------------------------------------

    def versions(self) -> Dict[str, Dict[str, int]]:
        """Per-candidate version maps, keyed by the decay rate's repr."""
        return {
            repr(rate): tracker.versions()
            for rate, tracker in self.trackers.items()
        }

    def delta_since(
        self, versions: Optional[Dict[str, Dict[str, int]]] = None
    ) -> Dict:
        """One delta per candidate tracker (matched by decay rate)."""
        versions = versions or {}
        return {
            "rates": {
                repr(rate): tracker.delta_since(versions.get(repr(rate)))
                for rate, tracker in self.trackers.items()
            }
        }

    def merge(self, delta: Dict) -> int:
        """Merge per-rate deltas into the matching candidate trackers."""
        adopted = 0
        for rate_text, payload in delta.get("rates", {}).items():
            tracker = self.trackers.get(float(rate_text))
            if tracker is not None:
                adopted += tracker.merge(payload)
        return adopted

    # -- persistence ---------------------------------------------------------

    def dump_state(self) -> Dict:
        """Serialise every candidate tracker plus the selection scores."""
        with self._lock:
            return {
                "format": "repro-adaptive-popularity-v1",
                "origin": self.origin,
                "seen_any": self._seen_any,
                "scores": {
                    repr(rate): score
                    for rate, score in self._scores.items()
                },
                "trackers": {
                    repr(rate): tracker.dump_state()
                    for rate, tracker in self.trackers.items()
                },
            }

    def load_state(self, payload: Dict) -> None:
        """Restore :meth:`dump_state` output, replacing current state."""
        if payload.get("format") != "repro-adaptive-popularity-v1":
            raise ConfigError(
                f"unknown adaptive tracker state format "
                f"{payload.get('format')!r}"
            )
        snapshot_rates = {
            float(rate_text) for rate_text in payload.get("trackers", {})
        }
        if snapshot_rates != set(self.trackers):
            raise ConfigError(
                f"snapshot decay rates {sorted(snapshot_rates)} do not "
                f"match configured rates {sorted(self.trackers)}"
            )
        with self._lock:
            self.origin = payload.get("origin", self.origin)
            self._seen_any = bool(payload.get("seen_any", False))
            for rate_text, score in payload.get("scores", {}).items():
                self._scores[float(rate_text)] = float(score)
            for rate_text, state in payload.get("trackers", {}).items():
                self.trackers[float(rate_text)].load_state(state)
