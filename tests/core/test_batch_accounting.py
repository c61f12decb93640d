"""Differential test: batch accounting equals per-key §2.3, bit for bit.

The price and record stages handle a whole result set in one pass
(``PopularityDelayPolicy.delays_for``, ``PopularityTracker.record_many``
and the stores' ``get_many``/``add_many``). :class:`Reference` below is
the per-key model those passes replace: one ``store.add``/``store.get``
per tuple, the increment multiplied by γ after every access, a rescale
as soon as it passes the threshold, and one price per tuple. It drives
a twin count store through the per-key primitives only.

Every comparison is exact (``==`` on floats), not approximate: per-tuple
delays, every stored count, both totals, the increment, the rescale
count and the store's change log (``delta_since(0)``, which is what
gossip ships).
"""

import random

import pytest

from repro.core.counts import (
    CountingSampleStore,
    InMemoryCountStore,
    SpaceSavingStore,
    WriteBehindCountStore,
)
from repro.core.delay_policy import PopularityDelayPolicy
from repro.core.errors import ConfigError
from repro.core.popularity import PopularityTracker
from repro.core.result_cache import CachedResult
from repro.engine.executor import ResultSet

KEYS = [("t", rowid) for rowid in range(12)]
POPULATION = 10

STORES = {
    "memory": lambda: InMemoryCountStore(),
    "write_behind": lambda: WriteBehindCountStore(cache_size=4),
    "space_saving": lambda: SpaceSavingStore(capacity=6),
    "counting_sample": lambda: CountingSampleStore(capacity=6, seed=3),
}


class Reference:
    """Per-key record / popularity / price, as one call chain per tuple."""

    def __init__(self, store, decay_rate, threshold):
        self.store = store
        self.decay_rate = decay_rate
        self.threshold = threshold
        self.increment = 1.0
        self.raw_total = 0.0
        self.decayed_total = 0.0
        self.rescales = 0
        self.remote = {}  # key -> mirrored mass of the one peer origin
        self.remote_totals = None  # (raw, decayed) once a peer merged

    def record(self, key, weight=1.0):
        amount = self.increment * weight
        self.store.add(key, amount)
        self.decayed_total += amount
        self.raw_total += weight
        self.increment *= self.decay_rate
        if self.increment > self.threshold:
            factor = 1.0 / self.increment
            self.store.scale(factor)
            self.decayed_total *= factor
            self.increment = 1.0
            self.rescales += 1

    def mirror(self, payload):
        for key, mass, _version in payload["entries"]:
            self.remote[tuple(key)] = mass
        self.remote_totals = (payload["raw_total"], payload["decayed_total"])

    def popularity(self, key, mode):
        count = self.store.get(key) / self.increment
        if self.remote:
            count += self.remote.get(key, 0.0)
        if count <= 0:
            return 0.0
        if mode == "raw":
            total = self.raw_total
        else:
            total = self.decayed_total / self.increment
        if self.remote_totals is not None:
            total += self.remote_totals[0 if mode == "raw" else 1]
        if total <= 0:
            return 0.0
        return count / total

    def rank(self, key):
        if self.remote:
            counts = {k: c / self.increment for k, c in self.store.items()}
            for k, mass in self.remote.items():
                counts[k] = counts.get(k, 0.0) + mass
            items = list(counts.items())
        else:
            items = list(self.store.items())
        items.sort(key=lambda item: item[1], reverse=True)
        ranks = {k: position + 1 for position, (k, _) in enumerate(items)}
        return ranks.get(key, len(ranks) + 1)

    def delays(self, keys, mode, beta, cap, unit=1.0, cold=3600.0):
        # Counts are read for the whole result set before any rank, as
        # the price stage always has: a write-behind store's get() and
        # items() both move its cache, which can reorder tied ranks.
        popularities = [self.popularity(key, mode) for key in keys]
        out = []
        for key, popularity in zip(keys, popularities):
            if popularity <= 0.0:
                out.append(cap if cap is not None else cold)
                continue
            delay = unit / (POPULATION * popularity)
            if beta:
                delay *= self.rank(key) ** beta
            if cap is not None:
                delay = min(delay, cap)
            out.append(delay)
        return out


def batches(seed, count=25):
    """Seeded result sets: empty, single-key and duplicate-heavy ones."""
    rng = random.Random(seed)
    out = [[]]
    for _ in range(count):
        size = rng.choice([1, 2, 5, 9, 14])
        out.append([rng.choice(KEYS[: rng.randint(3, len(KEYS))])
                    for _ in range(size)])
    return out


def assert_same_state(tracker, reference):
    store, twin = tracker.store, reference.store
    assert [store.get(key) for key in KEYS] == [twin.get(key) for key in KEYS]
    assert tracker._raw_total == reference.raw_total
    assert tracker._decayed_total == reference.decayed_total
    assert tracker._increment == reference.increment
    assert tracker.rescales == reference.rescales
    assert store.version == twin.version
    assert store.delta_since(0) == twin.delta_since(0)


def run(store_name, decay_rate=1.0, threshold=1e100, mode="raw", beta=0.0,
        cap=0.5, weight=1.0, peer=False, seed=0):
    tracker = PopularityTracker(
        store=STORES[store_name](), decay_rate=decay_rate,
        rescale_threshold=threshold, rank_refresh=1,
    )
    reference = Reference(STORES[store_name](), decay_rate, threshold)
    policy = PopularityDelayPolicy(
        tracker, POPULATION, cap=cap, beta=beta, mode=mode
    )
    remote = PopularityTracker(origin="peer") if peer else None
    for index, batch in enumerate(batches(seed)):
        if remote is not None and index % 6 == 3:
            remote.record_many(random.Random(index).choices(KEYS, k=7))
            delta = remote.delta_since()
            tracker.merge(delta)
            reference.mirror(delta["payloads"][0])
        expected = reference.delays(batch, mode, beta, cap)
        assert policy.delays_for(batch) == expected
        tracker.record_many(batch, weight)
        for key in batch:
            reference.record(key, weight)
        assert_same_state(tracker, reference)
    return tracker


@pytest.mark.parametrize("store_name", sorted(STORES))
@pytest.mark.parametrize("mode", ["raw", "decayed"])
def test_no_decay_all_stores(store_name, mode):
    run(store_name, mode=mode)


@pytest.mark.parametrize("store_name", ["memory", "write_behind",
                                        "space_saving"])
@pytest.mark.parametrize("mode", ["raw", "decayed"])
def test_rescale_lands_mid_batch(store_name, mode):
    # γ = 1.5 passes the threshold of 40 every ninth access, so most
    # batches of 9 or 14 keys split around a rescale.
    tracker = run(store_name, decay_rate=1.5, threshold=40.0, mode=mode)
    assert tracker.rescales >= 10


@pytest.mark.parametrize("store_name", ["memory", "write_behind",
                                        "space_saving"])
def test_weighted_batches(store_name):
    run(store_name, decay_rate=1.2, threshold=30.0, weight=2.5)


@pytest.mark.parametrize("store_name", sorted(STORES))
@pytest.mark.parametrize("mode", ["raw", "decayed"])
def test_remote_origin_mass(store_name, mode):
    decay = 1.0 if store_name == "counting_sample" else 1.3
    run(store_name, decay_rate=decay, threshold=50.0, mode=mode, peer=True)


@pytest.mark.parametrize("store_name", ["memory", "write_behind"])
@pytest.mark.parametrize("peer", [False, True])
@pytest.mark.parametrize("cap", [0.5, None])
def test_rank_penalty_and_uncapped(store_name, peer, cap):
    run(store_name, decay_rate=1.1, threshold=20.0, mode="decayed",
        beta=1.5, cap=cap, peer=peer, seed=4)


@pytest.mark.parametrize("cap", [0.5, None])
def test_single_key_wrappers_match_batch(cap):
    tracker = PopularityTracker(decay_rate=1.2, rescale_threshold=10.0)
    policy = PopularityDelayPolicy(tracker, POPULATION, cap=cap)
    for batch in batches(9):
        for key in batch:
            tracker.record(key)
    delays = policy.delays_for(KEYS)
    assert [policy.delay_for(key) for key in KEYS] == delays
    assert [tracker.popularity(key) for key in KEYS] == (
        tracker.popularity_many(KEYS)
    )


class TestUnknownMode:
    def test_unseen_key(self):
        with pytest.raises(ConfigError):
            PopularityTracker().popularity("a", "bogus")

    def test_seen_key(self):
        tracker = PopularityTracker()
        tracker.record("a")
        with pytest.raises(ConfigError):
            tracker.popularity("a", "bogus")

    def test_empty_batch(self):
        with pytest.raises(ConfigError):
            PopularityTracker().popularity_many([], "bogus")


def test_freeze_turns_list_pairs_into_tuples():
    result = ResultSet(
        columns=["id"],
        rows=[[1], [2]],
        rowids=[1, 2],
        touched=[["t", 1], ("t", 2)],
        table="t",
        rowcount=2,
        statement_kind="select",
    )
    frozen = CachedResult.freeze(result)
    assert frozen.touched == (("t", 1), ("t", 2))
    assert all(type(pair) is tuple for pair in frozen.touched)
    assert frozen.rows == ((1,), (2,))
    assert frozen.rowids == (1, 2)
    result.touched[0].append("poison")
    assert frozen.touched[0] == ("t", 1)
