"""Correctness checks. Each returns a list of failure descriptions.

The checks take plain values, so the self-tests can feed them tampered
input; the benchmark run feeds them what the clients saw and what the
program's own counters say. Any failure makes the run incorrect.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import Dataset, Request

#: relative tolerance for comparing float sums accumulated in different
#: orders (the client adds delays per connection, the guard per query).
SUM_TOLERANCE = 1e-9


def check_answer(
    request: Request, response: Dict, dataset: Dataset, cap: float
) -> Optional[str]:
    """One response against the seed-derived answer and the delay cap."""
    delay = response.get("delay")
    if not isinstance(delay, (int, float)) or delay < 0:
        return f"{request.sql}: bad delay {delay!r}"
    rows = response.get("rows")
    if request.kind == "write":
        if response.get("rowcount") != 1 or delay != 0:
            return (
                f"{request.sql}: rowcount {response.get('rowcount')!r}, "
                f"delay {delay!r}"
            )
        return None
    if request.kind == "point":
        expected = list(dataset.expected_point(request.key))
        if not rows or len(rows) != 1 or list(rows[0][:3]) != expected:
            return f"{request.sql}: rows {rows!r}, expected {expected!r}…"
    else:
        expected = list(dataset.expected_aggregate(request.key))
        if rows != [expected]:
            return f"{request.sql}: rows {rows!r}, expected [{expected!r}]"
    # Every tuple is priced at most the cap, so a read of n tuples is
    # delayed at most n caps.
    if delay > cap * request.tuples:
        return (
            f"{request.sql}: delay {delay!r} exceeds cap {cap} x "
            f"{request.tuples} tuples"
        )
    return None


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= SUM_TOLERANCE * max(abs(a), abs(b), 1.0)


def check_delay_ledger(
    client_delays: Sequence[float], guard_total: float, clock_advance: float
) -> List[str]:
    """Σ delays the clients were told = the guard's total = the clock's
    advance: every priced second was charged and served exactly once."""
    told = math.fsum(client_delays)
    failures = []
    if not _close(told, guard_total):
        failures.append(
            f"clients were told {told!r} s of delay, guard charged "
            f"{guard_total!r} s"
        )
    if not _close(told, clock_advance):
        failures.append(
            f"clients were told {told!r} s of delay, virtual clock "
            f"advanced {clock_advance!r} s"
        )
    return failures


def check_charges(
    expected_tuples: int, tuples_charged: int, popularity_growth: float
) -> List[str]:
    """Tuples the seed says were read = tuples the guard charged = the
    growth of the popularity totals (each charged tuple counted once)."""
    failures = []
    if tuples_charged != expected_tuples:
        failures.append(
            f"guard charged {tuples_charged} tuples, the requests read "
            f"{expected_tuples}"
        )
    if popularity_growth != expected_tuples:
        failures.append(
            f"popularity totals grew by {popularity_growth!r}, the "
            f"requests read {expected_tuples} tuples"
        )
    return failures


def check_handler_errors(errors: Sequence[BaseException], total: int) -> List[str]:
    """The server recorded no exception escaping a request handler."""
    if not errors and total == 0:
        return []
    return [f"server handler errors ({total}): {list(errors)[:3]!r}"]


def check_determinism(figures: Sequence[Tuple[float, ...]]) -> List[str]:
    """Every replay of the fixed request list left the same defense
    figures, bit for bit: with decay 1.0 the counts, and so every price,
    depend only on the multiset of requests, not on their interleaving."""
    if len(set(figures)) <= 1:
        return []
    return [
        "defense figures differ between replays of one request list: "
        + ", ".join(repr(figure) for figure in figures)
    ]
