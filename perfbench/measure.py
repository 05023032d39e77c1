"""The benchmark's arithmetic: percentiles, goodput, ratios and span self time.

Pure functions over plain numbers, so the rules every reported figure
follows are tested on their own (``perfbench/test_perfbench.py``).
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: a percentile is reported only when at least this many samples lie beyond it
MIN_TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation (numpy's default rule)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q``-th percentile."""
    return count - math.ceil(count * q / 100.0)


def samples_needed(q: float) -> int:
    """The smallest sample that leaves :data:`MIN_TAIL_SAMPLES` beyond p``q``."""
    count = MIN_TAIL_SAMPLES
    while samples_beyond(count, q) < MIN_TAIL_SAMPLES:
        count += 1
    return count


def tail_percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, refused when the sample cannot support it.

    A tail figure read from fewer than :data:`MIN_TAIL_SAMPLES` samples
    beyond it is one or two unlucky requests, not a percentile: p95 needs
    at least 200 samples.
    """
    beyond = samples_beyond(len(samples), q)
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {len(samples)} samples has only {beyond} beyond it; "
            f"at least {MIN_TAIL_SAMPLES} are needed"
        )
    return percentile(samples, q)


def goodput(
    outcomes: Iterable[Tuple[int, Optional[float]]], limit_ms: float, seconds: float
) -> float:
    """Queries per second answered within ``limit_ms``.

    ``outcomes`` holds ``(queries, latency_ms)`` per request; a shed or
    failed request carries ``None`` and counts as a miss, like a late one.
    """
    if seconds <= 0:
        raise ValueError(f"goodput over a non-positive window ({seconds} s)")
    met = sum(q for q, latency in outcomes if latency is not None and latency <= limit_ms)
    return met / seconds


def steal_free(
    dues: Sequence[int], stolen: Sequence[Tuple[int, int]], horizon: int
) -> List[bool]:
    """For each due time, whether no stolen interval touches ``[due, due + horizon]``.

    ``stolen`` holds disjoint ``(start, end)`` intervals in time order.  The
    test looks only at the host around the time a request was due, never
    at how long the request took, so a slow request is kept or dropped
    exactly as a fast one due at the same time would be.
    """
    ends = [end for _, end in stolen]
    free = []
    for due in dues:
        # the first interval that ends after the request was due
        index = bisect.bisect_right(ends, due)
        free.append(index == len(stolen) or stolen[index][0] >= due + horizon)
    return free


def ratio(part: float, base: float) -> float:
    """part / base, 0.0 on an empty base."""
    return part / base if base else 0.0


def hit_rate(hits: int, misses: int) -> float:
    """hits / (hits + misses); 0.0 with no lookups, the pool's own convention."""
    return ratio(hits, hits + misses)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _covered(intervals: List[Tuple[int, int]]) -> int:
    """Length of the union of half-open intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: Sequence[dict]) -> Dict[int, int]:
    """Each span's duration minus the part of it its children cover.

    ``spans`` are dicts with ``id``, ``start``, ``end`` and ``parent`` (an id
    or ``None``).  Children are clipped to their parent's interval and
    overlapping children count once, so a parent's self time never goes
    negative and a tree of non-overlapping children has self times that
    sum to the root's duration.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"]) if span["parent"] is not None else None
        if parent is None:
            continue
        start = max(span["start"], parent["start"])
        end = min(span["end"], parent["end"])
        if end > start:
            children.setdefault(parent["id"], []).append((start, end))
    return {
        span["id"]: (span["end"] - span["start"]) - _covered(children.get(span["id"], []))
        for span in spans
    }
