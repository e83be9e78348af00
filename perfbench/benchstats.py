"""Order statistics and span arithmetic used by the benchmark report."""
from __future__ import annotations

import math
import statistics

TAIL_LADDER = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(round(q / 100.0 * len(ordered), 9)))
    return ordered[rank - 1]


def tail_rank(n):
    """Highest percentile on the ladder with at least MIN_BEYOND samples above
    it, or None when n is too small for any."""
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9:
            return q
    return None


def latency_summary(values):
    """Median plus the tail percentile the sample count supports."""
    out = {"n": len(values), "p50": statistics.median(values)}
    q = tail_rank(len(values))
    if q is not None:
        out["tail_q"] = q
        out["tail"] = percentile(values, q)
    return out


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover.

    spans: sequence of (name, start, end, parent, run_id) where parent is the
    index of the parent span or -1.
    """
    children = [[] for _ in spans]
    for idx, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        clipped = [(max(start, spans[c][1]), min(end, spans[c][2]))
                   for c in children[idx]]
        clipped = [(a, b) for a, b in clipped if b > a]
        out.append((end - start) - _covered(clipped))
    return out
