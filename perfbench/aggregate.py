"""Aggregation of benchmark samples: medians, quartiles, tail percentile,
fail ratio and span self time. run.py reports through these functions and
test_aggregate.py checks them."""

import fnmatch
import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them;
    a single value is its own quartiles."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, p):
    """Nearest-rank p-th percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values):
    """The highest candidate percentile with at least ten samples beyond
    it, as (p, value), or None when there are too few samples."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= 10:
            return p, percentile(values, p)
    return None


def summarize(values):
    """Median, quartiles, sample count and tail percentile of a series."""
    q1, med, q3 = quartiles(values)
    tail = tail_percentile(values)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "tail": None if tail is None else {"p": tail[0], "value": tail[1]},
    }


def fail_ratio(attempted, failed):
    """Failed operations over attempted operations."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if failed < 0 or failed > attempted:
        raise ValueError("failed count outside [0, attempted]")
    return failed / attempted


def absent_reason(name, absent):
    """The reason recorded for a metric the workload does not measure;
    keys of `absent` are exact names or fnmatch patterns."""
    if name in absent:
        return absent[name]
    for pattern, reason in sorted(absent.items()):
        if fnmatch.fnmatchcase(name, pattern):
            return reason
    return None


def self_times(spans):
    """Per span name: (count, total seconds, self seconds). A span's self
    time is its duration minus the part of it that its direct children
    cover; children that overlap, such as a worker pool's jobs, count
    once."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    out = {}
    for s in spans:
        covered, end = 0.0, s["t0"]
        for c0, c1 in sorted(children.get(s["id"], [])):
            c0, c1 = max(c0, end), min(c1, s["t1"])
            if c1 > c0:
                covered += c1 - c0
                end = c1
        dur = s["t1"] - s["t0"]
        count, total, own = out.get(s["name"], (0, 0.0, 0.0))
        out[s["name"]] = (count + 1, total + dur, own + dur - covered)
    return out
