"""Finite disjoint unions of open subintervals of (-1, 1).

These stand in for the Borel sets wherever an operation quantifies over
measurable sets: interval unions generate the Borel sigma-algebra and every
closed form in the library is an interval formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real


@dataclass(frozen=True)
class IntervalSet:
    """Sorted, pairwise-disjoint open intervals with endpoints in [-1, 1]."""

    intervals: tuple

    def __init__(self, intervals=()):
        merged = _normalize(intervals)
        object.__setattr__(self, "intervals", merged)

    @staticmethod
    def empty():
        return IntervalSet(())

    @staticmethod
    def full():
        return IntervalSet(((-1.0, 1.0),))

    def measure(self):
        return sum(b - a for a, b in self.intervals)

    def endpoints(self):
        out = []
        for a, b in self.intervals:
            out.extend((a, b))
        return out

    def contains(self, x):
        return any(a < x < b for a, b in self.intervals)

    def is_empty(self):
        return not self.intervals

    def complement(self):
        pieces, prev = [], -1.0
        for a, b in self.intervals:
            if a > prev:
                pieces.append((prev, a))
            prev = b
        if prev < 1.0:
            pieces.append((prev, 1.0))
        return IntervalSet(tuple(pieces))

    def intersect(self, other):
        out = []
        for a, b in self.intervals:
            for c, d in other.intervals:
                lo, hi = max(a, c), min(b, d)
                if lo < hi:
                    out.append((lo, hi))
        return IntervalSet(tuple(out))

    def union(self, other):
        return IntervalSet(self.intervals + other.intervals)

    def __iter__(self):
        return iter(self.intervals)


def as_interval_set(intervals):
    """An IntervalSet, one pair (a, b) or a sequence of pairs as an
    IntervalSet; () is the empty set."""
    if isinstance(intervals, IntervalSet):
        return intervals
    pairs = tuple(intervals)
    if len(pairs) == 2 and all(isinstance(p, Real) for p in pairs):
        pairs = (pairs,)
    return IntervalSet(pairs)


def _normalize(intervals):
    cleaned = []
    for a, b in intervals:
        a, b = float(a), float(b)
        if not (-1.0 <= a < b <= 1.0):
            raise ValueError(f"invalid interval ({a}, {b}): need -1 <= a < b <= 1")
        cleaned.append((a, b))
    cleaned.sort()
    merged = []
    for a, b in cleaned:
        if merged and a <= merged[-1][1]:
            if a < merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:                      # touching intervals stay separate pieces
                merged.append((a, b))
        else:
            merged.append((a, b))
    # overlapping (not merely touching) pieces were merged above; re-check disjointness
    for (a1, b1), (a2, b2) in zip(merged, merged[1:]):
        if a2 < b1:
            raise AssertionError("normalization failed to separate intervals")
    return tuple(merged)
