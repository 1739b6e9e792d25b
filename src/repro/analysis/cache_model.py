"""Reuse-distance-theoretic cache modelling.

The paper motivates reuse distance as the tool for cache-design studies
("combined with other detailed information ... it can be used to help
architects predict optimal cache design such as size and
associativity", citing Nugteren et al.'s reuse-distance GPU cache
model). This module implements that use case:

* :func:`stack_distances` -- exact LRU **stack** distances for a
  per-CTA line trace under GPU write semantics (write-evict /
  write-no-allocate). Unlike plain reuse distances, intervening writes
  are handled the way the cache handles them: a write drops its line
  but leaves a *hole* in the stack (the freed way cannot undo a
  capacity eviction that already happened deeper in the stack); a cold
  fill consumes the topmost hole, and a re-reference from below a hole
  sinks that hole to the referenced depth. With that accounting the
  classic theorem holds exactly: *a read hits a fully-associative LRU
  cache of capacity C iff its stack distance is < C*.
* :func:`hit_rate_curve` -- predicted hit rate for every candidate
  capacity from one pass over the trace.
* :func:`recommend_l1_size` -- the smallest capacity within a tolerance
  of the best achievable hit rate (the "optimal cache size" question).
"""

from __future__ import annotations

import bisect
import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.reuse_distance import _Fenwick, INFINITE


def stack_distances(events: Sequence[Tuple[int, bool]]) -> List[int]:
    """LRU stack distance per read of a (line, is_write) stream.

    Returns one entry per *read*: the number of occupied stack slots
    (distinct lines plus write-evict holes) above the accessed line in
    the LRU stack (INFINITE when the line is not resident -- first touch
    or killed by a write).
    """
    n = len(events)
    tree = _Fenwick(n)
    position: Dict[int, int] = {}  # line -> time of its stack slot
    holes: List[int] = []  # max-heap (negated) of write-evict hole slots
    samples: List[int] = []

    for t, (line, is_write) in enumerate(events):
        prev = position.get(line)
        if is_write:
            # Write-evict / write-no-allocate: the line is dropped but
            # its slot stays as a hole -- the freed way cannot undo a
            # capacity eviction that already happened below this depth.
            if prev is not None:
                heapq.heappush(holes, -prev)
                del position[line]
            continue
        if prev is None:
            samples.append(INFINITE)
            # A cold fill occupies the freed way of every cache deep
            # enough to see the topmost hole; consume it.
            if holes:
                tree.add(-heapq.heappop(holes), -1)
        else:
            samples.append(tree.range_sum(prev + 1, t - 1))
            if holes and -holes[0] > prev:
                # Caches too small to hold the line (hole above it in
                # their LRU window) fill the free way; caches that hit
                # keep their hole at the same count. Both are captured
                # by sinking the topmost hole to the line's old slot:
                # the hole's slot empties, the line's old slot becomes
                # the hole.
                hole = -heapq.heapreplace(holes, -prev)
                tree.add(hole, -1)
            else:
                tree.add(prev, -1)
        tree.add(t, +1)
        position[line] = t
    return samples


@dataclass
class HitRateCurve:
    """Predicted read-hit rate as a function of capacity (in lines)."""

    capacities: List[int]
    hit_rates: List[float]
    reads: int
    line_size: int

    def rate_at(self, capacity: int) -> float:
        best = 0.0
        for c, r in zip(self.capacities, self.hit_rates):
            if c <= capacity:
                best = r
        return best

    @property
    def max_rate(self) -> float:
        return self.hit_rates[-1] if self.hit_rates else 0.0

    def render(self, label: str = "") -> str:
        lines = [f"Predicted L1 hit rate vs capacity {label}".rstrip()]
        for c, r in zip(self.capacities, self.hit_rates):
            kb = c * self.line_size / 1024
            lines.append(f"  {kb:7.1f} KB ({c:5d} lines): {100 * r:5.1f}%")
        return "\n".join(lines)


@dataclass
class StackDistanceSummary:
    """Exact stack-distance histogram: distance -> number of reads.

    What :func:`profile_stack_distances` returns (built by
    :class:`~repro.analysis.aggregates.StackDistanceAggregate`): every
    finite distance with its multiplicity plus the ∞ count, which is
    all :func:`hit_rate_curve` ever consumes -- so the derived curve is
    float-for-float identical to one over the raw samples, at
    O(distinct distances) memory instead of O(reads).
    """

    counts: Counter  # finite stack distance -> read count
    infinite: int = 0
    line_size: int = 128

    def merge(self, other: "StackDistanceSummary") -> None:
        self.counts.update(other.counts)
        self.infinite += other.infinite

    @property
    def reads(self) -> int:
        return self.infinite + sum(self.counts.values())

    def curve(self, capacities: Sequence[int],
              line_size: Optional[int] = None) -> HitRateCurve:
        """Same mapping as :func:`hit_rate_curve` over the raw samples:
        a read with finite distance d hits the first capacity > d."""
        capacities = sorted(capacities)
        counts = [0] * len(capacities)
        reads = self.reads
        for d, c in sorted(self.counts.items()):
            i = bisect.bisect_right(capacities, d)
            if i < len(capacities):
                counts[i] += c
        running = 0
        rates: List[float] = []
        for count in counts:
            running += count
            rates.append(running / reads if reads else 0.0)
        return HitRateCurve(
            list(capacities), rates, reads,
            self.line_size if line_size is None else line_size,
        )


def hit_rate_curve(
    distance_samples: Iterable[int],
    capacities: Sequence[int],
    line_size: int = 128,
) -> HitRateCurve:
    """Evaluate every candidate capacity from precomputed distances.

    Accepts either an iterable of raw distance samples or a
    :class:`StackDistanceSummary` (the in-flight aggregate's histogram).
    """
    if isinstance(distance_samples, StackDistanceSummary):
        return distance_samples.curve(capacities, line_size)
    capacities = sorted(capacities)
    counts = [0] * len(capacities)
    reads = 0
    for d in distance_samples:
        reads += 1
        if d == INFINITE:
            continue
        for i, c in enumerate(capacities):
            if d < c:
                counts[i] += 1
                break
    # Prefix-sum: capacity c captures every distance below it.
    running = 0
    rates = []
    for count in counts:
        running += count
        rates.append(running / reads if reads else 0.0)
    return HitRateCurve(list(capacities), rates, reads, line_size)


def profile_stack_distances(
    profile, line_size: int = 128
) -> StackDistanceSummary:
    """Per-CTA line-granular stack distances of one kernel profile, as
    an exact distance -> read-count table."""
    from repro.analysis import aggregates  # which imports this module

    return aggregates.analyze(
        profile, aggregates.StackDistanceAggregate(line_size)
    )


@dataclass
class CacheSizeRecommendation:
    curve: HitRateCurve
    recommended_lines: int
    recommended_bytes: int
    achieved_rate: float
    tolerance: float

    def render(self) -> str:
        return (
            f"smallest L1 within {100 * self.tolerance:.0f}% of the best "
            f"achievable hit rate: {self.recommended_bytes // 1024} KB "
            f"({self.recommended_lines} lines, predicted "
            f"{100 * self.achieved_rate:.1f}% hits)"
        )


def recommend_l1_size(
    profile,
    line_size: int = 128,
    capacities: Optional[Sequence[int]] = None,
    tolerance: float = 0.02,
) -> CacheSizeRecommendation:
    """The architect's question: how much L1 does this kernel want?"""
    if capacities is None:
        capacities = [2 ** k for k in range(4, 13)]  # 16 .. 4096 lines
    distances = profile_stack_distances(profile, line_size)
    curve = hit_rate_curve(distances, capacities, line_size)
    target = curve.max_rate - tolerance
    chosen = curve.capacities[-1]
    achieved = curve.max_rate
    for c, r in zip(curve.capacities, curve.hit_rates):
        if r >= target:
            chosen, achieved = c, r
            break
    return CacheSizeRecommendation(
        curve=curve,
        recommended_lines=chosen,
        recommended_bytes=chosen * line_size,
        achieved_rate=achieved,
        tolerance=tolerance,
    )
