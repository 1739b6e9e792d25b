"""Reuse-distance analysis (case study A, Figure 4).

Definitions follow Section 4.2-(A) exactly:

* The trace is regrouped **per CTA** (each CTA's accesses form one
  sequential reference stream, lanes serialized in lane order within a
  warp access).
* Reuse distance of an access = number of **distinct** data elements
  accessed between two consecutive uses of the same element.
* **Write restart**: "once an address A is written, we restart its reuse
  distance counting as another address A'" -- modelling the write-evict,
  write-no-allocate GPU L1. Concretely, a read whose element was last
  touched by a write (or never touched) samples the ∞ bucket, matching
  the paper's "∞ = never reused ... or before the next write to it".
* Two granularities: **element-based** (one element per distinct
  address/width) and **cache-line-based** (elements are cache lines).
* **Streaming accesses** (never reused by the same CTA) are counted --
  they are exactly the ∞ samples.

:func:`reuse_distances_of_trace` is the record-at-a-time definition
(a Fenwick tree over access times, O(N log N)); the analyses run the
vectorized streaming cursor of
:class:`~repro.analysis.aggregates.ReuseDistanceAggregate`, which the
differential tests check against it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.profiler.buffers import MemoryColumns
from repro.profiler.records import MemoryOp

#: Figure 4's x-axis buckets: (label, lo, hi) inclusive; ∞ kept separate.
PAPER_BUCKETS: Tuple[Tuple[str, int, int], ...] = (
    ("0", 0, 0),
    ("1-2", 1, 2),
    ("3-8", 3, 8),
    ("9-32", 9, 32),
    ("33-128", 33, 128),
    ("129-512", 129, 512),
    (">512", 513, 1 << 62),
)


class ReuseDistanceModel(str, enum.Enum):
    """The two models CUDAAdvisor offers (Section 4.2-A)."""

    ELEMENT = "element"
    CACHE_LINE = "cache_line"


#: Lower bucket edges for vectorized bucketing (searchsorted).
_BUCKET_LOWS = np.array([lo for _, lo, _ in PAPER_BUCKETS], dtype=np.int64)


class _Fenwick:
    """Fenwick (binary indexed) tree for prefix sums over access times.

    int32 cells: every count is bounded by the number of marked time
    slots, which is bounded by the trace length of one CTA — far below
    2^31. In-flight analysis keeps one tree per (CTA, model) alive
    for a whole kernel, so cell width is a real memory term.
    """

    def __init__(self, size: int):
        self._tree = np.zeros(size + 1, dtype=np.int32)
        self.size = size

    def add(self, index: int, delta: int) -> None:
        i = index + 1
        while i <= self.size:
            self._tree[i] += delta
            i += i & (-i)

    def prefix(self, index: int) -> int:
        """Sum of [0, index]."""
        i = index + 1
        total = 0
        while i > 0:
            total += self._tree[i]
            i -= i & (-i)
        return int(total)

    def range_sum(self, lo: int, hi: int) -> int:
        if hi < lo:
            return 0
        return self.prefix(hi) - (self.prefix(lo - 1) if lo > 0 else 0)


#: An "infinite" distance marker (never reused / killed by a write).
INFINITE = -1


def reuse_distances_of_trace(
    events: Sequence[Tuple[int, bool]],
    write_restart: bool = True,
    reads_only: bool = True,
) -> List[int]:
    """Distances for a single sequential stream of (element, is_write).

    Returns one sample per read (per access if ``reads_only`` is False):
    the reuse distance, or :data:`INFINITE`.

    ``write_restart=False`` gives the classic definition (an ablation
    the benchmarks exercise).
    """
    n = len(events)
    tree = _Fenwick(n)
    last_time: Dict[int, int] = {}
    last_was_write: Dict[int, bool] = {}
    samples: List[int] = []

    for t, (element, is_write) in enumerate(events):
        prev = last_time.get(element)
        sampling = (not is_write) or (not reads_only)
        if sampling:
            if prev is None:
                samples.append(INFINITE)
            elif write_restart and last_was_write.get(element, False):
                samples.append(INFINITE)
            else:
                samples.append(tree.range_sum(prev + 1, t - 1))
        # Update the "most recent access" marker for distinct counting.
        if prev is not None:
            tree.add(prev, -1)
        tree.add(t, +1)
        last_time[element] = t
        last_was_write[element] = is_write
    return samples


@dataclass
class ReuseDistanceHistogram:
    """Aggregated result of the analysis over an entire kernel/app."""

    model: ReuseDistanceModel
    samples: int = 0
    infinite: int = 0  # the ∞ / no-reuse (streaming) bucket
    bucket_counts: List[int] = field(
        default_factory=lambda: [0] * len(PAPER_BUCKETS)
    )
    finite_sum: int = 0
    finite_count: int = 0

    def add_sample(self, distance: int) -> None:
        self.samples += 1
        if distance == INFINITE:
            self.infinite += 1
            return
        self.finite_sum += distance
        self.finite_count += 1
        for i, (_, lo, hi) in enumerate(PAPER_BUCKETS):
            if lo <= distance <= hi:
                self.bucket_counts[i] += 1
                return

    def add_samples(self, distances) -> None:
        """Vectorized :meth:`add_sample` over an array of distances."""
        d = np.asarray(distances, dtype=np.int64)
        if d.size == 0:
            return
        finite = d[d != INFINITE]
        self.samples += int(d.size)
        self.infinite += int(d.size - finite.size)
        self.finite_sum += int(finite.sum())
        self.finite_count += int(finite.size)
        if finite.size:
            idx = np.searchsorted(_BUCKET_LOWS, finite, side="right") - 1
            for i, c in enumerate(
                np.bincount(idx, minlength=len(PAPER_BUCKETS)).tolist()
            ):
                self.bucket_counts[i] += c

    def merge(self, other: "ReuseDistanceHistogram") -> None:
        if other.model != self.model:
            raise AnalysisError("cannot merge histograms of different models")
        self.samples += other.samples
        self.infinite += other.infinite
        self.finite_sum += other.finite_sum
        self.finite_count += other.finite_count
        for i, c in enumerate(other.bucket_counts):
            self.bucket_counts[i] += c

    # -- derived metrics ----------------------------------------------------
    @property
    def frequencies(self) -> Dict[str, float]:
        """Fraction per bucket (paper's y-axis), ∞ included."""
        if self.samples == 0:
            return {label: 0.0 for label, _, _ in PAPER_BUCKETS} | {"inf": 0.0}
        result = {
            label: count / self.samples
            for (label, _, _), count in zip(PAPER_BUCKETS, self.bucket_counts)
        }
        result["inf"] = self.infinite / self.samples
        return result

    @property
    def no_reuse_fraction(self) -> float:
        return self.infinite / self.samples if self.samples else 0.0

    @property
    def average_distance(self) -> float:
        """Mean over finite samples (the paper's conservative plain mean,
        used as R.D. in the Eq.(1) bypass model)."""
        if self.finite_count == 0:
            return 0.0
        return self.finite_sum / self.finite_count

    def fraction_beyond(self, distance: int) -> float:
        """Fraction of samples whose reuse a cache holding ``distance``
        elements likely cannot capture: ∞ samples plus every bucket that
        reaches the capacity (bucket-granular; set associativity makes
        distances *near* capacity miss too, so a bucket counts as soon
        as its upper edge touches the limit)."""
        if self.samples == 0:
            return 0.0
        count = self.infinite
        for (_, lo, hi), c in zip(PAPER_BUCKETS, self.bucket_counts):
            if hi >= distance:
                count += c
        return count / self.samples


def _cta_row_segments(ctas: np.ndarray) -> List[np.ndarray]:
    """Row indices grouped per CTA, ascending CTA id, trace order kept."""
    order = np.argsort(ctas, kind="stable")
    if order.size == 0:
        return []
    bounds = np.flatnonzero(np.diff(ctas[order])) + 1
    return np.split(order, bounds)


def _column_flat_events(
    columns: MemoryColumns,
    rows: np.ndarray,
    model: ReuseDistanceModel,
    line_size: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Lane-serialized (elements, writes) for a set of trace rows.

    Active lanes are flattened in row-major order, i.e. record order
    then lane order -- the same serialization the per-record path uses.
    """
    addrs = columns.addresses[rows]
    mask = columns.mask[rows]
    if model == ReuseDistanceModel.CACHE_LINE:
        elements = addrs // line_size
    else:
        widths = np.maximum(
            columns.bits[rows].astype(np.int64) >> 3, 1
        )
        elements = addrs // widths[:, None]
    is_write = columns.op[rows] != int(MemoryOp.LOAD)
    writes = np.broadcast_to(is_write[:, None], mask.shape)[mask]
    return elements[mask], writes


def reuse_distance_analysis(
    profile,
    model: ReuseDistanceModel = ReuseDistanceModel.ELEMENT,
    line_size: int = 128,
    write_restart: bool = True,
) -> ReuseDistanceHistogram:
    """Run the analysis over one :class:`KernelProfile` (all CTAs).

    The trace is regrouped by CTA ID first, exactly as the paper does,
    then each CTA's stream is analyzed independently and the histograms
    are merged.
    """
    from repro.analysis import aggregates  # which imports this module

    return aggregates.analyze(
        profile,
        aggregates.ReuseDistanceAggregate(model, line_size, write_restart),
    )


def site_reuse_analysis(
    profile,
    model: ReuseDistanceModel = ReuseDistanceModel.ELEMENT,
    line_size: int = 128,
    write_restart: bool = True,
) -> Dict[Tuple[int, int], ReuseDistanceHistogram]:
    """Per-source-site reuse histograms: (line, col) -> histogram.

    This is the per-load view that *vertical* cache bypassing needs
    (Xie et al. [55], discussed in the paper's Section 4.2-D): a load
    whose accesses are mostly never reused should bypass L1, one with
    short reuse should cache. Sites appear in first-encounter order
    (CTAs ascending).
    """
    from repro.analysis import aggregates  # which imports this module

    return aggregates.analyze(
        profile,
        aggregates.SiteReuseAggregate(model, line_size, write_restart),
    )
