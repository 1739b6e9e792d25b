"""Memory-divergence analysis (case study B, Figure 5).

Per instrumented warp memory instruction, the number of **unique cache
lines touched** by the active lanes (1 = fully coalesced ... 32 = fully
divergent; the x-axis of Figure 5). The per-application distribution and
the weighted-average **memory divergence degree** (used as M.D. in the
Eq.(1) bypass model) are computed from the trace -- the line size is an
analysis parameter, so one trace yields both the Kepler (128 B) and
Pascal (32 B) views.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.profiler.buffers import MemoryColumns

#: Row-chunk size for the vectorized unique-line pass (bounds the
#: temporary (rows, 2*warp_size) matrices to a few MB).
_CHUNK_ROWS = 32768


def _column_unique_line_counts(
    columns: MemoryColumns, line_size: int
) -> np.ndarray:
    """Unique cache lines touched per trace row, vectorized.

    Equivalent to ``len(coalesce(addresses, mask, width, line_size))``
    per record: both the first and last line of every active lane's
    access are collected, inactive lanes become a sentinel, and distinct
    non-sentinel values are counted per row-sorted row.
    """
    n = len(columns)
    out = np.empty(n, dtype=np.int64)
    for lo in range(0, n, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, n)
        addrs = columns.addresses[lo:hi]
        mask = columns.mask[lo:hi]
        widths = np.maximum(columns.bits[lo:hi].astype(np.int64) >> 3, 1)
        first = addrs // line_size
        last = (addrs + widths[:, None] - 1) // line_size
        vals = np.where(
            np.concatenate([mask, mask], axis=1),
            np.concatenate([first, last], axis=1),
            -1,
        )
        vals.sort(axis=1)
        out[lo:hi] = (vals[:, 0] != -1).astype(np.int64) + (
            (vals[:, 1:] != vals[:, :-1]) & (vals[:, 1:] != -1)
        ).sum(axis=1)
    return out


@dataclass
class MemoryDivergenceProfile:
    """Distribution of unique-cache-lines-touched per warp instruction."""

    line_size: int
    warp_size: int = 32
    counts: Counter = field(default_factory=Counter)

    def add(self, unique_lines: int) -> None:
        self.counts[unique_lines] += 1

    def merge(self, other: "MemoryDivergenceProfile") -> None:
        self.counts.update(other.counts)

    @property
    def instructions(self) -> int:
        return sum(self.counts.values())

    @property
    def distribution(self) -> Dict[int, float]:
        """Fraction of instructions per unique-line count (Figure 5)."""
        total = self.instructions
        if not total:
            return {}
        return {k: v / total for k, v in sorted(self.counts.items())}

    @property
    def divergence_degree(self) -> float:
        """Average of the weighted sum of the distribution (the paper's
        summary metric; 1.0 means perfectly coalesced)."""
        total = self.instructions
        if not total:
            return 0.0
        return sum(k * v for k, v in self.counts.items()) / total

    def fraction_at(self, unique_lines: int) -> float:
        total = self.instructions
        return self.counts.get(unique_lines, 0) / total if total else 0.0

    def top_sites(self) -> List[Tuple[int, int]]:
        """(unique_lines, count) sorted by divergence, worst first."""
        return sorted(self.counts.items(), key=lambda kv: -kv[0])


def memory_divergence_analysis(
    profile, line_size: int
) -> MemoryDivergenceProfile:
    """Distribution over all instrumented accesses of one kernel profile."""
    from repro.analysis import aggregates  # which imports this module

    return aggregates.analyze(
        profile, aggregates.MemoryDivergenceAggregate(line_size)
    )


def divergent_sites(
    profile, line_size: int, threshold: int = 2
) -> Dict[Tuple[int, int], int]:
    """Source locations (line, col) with divergent accesses and their
    event counts, in first-encounter order -- the lookup behind the
    Figure 8 debugging view."""
    from repro.analysis import aggregates  # which imports this module

    return aggregates.analyze(
        profile, aggregates.DivergentSitesAggregate(line_size, threshold)
    )
