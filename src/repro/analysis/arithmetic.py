"""Arithmetic-instrumentation analysis.

The third optional instrumentation category (Section 3.1-II): per-warp
records of every binary operation. The analyzer derives FLOP counts,
the integer/float mix, the per-opcode histogram and per-source-line
arithmetic intensity (lane-operations per byte accessed), which is a
standard roofline-style metric built by combining the arithmetic and
memory traces.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass
class ArithmeticProfile:
    """Aggregated arithmetic activity of one kernel instance."""

    lane_flops: int = 0
    lane_intops: int = 0
    by_opcode: Counter = field(default_factory=Counter)
    by_line: Counter = field(default_factory=Counter)

    def merge(self, other: "ArithmeticProfile") -> None:
        self.lane_flops += other.lane_flops
        self.lane_intops += other.lane_intops
        self.by_opcode.update(other.by_opcode)
        self.by_line.update(other.by_line)

    @property
    def lane_operations(self) -> int:
        return self.lane_flops + self.lane_intops

    @property
    def float_fraction(self) -> float:
        total = self.lane_operations
        return self.lane_flops / total if total else 0.0

    def arithmetic_intensity(self, bytes_accessed: int) -> float:
        """Lane operations per byte of instrumented global traffic."""
        if bytes_accessed <= 0:
            return 0.0
        return self.lane_operations / bytes_accessed


def arithmetic_analysis(profile) -> ArithmeticProfile:
    """Run over one :class:`KernelProfile` (requires "arith" mode)."""
    from repro.analysis import aggregates  # which imports this module

    return aggregates.analyze(profile, aggregates.ArithmeticAggregate())


def bytes_accessed(profile) -> int:
    """Total instrumented global-memory bytes (for intensity metrics)."""
    total = 0
    for record in profile.memory_records:
        total += record.active_lanes * record.bytes_per_lane
    return total
