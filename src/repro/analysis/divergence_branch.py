"""Branch-divergence analysis (case study C, Table 3).

From the basic-block instrumentation: every ``passBasicBlock`` event is
one dynamic basic-block execution by one warp; it is **divergent** when
its active mask is a proper subset of the warp's resident threads (the
warp entered the block with some threads masked off). Table 3 reports,
per application, the number of divergent block executions, the total
number of block executions and their ratio. The analysis also breaks
the counts down per static block, which tells the programmer *which*
branch diverges (the paper: "how often a certain branch causes a warp
to diverge").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.profiler.records import BlockRecord


@dataclass
class _BlockSiteStats:
    executions: int = 0
    divergent: int = 0
    line: int = 0

    @property
    def divergence_rate(self) -> float:
        return self.divergent / self.executions if self.executions else 0.0


@dataclass
class BranchDivergenceProfile:
    """Table 3 row plus per-block breakdown for one kernel/app."""

    total_blocks: int = 0
    divergent_blocks: int = 0
    per_block: Dict[str, _BlockSiteStats] = field(default_factory=dict)

    def add(self, record: BlockRecord) -> None:
        self.total_blocks += 1
        stats = self.per_block.get(record.block_name)
        if stats is None:
            stats = _BlockSiteStats(line=record.line)
            self.per_block[record.block_name] = stats
        stats.executions += 1
        if record.divergent:
            self.divergent_blocks += 1
            stats.divergent += 1

    def merge(self, other: "BranchDivergenceProfile") -> None:
        self.total_blocks += other.total_blocks
        self.divergent_blocks += other.divergent_blocks
        for name, stats in other.per_block.items():
            mine = self.per_block.setdefault(name, _BlockSiteStats(line=stats.line))
            mine.executions += stats.executions
            mine.divergent += stats.divergent

    @property
    def divergence_percent(self) -> float:
        """The Table 3 "% divergence" column."""
        if not self.total_blocks:
            return 0.0
        return 100.0 * self.divergent_blocks / self.total_blocks

    def worst_blocks(self, n: int = 5) -> List[Tuple[str, _BlockSiteStats]]:
        """The most-divergent static blocks, for optimization targeting."""
        ranked = sorted(
            self.per_block.items(), key=lambda kv: -kv[1].divergent
        )
        return ranked[:n]


def branch_divergence_analysis(profile) -> BranchDivergenceProfile:
    """Run over one :class:`KernelProfile` (requires "blocks" mode)."""
    from repro.analysis import aggregates  # which imports this module

    return aggregates.analyze(profile, aggregates.BranchDivergenceAggregate())
