"""In-flight analysis: trace rows flow into the analyzer bank as they fill.

The paper copies the device trace buffer out once, at kernel exit. Here
the three columnar buffers instead flush into an
:class:`~repro.analysis.aggregates.AnalyzerBank` whenever they hold
:data:`FLUSH_ROWS` rows, *during* execution (:class:`FusedSink`), so
resident trace memory stays O(flush window) for the whole launch and
the trace is never materialized. A profile that needs raw records keeps
them in RAM instead (``CUDAAdvisor(keep_records=True)``); there is no
third way a trace moves.

Two cross-window concerns keep results identical to analyzing the
whole kept trace at once:

* **Stride sampling** (``sample_rate > 1``) ranks memory and arith
  events jointly by sequence number. All three buffers share one
  sequence counter, so at any flush the buffered memory+arith rows are
  exactly the *next contiguous window* of the joint event stream:
  joint ranks assigned with a running counter equal the global ranks
  of the batch :func:`~repro.profiler.buffers.stride_sample`.
* **Capacity** is enforced as keep-first-N per stream with drop
  accounting, matching append-time caps (``sample_rate == 1``) and the
  post-sampling :func:`~repro.profiler.buffers.clip_to_capacity`
  (``sample_rate > 1``).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import ProfilerError

#: Rows a trace buffer holds before flushing into the analyzer bank.
#: Bounds resident trace memory per launch; the CI ``--rss`` gate's
#: ceilings are measured at this size.
FLUSH_ROWS = 2048

_EMPTY_SEQ = np.zeros(0, dtype=np.int64)


class StreamedRecords:
    """Placeholder for a trace analyzed in flight.

    The kept-row count survives (``len()`` keeps buffer accounting,
    statistics and benchmarks working); the records themselves were
    streamed through the bank and never materialized, so element access
    raises with a pointer at ``profile.aggregates`` and at
    ``keep_records=True``.
    """

    __slots__ = ("kind", "rows")

    def __init__(self, kind: str, rows: int):
        self.kind = kind
        self.rows = rows

    def __len__(self) -> int:
        return self.rows

    def _gone(self):
        raise ProfilerError(
            f"the {self.kind} trace was analyzed in flight and is not "
            f"materialized; read results from profile.aggregates, or "
            f"profile with CUDAAdvisor(keep_records=True) to keep raw "
            f"records"
        )

    def __getitem__(self, i):
        self._gone()

    def __iter__(self):
        self._gone()

    def __repr__(self) -> str:
        return f"<StreamedRecords {self.kind}: {self.rows} rows streamed>"


class StreamStats:
    """Counters one in-flight launch accumulates (surfaced by the CLI)."""

    __slots__ = ("segments_streamed", "peak_resident_rows", "memory_rows",
                 "block_rows", "arith_rows")

    def __init__(self):
        self.segments_streamed = 0
        self.peak_resident_rows = 0
        self.memory_rows = 0
        self.block_rows = 0
        self.arith_rows = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class FusedSink:
    """Pushes kept rows into the analyzer bank *during* execution.

    The three columnar buffers flush into this sink whenever they reach
    ``flush_rows`` (see ``_ColumnarBase.sink``), so rows go straight from
    the hook dispatch into the aggregates. Memory and arith flush
    together (one joint seq window, which keeps stride ranks exact);
    block rows flush independently (each aggregate consumes a single
    stream, so cross-stream interleaving is invisible).
    """

    def __init__(self, bank, memory_buffer, block_buffer, arith_buffer,
                 sample_rate: int = 1, capacity: Optional[int] = None,
                 flush_rows: int = FLUSH_ROWS):
        self.bank = bank
        self.rate = sample_rate
        self.capacity = capacity
        self.stats = StreamStats()
        #: rows dropped by the keep-first capacity cap.
        self.clipped = 0
        self._rank = 0  # running joint memory+arith stride rank
        self._kept = {"memory": 0, "block": 0, "arith": 0}
        self.memory_buffer = memory_buffer
        self.block_buffer = block_buffer
        self.arith_buffer = arith_buffer
        for buffer in (memory_buffer, arith_buffer):
            buffer.sink = self._flush_events
            buffer.sink_rows = flush_rows
        block_buffer.sink = self._flush_blocks
        block_buffer.sink_rows = flush_rows

    def detach(self) -> None:
        """Unhook from the buffers (the sink and buffers form a cycle)."""
        for buffer in (self.memory_buffer, self.block_buffer,
                       self.arith_buffer):
            buffer.sink = None
            buffer.sink_rows = 0

    def flush(self) -> None:
        """Push everything still buffered (called at kernel_end)."""
        self._flush_blocks()
        self._flush_events()

    def _flush_blocks(self, buffer=None) -> None:
        self._blocks(self.block_buffer.detach_rows())

    def _flush_events(self, buffer=None) -> None:
        self._window(self.memory_buffer.detach_rows(),
                     self.arith_buffer.detach_rows())

    def _blocks(self, view) -> None:
        if view is None:
            return
        stats = self.stats
        stats.segments_streamed += 1
        stats.peak_resident_rows = max(stats.peak_resident_rows, len(view))
        self._emit(view, None, "block")

    def _window(self, mem, ari) -> None:
        """One complete seq window of the joint memory+arith stream."""
        if mem is None and ari is None:
            return
        stats = self.stats
        resident = (0 if mem is None else len(mem)) + (
            0 if ari is None else len(ari)
        )
        stats.peak_resident_rows = max(stats.peak_resident_rows, resident)
        stats.segments_streamed += (mem is not None) + (ari is not None)
        if self.rate == 1:
            if mem is not None:
                self._emit(mem, None, "memory")
            if ari is not None:
                self._emit(ari, None, "arith")
            return
        m_seq = mem.seq if mem is not None else _EMPTY_SEQ
        a_seq = ari.seq if ari is not None else _EMPTY_SEQ
        seqs = np.concatenate([m_seq, a_seq])
        order = np.argsort(seqs, kind="stable")
        ranks = np.empty(seqs.size, dtype=np.int64)
        ranks[order] = np.arange(self._rank, self._rank + seqs.size)
        self._rank += seqs.size
        keep = ranks % self.rate == 0
        if mem is not None:
            self._emit(mem, np.flatnonzero(keep[: m_seq.size]), "memory")
        if ari is not None:
            self._emit(ari, np.flatnonzero(keep[m_seq.size:]), "arith")

    def _emit(self, seg, idx, key: str) -> None:
        """Push (a kept subset of) one window through the bank,
        enforcing the per-stream keep-first-capacity contract."""
        rows = len(seg) if idx is None else len(idx)
        if not rows:
            return
        if self.capacity is not None:
            allow = self.capacity - self._kept[key]
            if allow <= 0:
                self.clipped += rows
                return
            if rows > allow:
                self.clipped += rows - allow
                rows = allow
                idx = np.arange(allow) if idx is None else idx[:allow]
        if idx is not None and (len(idx) != len(seg)):
            seg = seg.take(idx)
        self._kept[key] += rows
        if key == "memory":
            self.stats.memory_rows += rows
            self.bank.update_memory(seg)
        elif key == "block":
            self.stats.block_rows += rows
            self.bank.update_block(seg)
        else:
            self.stats.arith_rows += rows
            self.bank.update_arith(seg)
