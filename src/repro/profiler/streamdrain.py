"""The streaming kernel-exit drain: O(segment) peak memory.

Where the classic drain concatenates every spill segment back into RAM
(:meth:`ColumnarMemoryBuffer.drain`) and runs the analyzers afterwards,
a :class:`StreamDrain` pushes the trace through an
:class:`~repro.analysis.aggregates.AnalyzerBank` **one segment at a
time**: at any moment only the segment(s) being processed are resident,
so drain-time memory is bounded by ``spill_rows``, not by trace length.
Each consumed segment file is deleted immediately.

Two cross-segment concerns are handled here so streamed results stay
byte-identical to the in-RAM drain:

* **Stride sampling** (``sample_rate > 1``) ranks memory and arith
  events jointly by sequence number. The drain merges the two segment
  streams chunk-by-chunk at seq boundaries -- every event up to
  ``min(last seq of the two live segments)`` is guaranteed present, so
  joint ranks assigned with a running counter equal the global ranks
  of the batch :func:`~repro.profiler.buffers.stride_sample`.
* **Capacity** is enforced as keep-first-N per stream with drop
  accounting, matching append-time caps (``sample_rate == 1``) and the
  post-sampling :func:`~repro.profiler.buffers.clip_to_capacity`
  (``sample_rate > 1``).

Fork-parallel shards either merge aggregate-to-aggregate (exact when
no sampling/capacity applies -- see ``HookRuntime.export_shard``) or
relay their spill-segment *files* plus in-memory tails for the parent
to stream (:meth:`StreamDrain.feed_shard_state`), keeping the merge at
O(segment) too.

:class:`FusedSink` drives the same drain *during* execution -- the
default way every profile is analyzed.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

import numpy as np

from repro.errors import ProfilerError, TraceCorruptionError
from repro.profiler.buffers import ArithColumns, BlockColumns, MemoryColumns
from repro.reliability.spill import discard_segment, read_segment

_EMPTY_SEQ = np.zeros(0, dtype=np.int64)


class StreamedRecords:
    """Placeholder for a trace analyzed through an analyzer bank.

    The kept-row count survives (``len()`` keeps buffer accounting,
    statistics and benchmarks working); the records themselves were
    streamed through the bank (in flight, or by the streaming drain)
    and never materialized, so element access raises with a pointer at
    ``profile.aggregates`` and at ``keep_records=True``.
    """

    __slots__ = ("kind", "rows")

    def __init__(self, kind: str, rows: int):
        self.kind = kind
        self.rows = rows

    def __len__(self) -> int:
        return self.rows

    def _gone(self):
        raise ProfilerError(
            f"the {self.kind} trace was analyzed in flight (or by the "
            f"streaming drain) and is not materialized; read results "
            f"from profile.aggregates, or profile with "
            f"CUDAAdvisor(keep_records=True) to keep raw records"
        )

    def __getitem__(self, i):
        self._gone()

    def __iter__(self):
        self._gone()

    def __repr__(self) -> str:
        return f"<StreamedRecords {self.kind}: {self.rows} rows streamed>"


class StreamStats:
    """Counters one streaming drain accumulates (surfaced by the CLI)."""

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

    def absorb(self, other: Dict[str, int]) -> None:
        """Fold in a shard worker's stats (sums; peak is a max)."""
        self.segments_streamed += other.get("segments_streamed", 0)
        self.peak_resident_rows = max(
            self.peak_resident_rows, other.get("peak_resident_rows", 0)
        )
        self.memory_rows += other.get("memory_rows", 0)
        self.block_rows += other.get("block_rows", 0)
        self.arith_rows += other.get("arith_rows", 0)


def _memory_view(payload) -> MemoryColumns:
    return MemoryColumns(*payload)


def _block_view(payload) -> BlockColumns:
    return BlockColumns(*payload[0], payload[1])


def _arith_view(payload) -> ArithColumns:
    return ArithColumns(*payload[0], payload[1])


def _memory_tail(cols: MemoryColumns, cut: int) -> MemoryColumns:
    return MemoryColumns(
        cols.seq[cut:], cols.cta[cut:], cols.warp_in_cta[cut:],
        cols.bits[cut:], cols.line[cut:], cols.col[cut:], cols.op[cut:],
        cols.call_path_id[cut:], cols.addresses[cut:], cols.mask[cut:],
    )


def _arith_tail(cols: ArithColumns, cut: int) -> ArithColumns:
    return ArithColumns(
        cols.seq[cut:], cols.cta[cut:], cols.warp_in_cta[cut:],
        cols.bits[cut:], cols.is_float[cut:], cols.line[cut:],
        cols.col[cut:], cols.active_lanes[cut:], cols.call_path_id[cut:],
        cols.opcodes[cut:],
    )


_TAILS = {"memory": _memory_tail, "arith": _arith_tail}
_VIEWS = {"memory": _memory_view, "block": _block_view, "arith": _arith_view}


class StreamDrain:
    """Drives one streaming kernel-exit drain into an analyzer bank."""

    def __init__(self, bank, sample_rate: int = 1,
                 capacity: Optional[int] = None,
                 on_corrupt: str = "drop"):
        self.bank = bank
        self.rate = sample_rate
        self.capacity = capacity
        self.on_corrupt = on_corrupt
        self.stats = StreamStats()
        #: rows dropped at drain time by the capacity cap.
        self.clipped = 0
        #: relayed-segment rows lost to corruption (shard streaming;
        #: a buffer streaming its own segments counts these itself).
        self.corrupt_rows = 0
        self._rank = 0  # running joint memory+arith stride rank
        self._kept = {"memory": 0, "block": 0, "arith": 0}
        self._resident = {"memory": 0, "block": 0, "arith": 0}

    # -- segment sources ----------------------------------------------------
    def feed_buffers(self, memory_buffer, block_buffer, arith_buffer) -> None:
        """Stream this process's own columnar buffers (serial drain)."""
        self._feed(
            memory_buffer.stream_segments(),
            arith_buffer.stream_segments(),
            block_buffer.stream_segments(),
        )

    def feed_shard_state(self, state: dict) -> None:
        """Stream a shard worker's relayed segment files + tails."""
        self._feed(
            self._relay(state["memory"], "memory"),
            self._relay(state["arith"], "arith"),
            self._relay(state["block"], "block"),
        )

    def _relay(self, part: dict, kind: str) -> Iterator:
        view = _VIEWS[kind]
        paths = list(part["paths"])
        try:
            while paths:
                path = paths.pop(0)
                try:
                    payload = read_segment(path)
                except TraceCorruptionError as exc:
                    if self.on_corrupt == "raise":
                        raise
                    self.corrupt_rows += exc.rows
                    continue
                finally:
                    discard_segment(path)
                yield view(payload)
        finally:
            for path in paths:
                discard_segment(path)
        tail = part.get("tail")
        if tail is not None and len(tail):
            yield tail

    # -- the drain loop -----------------------------------------------------
    def _pull(self, it, key: str):
        seg = next(it, None)
        if seg is None:
            self._resident[key] = 0
            return None
        self.stats.segments_streamed += 1
        self._resident[key] = len(seg)
        self.stats.peak_resident_rows = max(
            self.stats.peak_resident_rows, sum(self._resident.values())
        )
        return seg

    def _feed(self, mem_iter, arith_iter, block_iter) -> None:
        seg = self._pull(block_iter, "block")
        while seg is not None:
            self._emit(seg, None, "block")
            seg = self._pull(block_iter, "block")
        if self.rate == 1:
            for key, it in (("memory", mem_iter), ("arith", arith_iter)):
                seg = self._pull(it, key)
                while seg is not None:
                    self._emit(seg, None, key)
                    seg = self._pull(it, key)
        else:
            self._feed_sampled(mem_iter, arith_iter)

    def _feed_sampled(self, mem_iter, arith_iter) -> None:
        mem = self._pull(mem_iter, "memory")
        ari = self._pull(arith_iter, "arith")
        while mem is not None or ari is not None:
            if mem is not None and not len(mem):
                mem = self._pull(mem_iter, "memory")
                continue
            if ari is not None and not len(ari):
                ari = self._pull(arith_iter, "arith")
                continue
            if ari is None:
                m_cut, a_cut = len(mem), 0
            elif mem is None:
                m_cut, a_cut = 0, len(ari)
            else:
                # Everything up to the smaller stream's last seq is in
                # the two live segments (later segments of either
                # stream only hold larger seqs), so joint ranks over
                # this window -- offset by the running counter -- equal
                # the batch stride_sample's global ranks.
                boundary = min(int(mem.seq[-1]), int(ari.seq[-1]))
                m_cut = int(np.searchsorted(mem.seq, boundary, side="right"))
                a_cut = int(np.searchsorted(ari.seq, boundary, side="right"))
            m_seq = mem.seq[:m_cut] if m_cut else _EMPTY_SEQ
            a_seq = ari.seq[:a_cut] if a_cut else _EMPTY_SEQ
            seqs = np.concatenate([m_seq, a_seq])
            order = np.argsort(seqs, kind="stable")
            ranks = np.empty(seqs.size, dtype=np.int64)
            ranks[order] = np.arange(self._rank, self._rank + seqs.size)
            self._rank += seqs.size
            keep = ranks % self.rate == 0
            if m_cut:
                self._emit(mem, np.flatnonzero(keep[:m_cut]), "memory")
                mem = self._advance(mem, m_cut, mem_iter, "memory")
            if a_cut:
                self._emit(ari, np.flatnonzero(keep[m_cut:]), "arith")
                ari = self._advance(ari, a_cut, arith_iter, "arith")

    def _advance(self, cols, cut: int, it, key: str):
        if cut < len(cols):
            tail = _TAILS[key](cols, cut)
            self._resident[key] = len(tail)
            return tail
        return self._pull(it, key)

    def _emit(self, seg, idx, key: str) -> None:
        """Push (a kept subset of) one segment through the bank,
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


class FusedSink:
    """Pushes kept rows into the analyzer bank *during* execution.

    The fused counterpart of the kernel-exit drain: the three columnar
    buffers flush into this sink whenever they reach segment size (see
    ``_ColumnarBase.sink``), so rows go straight from the hook dispatch
    into the aggregates -- no spill files, no drain pass, and resident
    trace memory stays O(segment) for the whole launch.

    Byte-identity with the streaming drain holds because all three
    buffers share one sequence counter: at any flush, the buffered
    memory+arith rows are exactly the *next contiguous window* of the
    joint event stream, so joint stride ranks assigned with the drain's
    running counter equal the global ranks of the batch
    :func:`~repro.profiler.buffers.stride_sample`. Capacity reuses the
    drain's keep-first cursors; block rows flush independently (each
    aggregate consumes a single stream, so cross-stream interleaving is
    invisible).
    """

    def __init__(self, drain: StreamDrain, memory_buffer, block_buffer,
                 arith_buffer, flush_rows: int):
        self.drain = drain
        self.memory_buffer = memory_buffer
        self.block_buffer = block_buffer
        self.arith_buffer = arith_buffer
        for buffer in (memory_buffer, arith_buffer):
            buffer.sink = self._flush_events
            buffer.sink_rows = flush_rows
        block_buffer.sink = self._flush_blocks
        block_buffer.sink_rows = flush_rows

    def detach(self) -> None:
        """Unhook from the buffers (fused mode disabled pre-launch)."""
        for buffer in (self.memory_buffer, self.block_buffer,
                       self.arith_buffer):
            buffer.sink = None
            buffer.sink_rows = 0

    def flush(self) -> None:
        """Push everything still buffered (called at kernel_end)."""
        self._flush_blocks()
        self._flush_events()

    def _flush_blocks(self, buffer=None) -> None:
        view = self.block_buffer.detach_rows()
        if view is None:
            return
        stats = self.drain.stats
        stats.segments_streamed += 1
        stats.peak_resident_rows = max(
            stats.peak_resident_rows, len(view)
        )
        self.drain._emit(view, None, "block")

    def _flush_events(self, buffer=None) -> None:
        # Memory and arith flush *together*: their buffered rows form
        # one complete seq-prefix window of the joint stream, which is
        # what makes the stride ranks below exact.
        mem = self.memory_buffer.detach_rows()
        ari = self.arith_buffer.detach_rows()
        if mem is None and ari is None:
            return
        drain = self.drain
        stats = drain.stats
        resident = (0 if mem is None else len(mem)) + (
            0 if ari is None else len(ari)
        )
        stats.peak_resident_rows = max(stats.peak_resident_rows, resident)
        stats.segments_streamed += (mem is not None) + (ari is not None)
        if drain.rate == 1:
            if mem is not None:
                drain._emit(mem, None, "memory")
            if ari is not None:
                drain._emit(ari, None, "arith")
            return
        m_seq = mem.seq if mem is not None else _EMPTY_SEQ
        a_seq = ari.seq if ari is not None else _EMPTY_SEQ
        seqs = np.concatenate([m_seq, a_seq])
        order = np.argsort(seqs, kind="stable")
        ranks = np.empty(seqs.size, dtype=np.int64)
        ranks[order] = np.arange(drain._rank, drain._rank + seqs.size)
        drain._rank += seqs.size
        keep = ranks % drain.rate == 0
        if mem is not None:
            drain._emit(mem, np.flatnonzero(keep[: m_seq.size]), "memory")
        if ari is not None:
            drain._emit(ari, np.flatnonzero(keep[m_seq.size:]), "arith")
