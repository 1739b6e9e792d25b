"""The per-launch hook runtime and the resulting kernel profile.

One :class:`HookRuntime` exists per kernel launch (the paper's "online
component ... invoked at the end of each kernel instance"). During the
launch it receives every hook call from the interpreter; at kernel exit
(`kernel_end`) it drains the device trace buffers into an immutable
:class:`KernelProfile` that the analyzers consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ProfilerError
from repro.host.shadow_stack import HostFrame
from repro.profiler.buffers import (
    ColumnarArithBuffer,
    ColumnarBlockBuffer,
    ColumnarMemoryBuffer,
    clip_to_capacity,
    stride_sample,
)
from repro.reliability.spill import SpillConfig
from repro.reliability.supervisor import TRACE_SEGMENT_CORRUPT
from repro.profiler.codecentric import CallPathRegistry, GPUPathEntry
from repro.profiler.streamdrain import FusedSink, StreamDrain, StreamedRecords
from repro.profiler.records import (
    ArithRecord,
    BlockRecord,
    MemoryAccessRecord,
    MemoryOp,
)


@dataclass
class KernelProfile:
    """Everything collected for one kernel instance."""

    kernel: str
    host_call_path: Tuple[HostFrame, ...]
    launch_site: str
    grid: Tuple[int, int, int]
    block: Tuple[int, int, int]
    num_ctas: int
    warps_per_cta: int
    #: Sequence of records; the fast path stores MemoryColumns /
    #: BlockColumns / ArithColumns (lazy record views over numpy
    #: columns), hand-built profiles may use plain lists.
    memory_records: Sequence[MemoryAccessRecord]
    block_records: Sequence[BlockRecord]
    arith_records: Sequence[ArithRecord]
    call_paths: CallPathRegistry
    functions_by_id: list
    dropped_records: int
    launch_result: object = None  # LaunchResult, attached at kernel_end
    #: rows that overflowed to disk spill segments during the launch
    #: (lossless; see docs/reliability.md) and rows lost to corrupted
    #: segments (already included in ``dropped_records``).
    spilled_records: int = 0
    corrupt_records: int = 0
    #: launches analyzed through a bank (in flight, or by the streaming
    #: drain): the sealed
    #: :class:`~repro.analysis.aggregates.AnalyzerBank` holding every
    #: analyzer's result (the records above are
    #: :class:`~repro.profiler.streamdrain.StreamedRecords`
    #: placeholders), plus the drain's counters for reporting.
    aggregates: object = None
    stream_stats: Optional[dict] = None

    # -- convenience -----------------------------------------------------------
    def memory_records_by_cta(self) -> Dict[int, List[MemoryAccessRecord]]:
        """Regroup the trace per CTA (the paper's reuse-distance prep)."""
        grouped: Dict[int, List[MemoryAccessRecord]] = {}
        for record in self.memory_records:
            grouped.setdefault(record.cta, []).append(record)
        return grouped


class HookRuntime:
    """Receives instrumented-call events for one launch."""

    def __init__(
        self,
        image,
        kernel: str,
        host_call_path: Tuple[HostFrame, ...],
        launch_site: str,
        buffer_capacity: Optional[int] = None,
        sample_rate: int = 1,
        spill: Optional[SpillConfig] = None,
        streaming=None,
        fused=None,
    ):
        if sample_rate < 1:
            raise ProfilerError("sample_rate must be >= 1")
        if fused is not None and streaming is not None:
            raise ProfilerError(
                "fused and streaming are mutually exclusive: fused "
                "analysis already streams rows through the bank in "
                "flight"
            )
        self.image = image
        self.kernel = kernel
        self.host_call_path = host_call_path
        self.launch_site = launch_site
        #: record every Nth memory/arith event (the paper's Section 5
        #: overhead-reduction direction); call-path and block events are
        #: never sampled (the shadow stacks must stay exact). Sampling
        #: is a drain-time stride filter over the merged trace (see
        #: :func:`repro.profiler.buffers.stride_sample`), so sampled
        #: launches still use the parallel/batched fast paths; the
        #: memory/arith buffers run uncapped during the launch and the
        #: capacity is applied to the filtered rows at kernel_end.
        self.sample_rate = sample_rate
        self._capacity = buffer_capacity
        #: an :class:`~repro.analysis.aggregates.AnalyzerPlan` (or None):
        #: when set, kernel_end streams spill segments through the
        #: plan's analyzer bank instead of materializing the trace, and
        #: the profile carries ``aggregates`` + StreamedRecords
        #: placeholders. The plan itself is never pickled -- shard
        #: workers inherit it through fork.
        self._streaming = streaming
        #: an :class:`~repro.analysis.aggregates.AnalyzerPlan` (or None):
        #: fused in-flight analysis -- the buffers flush into the plan's
        #: bank at segment granularity *during* execution (no spill I/O,
        #: no drain pass; see streamdrain.FusedSink). Byte-identical to
        #: streaming; disabled per launch when raw records are needed
        #: (``disable_fused``).
        self._fused = fused
        self._shard_states: List[dict] = []

        # -- reliability wiring (docs/reliability.md) ---------------------
        # The device's failure policy picks the drain-time behaviour for
        # corrupted spill segments, and its fault injector can force a
        # tiny spill-segment size (the buffer_overflow injection point)
        # so overflow handling is exercised without a huge trace.
        device = getattr(image, "device", None)
        policy = getattr(device, "failure_policy", "degrade")
        injector = getattr(device, "fault_injector", None)
        if injector is not None:
            params = injector.fire("buffer_overflow", kernel=kernel)
            if params is not None:
                spill = SpillConfig(
                    directory=spill.directory if spill else None,
                    segment_rows=int(params.get("segment_rows", 256)),
                )
        if spill is not None:
            spill.on_corrupt = "raise" if policy == "strict" else "drop"
            spill.injector = injector
        self._spill = spill

        event_capacity = buffer_capacity if sample_rate == 1 else None
        # Fused launches never spill: rows leave the buffers through the
        # sink before a segment could hit disk. The buffer_overflow
        # injection's tiny segment size still applies -- as the flush
        # granularity -- so overflow handling stays exercised.
        buffer_spill = None if fused is not None else spill
        self.memory_buffer = ColumnarMemoryBuffer(event_capacity, buffer_spill)
        self.block_buffer = ColumnarBlockBuffer(buffer_capacity, buffer_spill)
        self.arith_buffer = ColumnarArithBuffer(event_capacity, buffer_spill)
        self.call_paths = CallPathRegistry()

        self._fused_bank = None
        self._fused_drain = None
        self._fused_sink = None
        self._fused_flush_rows = (
            spill.segment_rows if spill is not None else 65536
        )
        if fused is not None:
            self._attach_fused_sink()

        self._seq = 0
        self._launch_info: Optional[dict] = None
        #: per-warp shadow stacks: global warp id -> list[GPUPathEntry]
        self._warp_stacks: Dict[int, List[GPUPathEntry]] = {}
        #: per-warp interned path id, invalidated by cupr.push/pop
        self._warp_path_ids: Dict[int, int] = {}
        #: constant-arena address -> string (string_at scans linearly)
        self._strings: Dict[int, str] = {}
        self._root_entry: Optional[GPUPathEntry] = None
        self.profile: Optional[KernelProfile] = None
        self.on_complete = None  # callable(profile), set by the session

    @property
    def _on_corrupt(self) -> str:
        return "drop" if self._spill is None else self._spill.on_corrupt

    def _attach_fused_sink(self) -> None:
        """Wire the current buffers into a fresh fused bank + drain."""
        self._fused_bank = self._fused.create_bank()
        self._fused_drain = StreamDrain(
            self._fused_bank, self.sample_rate, self._capacity,
            self._on_corrupt,
        )
        self._fused_sink = FusedSink(
            self._fused_drain, self.memory_buffer, self.block_buffer,
            self.arith_buffer, self._fused_flush_rows,
        )

    @property
    def fused(self) -> bool:
        """Whether this launch analyzes rows in flight (no raw trace)."""
        return self._fused is not None

    def disable_fused(self) -> None:
        """Back out of fused mode before any hook fires.

        Called by ``Device.launch`` (after degrading with
        ``FUSED_RECORDS_UNAVAILABLE``) when the launch needs raw trace
        records -- e.g. pc sampling. The buffers are still empty, so
        they are rebuilt with the classic capacity/spill wiring and the
        launch materializes its trace exactly as a non-fused run.
        """
        if self._fused is None:
            return
        self._fused_sink.detach()
        self._fused = None
        self._fused_bank = None
        self._fused_drain = None
        self._fused_sink = None
        event_capacity = (
            self._capacity if self.sample_rate == 1 else None
        )
        self.memory_buffer = ColumnarMemoryBuffer(event_capacity, self._spill)
        self.block_buffer = ColumnarBlockBuffer(self._capacity, self._spill)
        self.arith_buffer = ColumnarArithBuffer(event_capacity, self._spill)

    # -- interpreter-facing API -----------------------------------------------------
    def kernel_begin(self, launch_info: dict) -> None:
        self._launch_info = launch_info
        kernel_id = self.image.function_ids[self.kernel]
        self._root_entry = GPUPathEntry(kernel_id, 0, 0)

    def dispatch(self, name: str, args, mask, warp, ctx, nactive=None) -> None:
        if name == "Record":
            self._on_record(args, mask, warp)
        elif name == "passBasicBlock":
            self._on_block(args, mask, warp, nactive)
        elif name == "RecordArith":
            self._on_arith(args, mask, warp, nactive)
        elif name == "cupr.push":
            self._on_push(args, warp)
        elif name == "cupr.pop":
            self._on_pop(warp)
        else:
            raise ProfilerError(f"unknown hook @{name}")

    def kernel_end(self, launch_result) -> None:
        if self._fused is not None or self._streaming is not None:
            self._kernel_end_bank(launch_result)
            return
        info = self._launch_info or {}
        memory = self.memory_buffer.drain()
        arith = self.arith_buffer.drain()
        block = self.block_buffer.drain()
        clipped = 0
        if self.sample_rate > 1:
            memory, arith = stride_sample(memory, arith, self.sample_rate)
            memory, n = clip_to_capacity(memory, self._capacity)
            clipped += n
            arith, n = clip_to_capacity(arith, self._capacity)
            clipped += n
        buffers = (self.memory_buffer, self.block_buffer, self.arith_buffer)
        corrupt = sum(b.corrupt_dropped for b in buffers)
        if corrupt:
            self._report_corruption(corrupt)
        self._complete(KernelProfile(
            kernel=self.kernel,
            host_call_path=self.host_call_path,
            launch_site=self.launch_site,
            grid=info.get("grid", (0, 0, 0)),
            block=info.get("block", (0, 0, 0)),
            num_ctas=info.get("num_ctas", 0),
            warps_per_cta=info.get("warps_per_cta", 0),
            memory_records=memory,
            block_records=block,
            arith_records=arith,
            call_paths=self.call_paths,
            functions_by_id=self.image.functions_by_id,
            dropped_records=sum(b.dropped for b in buffers) + clipped,
            launch_result=launch_result,
            spilled_records=sum(b.spilled for b in buffers),
            corrupt_records=corrupt,
        ))

    def _kernel_end_bank(self, launch_result) -> None:
        """Finish a launch whose rows went through an analyzer bank.

        In flight (``fused``), own rows already streamed through the
        bank during execution and only a sub-segment tail remains to
        flush. The streaming drain instead pushes the spill segments
        through a fresh bank one at a time (O(segment) peak memory,
        files deleted as consumed). Either way shard states merge
        first, in SM order -- safe for the fused bank because a
        fork-parallel launch never dispatches hooks in the parent --
        and stride sampling and capacity run on the drain's cursors, so
        the kept rows match the in-RAM drain exactly.
        """
        info = self._launch_info or {}
        if self._fused is not None:
            bank, drain = self._fused_bank, self._fused_drain
        else:
            bank = self._streaming.create_bank()
            drain = StreamDrain(
                bank, self.sample_rate, self._capacity, self._on_corrupt
            )
        shard_dropped = shard_spilled = shard_corrupt = 0
        states, self._shard_states = self._shard_states, []
        for state in states:
            acct = state["accounting"]
            shard_dropped += acct["dropped"]
            shard_spilled += acct["spilled"]
            shard_corrupt += acct["corrupt"]
            if "bank" in state:
                # Exact aggregate-to-aggregate merge (no sampling or
                # capacity in play -- see export_shard).
                bank.merge(state["bank"])
                drain.stats.absorb(state["stats"])
            else:
                drain.feed_shard_state(state)
        if self._fused is not None:
            self._fused_sink.flush()
            # The buffers' sinks are bound methods of the sink, which
            # holds the buffers: unhook so nothing outlives the launch
            # through that cycle.
            self._fused_sink.detach()
        else:
            drain.feed_buffers(
                self.memory_buffer, self.block_buffer, self.arith_buffer
            )
        buffers = (self.memory_buffer, self.block_buffer, self.arith_buffer)
        corrupt = (
            sum(b.corrupt_dropped for b in buffers)
            + drain.corrupt_rows
            + shard_corrupt
        )
        if corrupt:
            self._report_corruption(corrupt)
        # Finalize results and release cursor state: the profile keeps
        # the bank for the session, so only one launch's drain-time
        # state is ever alive at a time.
        bank.seal()
        stats = drain.stats
        self._complete(KernelProfile(
            kernel=self.kernel,
            host_call_path=self.host_call_path,
            launch_site=self.launch_site,
            grid=info.get("grid", (0, 0, 0)),
            block=info.get("block", (0, 0, 0)),
            num_ctas=info.get("num_ctas", 0),
            warps_per_cta=info.get("warps_per_cta", 0),
            memory_records=StreamedRecords("memory", stats.memory_rows),
            block_records=StreamedRecords("block", stats.block_rows),
            arith_records=StreamedRecords("arith", stats.arith_rows),
            call_paths=self.call_paths,
            functions_by_id=self.image.functions_by_id,
            dropped_records=(
                sum(b.dropped for b in buffers)  # includes own corrupt
                + drain.clipped
                + drain.corrupt_rows
                + shard_dropped
            ),
            launch_result=launch_result,
            spilled_records=sum(b.spilled for b in buffers) + shard_spilled,
            corrupt_records=corrupt,
            aggregates=bank,
            stream_stats=stats.as_dict(),
        ))

    def _complete(self, profile: KernelProfile) -> None:
        self.profile = profile
        if self.on_complete is not None:
            self.on_complete(profile)

    def _report_corruption(self, rows: int) -> None:
        """Surface dropped-corrupt-segment rows through the supervisor."""
        device = getattr(self.image, "device", None)
        supervisor = getattr(device, "supervisor", None)
        if supervisor is not None:
            supervisor.degrade(
                TRACE_SEGMENT_CORRUPT,
                self.kernel,
                f"{rows} trace rows lost to corrupted spill segments "
                f"for kernel {self.kernel!r}; analyses run on the "
                f"surviving rows",
                rows=rows,
            )

    # -- parallel-launch sharding -------------------------------------------------------
    def reset_for_shard(self) -> None:
        """Reinitialize trace state inside a forked shard worker.

        Shard buffers are uncapped: the parent enforces the global
        capacity when it absorbs the shards in SM order, so the drop set
        matches a serial run exactly. Spill stays active (a shard's
        segments are written and drained inside the worker).
        """
        shard_spill = None if self._fused is not None else self._spill
        self.memory_buffer = ColumnarMemoryBuffer(None, shard_spill)
        self.block_buffer = ColumnarBlockBuffer(None, shard_spill)
        self.arith_buffer = ColumnarArithBuffer(None, shard_spill)
        self.call_paths = CallPathRegistry()
        self._seq = 0
        self._warp_stacks = {}
        self._warp_path_ids = {}
        self._shard_states = []
        if self._fused is not None:
            if self.sample_rate == 1 and self._capacity is None:
                # The shard's kept rows are exactly its trace, so it
                # can fuse locally and ship its bank.
                self._attach_fused_sink()
            else:
                # Stride phase / keep-first cutoff depend on earlier
                # shards' row counts: materialize in RAM and relay the
                # rows for the parent's running cursors.
                self._fused_bank = None
                self._fused_drain = None
                self._fused_sink = None

    def export_shard(self) -> dict:
        """Pickleable trace state a shard worker sends back.

        In-RAM launches ship their drained columns. Bank launches ship
        a bank when the shard's kept rows are exactly its trace (no
        sampling, no capacity): the fused bank already holds them, a
        streaming worker drains its own spill through a fresh bank, and
        the parent merges aggregate-to-aggregate. Otherwise (stride
        phase / keep-first cutoff depend on predecessor shards' row
        counts) the worker relays its spill segment **files** plus the
        in-memory tails, and the parent streams them through its own
        drain with running cursors.
        """
        if self._fused is None and self._streaming is None:
            return {
                "memory": self.memory_buffer.drain(),
                "block": self.block_buffer.drain(),
                "arith": self.arith_buffer.drain(),
                "paths": list(self.call_paths._paths),
                "seq_total": self._seq,
            }
        buffers = (self.memory_buffer, self.block_buffer, self.arith_buffer)
        state = {
            "paths": list(self.call_paths._paths),
            "seq_total": self._seq,
        }
        if self._fused_sink is not None:
            self._fused_sink.flush()
            self._fused_sink.detach()
            state["bank"] = self._fused_bank
            state["stats"] = self._fused_drain.stats.as_dict()
        elif (self._streaming is not None and self.sample_rate == 1
              and self._capacity is None):
            bank = self._streaming.create_bank()
            drain = StreamDrain(bank, 1, None, self._on_corrupt)
            drain.feed_buffers(*buffers)
            state["bank"] = bank
            state["stats"] = drain.stats.as_dict()
        else:
            for kind, buffer in zip(("memory", "block", "arith"), buffers):
                state[kind] = buffer.export_stream_state()
        # After the feed / detach, so worker-side corrupt drops count.
        state["accounting"] = {
            "dropped": sum(b.dropped for b in buffers),
            "spilled": sum(b.spilled for b in buffers),
            "corrupt": sum(b.corrupt_dropped for b in buffers),
        }
        return state

    def absorb_shards(self, shard_states) -> None:
        """Merge shard traces back, in SM order, as if run serially.

        Sequence numbers are renumbered with a running offset (all three
        buffers share one counter, so a shard's local seqs are already
        dense and ordered), and call-path ids are re-interned into the
        parent registry in shard order -- first-encounter order across
        the concatenated stream, identical to a serial run.
        """
        if self._streaming is not None or self._fused is not None:
            # Streaming/fused mode defers consumption to kernel_end: stash
            # the states in SM order, keep the call-path registry's
            # first-encounter order identical to the in-RAM remap, and
            # advance the seq counter. Relayed columns keep their
            # worker-local seqs / path ids -- the drain's running rank
            # only needs within-shard seq order, and no aggregate
            # reads call_path_id.
            for state in shard_states:
                for p in state["paths"]:
                    self.call_paths.intern(p)
                self._seq += state["seq_total"]
                self._shard_states.append(state)
            return
        for state in shard_states:
            remap = np.array(
                [self.call_paths.intern(p) for p in state["paths"]],
                dtype=np.int64,
            )
            offset = self._seq
            for cols, buffer in (
                (state["memory"], self.memory_buffer),
                (state["block"], self.block_buffer),
                (state["arith"], self.arith_buffer),
            ):
                if len(cols):
                    cols.seq = cols.seq + offset
                    cols.call_path_id = remap[cols.call_path_id]
                buffer.extend(cols)
            self._seq += state["seq_total"]

    # -- hook implementations ----------------------------------------------------------
    def _current_path_id(self, warp) -> int:
        wid = warp.global_warp_id
        path_id = self._warp_path_ids.get(wid)
        if path_id is None:
            stack = self._warp_stacks.get(wid)
            if stack is None:
                stack = [self._root_entry]
                self._warp_stacks[wid] = stack
            path_id = self.call_paths.intern(tuple(stack))
            self._warp_path_ids[wid] = path_id
        return path_id

    def _string_at(self, addr: int) -> str:
        text = self._strings.get(addr)
        if text is None:
            text = self.image.string_at(addr)
            self._strings[addr] = text
        return text

    def _on_record(self, args, mask, warp) -> None:
        addrs = np.asarray(args[0])
        if addrs.ndim == 0:
            addrs = np.full(warp.warp_size, int(addrs), dtype=np.int64)
        seq = self._seq
        self._seq += 1
        self.memory_buffer.append(
            seq,
            warp.cta_linear,
            warp.warp_in_cta,
            addrs,
            mask,
            int(args[1]),
            int(args[2]),
            int(args[3]),
            int(args[4]),
            self._current_path_id(warp),
        )

    def _on_block(self, args, mask, warp, nactive=None) -> None:
        a0 = args[0]
        name = self._string_at(a0 if type(a0) is int else int(a0) if a0.ndim == 0 else int(a0.flat[0]))
        seq = self._seq
        self._seq += 1
        self.block_buffer.append(
            seq,
            warp.cta_linear,
            warp.warp_in_cta,
            name,
            int(args[1]),
            int(args[2]),
            nactive if nactive is not None else int(mask.sum()),
            int(warp.resident_mask.sum()),
            self._current_path_id(warp),
        )

    def _on_arith(self, args, mask, warp, nactive=None) -> None:
        a0 = args[0]
        opcode = self._string_at(a0 if type(a0) is int else int(a0) if a0.ndim == 0 else int(a0.flat[0]))
        seq = self._seq
        self._seq += 1
        self.arith_buffer.append(
            seq,
            warp.cta_linear,
            warp.warp_in_cta,
            opcode,
            int(args[1]),
            bool(int(args[2])),
            int(args[3]),
            int(args[4]),
            nactive if nactive is not None else int(mask.sum()),
            self._current_path_id(warp),
        )

    def _on_push(self, args, warp) -> None:
        stack = self._warp_stacks.setdefault(
            warp.global_warp_id, [self._root_entry]
        )
        stack.append(GPUPathEntry(int(args[0]), int(args[1]), int(args[2])))
        self._warp_path_ids.pop(warp.global_warp_id, None)

    def _on_pop(self, warp) -> None:
        stack = self._warp_stacks.get(warp.global_warp_id)
        if not stack or len(stack) <= 1:
            raise ProfilerError("GPU shadow-stack underflow (unbalanced pops)")
        stack.pop()
        self._warp_path_ids.pop(warp.global_warp_id, None)
