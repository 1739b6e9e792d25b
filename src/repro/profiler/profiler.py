"""The per-launch hook runtime and the resulting kernel profile.

One :class:`HookRuntime` exists per kernel launch (the paper's "online
component ... invoked at the end of each kernel instance"). During the
launch it receives every hook call from the interpreter; at kernel exit
(`kernel_end`) it finishes an immutable :class:`KernelProfile`: by
default the rows already streamed through an analyzer bank in flight
(:mod:`repro.profiler.streamdrain`); without an analyzer plan the trace
buffers are drained into the profile's records instead.
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
from repro.profiler.codecentric import CallPathRegistry, GPUPathEntry
from repro.profiler.streamdrain import FLUSH_ROWS, FusedSink, StreamedRecords
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
    #: launches analyzed in flight: the sealed
    #: :class:`~repro.analysis.aggregates.AnalyzerBank` holding every
    #: analyzer's result (the records above are
    #: :class:`~repro.profiler.streamdrain.StreamedRecords`
    #: placeholders), plus the sink's counters for reporting.
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
        fused=None,
    ):
        if sample_rate < 1:
            raise ProfilerError("sample_rate must be >= 1")
        self.image = image
        self.kernel = kernel
        self.host_call_path = host_call_path
        self.launch_site = launch_site
        #: record every Nth memory/arith event (the paper's Section 5
        #: overhead-reduction direction); call-path and block events are
        #: never sampled (the shadow stacks must stay exact). Sampling
        #: is a stride filter over the trace (see
        #: :func:`repro.profiler.buffers.stride_sample`), so sampled
        #: launches still use the batched backend; the memory/arith
        #: buffers run uncapped during the launch and the capacity is
        #: applied to the filtered rows.
        self.sample_rate = sample_rate
        self._capacity = buffer_capacity
        #: an :class:`~repro.analysis.aggregates.AnalyzerPlan` (or None):
        #: in-flight analysis -- the buffers flush into the plan's bank
        #: every ``_flush_rows`` rows *during* execution and the profile
        #: carries ``aggregates`` + StreamedRecords placeholders.
        #: Disabled per launch when raw records are needed
        #: (``disable_fused``).
        self._fused = fused

        # The device's fault injector can force a tiny flush size (the
        # buffer_overflow injection point), so many flush boundaries
        # are exercised without a huge trace (docs/reliability.md).
        self._flush_rows = FLUSH_ROWS
        injector = getattr(getattr(image, "device", None),
                           "fault_injector", None)
        if injector is not None:
            params = injector.fire("buffer_overflow", kernel=kernel)
            if params is not None:
                self._flush_rows = int(params.get("flush_rows", 256))

        event_capacity = buffer_capacity if sample_rate == 1 else None
        self.memory_buffer = ColumnarMemoryBuffer(event_capacity)
        self.block_buffer = ColumnarBlockBuffer(buffer_capacity)
        self.arith_buffer = ColumnarArithBuffer(event_capacity)
        self.call_paths = CallPathRegistry()

        self._fused_bank = None
        self._fused_sink = None
        if fused is not None:
            self._fused_bank = fused.create_bank()
            self._fused_sink = FusedSink(
                self._fused_bank, self.memory_buffer, self.block_buffer,
                self.arith_buffer, sample_rate, buffer_capacity,
                self._flush_rows,
            )

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
    def fused(self) -> bool:
        """Whether this launch analyzes rows in flight (no raw trace)."""
        return self._fused is not None

    def disable_fused(self) -> None:
        """Back out of in-flight analysis before any hook fires.

        Called by ``Device.launch`` (after degrading with
        ``FUSED_RECORDS_UNAVAILABLE``) when the launch needs raw trace
        records -- e.g. pc sampling. The buffers are still empty, so
        unhooking them is enough: the launch keeps its trace in RAM
        exactly as a run without an analyzer plan.
        """
        if self._fused is None:
            return
        self._fused_sink.detach()
        self._fused = None
        self._fused_bank = None
        self._fused_sink = None

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
        if self._fused is not None:
            self._kernel_end_in_flight(launch_result)
            return
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
        self._complete(launch_result, memory, block, arith, clipped)

    def _kernel_end_in_flight(self, launch_result) -> None:
        """Finish a launch whose rows streamed through the bank.

        Rows already went through the bank; only a sub-window tail
        remains to flush. Stride sampling and capacity ran on the sink's
        cursors, so the kept rows match the in-RAM path exactly.
        """
        sink, bank = self._fused_sink, self._fused_bank
        sink.flush()
        # The buffers' sinks are bound methods of the sink, which holds
        # the buffers: unhook so nothing outlives the launch through
        # that cycle.
        sink.detach()
        # Finalize results and release cursor state: the profile keeps
        # the bank for the session, so only one launch's cursors are
        # ever alive at a time.
        bank.seal()
        stats = sink.stats
        self._complete(
            launch_result,
            StreamedRecords("memory", stats.memory_rows),
            StreamedRecords("block", stats.block_rows),
            StreamedRecords("arith", stats.arith_rows),
            sink.clipped,
            aggregates=bank,
            stream_stats=stats.as_dict(),
        )

    def _complete(self, launch_result, memory, block, arith, clipped,
                  **analyzed) -> None:
        info = self._launch_info or {}
        buffers = (self.memory_buffer, self.block_buffer, self.arith_buffer)
        self.profile = KernelProfile(
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
            **analyzed,
        )
        if self.on_complete is not None:
            self.on_complete(self.profile)

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
