"""The profiling session: ties runtime, device and analyzers together.

A :class:`ProfilingSession` is attached to a :class:`CudaRuntime`; it
receives every allocation/transfer event (for the data-centric map) and
manufactures one :class:`HookRuntime` per kernel launch. Completed
:class:`KernelProfile` objects accumulate in ``profiles``, which is what
the offline analyzer (statistics across kernel instances, Section 3.3)
and every case-study analysis read.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.host.allocator import HostBuffer
from repro.host.runtime import DeviceAllocationRecord, MemcpyRecord
from repro.host.shadow_stack import HostFrame
from repro.profiler.datacentric import DataCentricMap
from repro.profiler.profiler import HookRuntime, KernelProfile
from repro.reliability.spill import SpillConfig

#: Process-local instrumentation counters.  ``sessions_created`` bumps
#: per :class:`ProfilingSession`, ``launches_profiled`` per hooked
#: kernel launch.  The service tier's "a warm cache hit performs zero
#: simulation work in this process" assertion reads these (see
#: docs/service.md); they are monotonic and never reset.
SESSION_COUNTERS = {"sessions_created": 0, "launches_profiled": 0}


class ProfilingSession:
    """Collects profiles and interposition records for one program run.

    ``spill_dir``/``spill_rows`` arm disk spill on the per-launch trace
    buffers: whenever a columnar buffer holds ``spill_rows`` rows they
    are written to a checksummed segment under ``spill_dir`` and read
    back transparently at kernel exit, so arbitrarily long launches
    never exhaust memory (see ``docs/reliability.md``). A prebuilt
    :class:`~repro.reliability.spill.SpillConfig` can be passed as
    ``spill`` instead.

    ``streaming`` takes an
    :class:`~repro.analysis.aggregates.AnalyzerPlan`: each launch then
    drains its trace *through* the plan's analyzer bank one spill
    segment at a time (O(segment) peak memory) and the resulting
    profiles carry ``aggregates`` instead of materialized records.

    ``fused`` takes the same kind of plan but analyzes rows *during*
    execution: buffered rows flush into the bank at segment granularity
    and the trace is never spilled or drained at all -- byte-identical
    results, minus the round-trip. This is how
    :class:`~repro.optim.advisor.CUDAAdvisor` profiles unless asked to
    keep records. With neither plan, launches materialize their trace.
    """

    def __init__(self, buffer_capacity: Optional[int] = None,
                 sample_rate: int = 1,
                 spill_dir: Optional[str] = None,
                 spill_rows: int = 65536,
                 spill: Optional[SpillConfig] = None,
                 streaming=None,
                 fused=None):
        SESSION_COUNTERS["sessions_created"] += 1
        self.buffer_capacity = buffer_capacity
        self.sample_rate = sample_rate
        if spill is None and spill_dir is not None:
            spill = SpillConfig(directory=spill_dir, segment_rows=spill_rows)
        self.spill = spill
        self.streaming = streaming
        self.fused = fused
        self.profiles: List[KernelProfile] = []
        self.host_buffers: List[HostBuffer] = []
        self.device_allocations: List[DeviceAllocationRecord] = []
        self.memcpys: List[MemcpyRecord] = []
        #: the device the attached runtime launches on (its supervisor
        #: holds the run's degradation events).
        self.device = None

    # -- runtime event sinks ----------------------------------------------------
    def attach_runtime(self, runtime) -> None:
        # Only the device is kept: the runtime holds this session as
        # its profiler, and a reference back would form a cycle that
        # keeps a dropped report's device (and its memory arena) alive
        # until the cyclic collector runs.
        self.device = runtime.device

    def on_host_malloc(self, buf: HostBuffer) -> None:
        self.host_buffers.append(buf)

    def on_cuda_malloc(self, record: DeviceAllocationRecord) -> None:
        self.device_allocations.append(record)

    def on_memcpy(self, record: MemcpyRecord) -> None:
        self.memcpys.append(record)

    def hook_runtime_for_launch(
        self,
        image,
        kernel: str,
        host_call_path: Tuple[HostFrame, ...],
        launch_site: str,
    ) -> HookRuntime:
        SESSION_COUNTERS["launches_profiled"] += 1
        hooks = HookRuntime(
            image,
            kernel,
            host_call_path,
            launch_site,
            buffer_capacity=self.buffer_capacity,
            sample_rate=self.sample_rate,
            spill=self.spill,
            streaming=self.streaming,
            fused=self.fused,
        )
        hooks.on_complete = self.profiles.append
        return hooks

    # -- analyzer-facing views -----------------------------------------------------
    def data_centric_map(self) -> DataCentricMap:
        return DataCentricMap(
            self.device_allocations, self.host_buffers, self.memcpys
        )

    def profiles_for_kernel(self, kernel: str) -> List[KernelProfile]:
        return [p for p in self.profiles if p.kernel == kernel]

    @property
    def last_profile(self) -> KernelProfile:
        if not self.profiles:
            raise IndexError("no kernel profiles collected yet")
        return self.profiles[-1]
