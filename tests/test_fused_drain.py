"""Fused in-flight analysis: byte-identity without the trace round-trip.

The fused path (``FusedSink`` + the analyzer bank) must reproduce the
analyses of a materialized trace exactly while never materializing or
spilling one:

* **Property tests** (hypothesis) push random interleaved
  memory/block/arith event streams through fused buffers at tiny flush
  granularities (down to one row), comparing every aggregate of the
  full plan against the materialized trace -- including
  stride-sampling phases and keep-first capacity across flush
  boundaries.
* **App-level tests** run instrumented programs twice (fused vs
  in-RAM) across serial / batched / fork-parallel configurations and
  assert identical analyses and accounting -- and that the fused spill
  directory stays empty.
* **Degradation**: a launch that needs raw records (pc sampling)
  disables fused mode with a ``fused-records-unavailable`` warning and
  materializes the trace like a classic run.
"""

import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.aggregates import full_plan
from repro.apps import build_app
from repro.errors import LaunchDegradedWarning, ProfilerError
from repro.frontend.dsl import compile_kernels
from repro.gpu.arch import KEPLER_K40C
from repro.gpu.device import Device
from repro.host.runtime import CudaRuntime
from repro.passes.pipeline import (
    instrumentation_pipeline,
    optimization_pipeline,
)
from repro.profiler.buffers import (
    ColumnarArithBuffer,
    ColumnarBlockBuffer,
    ColumnarMemoryBuffer,
    clip_to_capacity,
    stride_sample,
)
from repro.profiler.pc_sampling import PCSampler
from repro.profiler.profiler import HookRuntime
from repro.profiler.session import ProfilingSession
from repro.profiler.streamdrain import FusedSink, StreamDrain
from repro.reliability.supervisor import FUSED_RECORDS_UNAVAILABLE
from tests.conftest import KERNELS
from tests.test_streaming_drain import (
    APPS,
    LINE_SIZE,
    _append_event,
    _assert_bank_matches_batch,
    _assert_sessions_match,
    _batch_profile,
    _EVENTS,
)


def _fused_buffers(events, flush_rows, rate=1, capacity=None):
    """Spill-free buffers wired into a fused bank at ``flush_rows``."""
    mem = ColumnarMemoryBuffer(None, None)
    block = ColumnarBlockBuffer(None, None)
    arith = ColumnarArithBuffer(None, None)
    bank = full_plan(LINE_SIZE).create_bank()
    drain = StreamDrain(bank, sample_rate=rate, capacity=capacity)
    sink = FusedSink(drain, mem, block, arith, flush_rows)
    for seq, event in enumerate(events):
        _append_event(event, seq, mem, block, arith)
    sink.flush()
    return bank, drain


class TestFusedSinkProperty:
    @settings(max_examples=30, deadline=None)
    @given(events=_EVENTS, flush_rows=st.integers(1, 17))
    def test_full_plan_matches_batch_across_flush_sizes(
        self, events, flush_rows
    ):
        bank, _ = _fused_buffers(events, flush_rows)
        _assert_bank_matches_batch(bank, _batch_profile(events))

    @settings(max_examples=30, deadline=None)
    @given(
        events=_EVENTS,
        flush_rows=st.integers(1, 13),
        rate=st.sampled_from([2, 3, 5]),
        capacity=st.sampled_from([None, 3, 10]),
    )
    def test_stride_phases_and_capacity_across_flushes(
        self, events, flush_rows, rate, capacity
    ):
        # The joint in-flight ranking of each flushed (memory, arith)
        # window must reproduce the *global* stride phase the batch
        # path computes over the whole merged stream at once.
        bank, drain = _fused_buffers(events, flush_rows, rate, capacity)

        batch = _batch_profile(events)
        m, a = stride_sample(
            batch.memory_records, batch.arith_records, rate
        )
        clipped = 0
        m, n = clip_to_capacity(m, capacity)
        clipped += n
        a, n = clip_to_capacity(a, capacity)
        clipped += n
        b, n = clip_to_capacity(batch.block_records, capacity)
        clipped += n
        _assert_bank_matches_batch(
            bank,
            SimpleNamespace(
                memory_records=m, block_records=b, arith_records=a
            ),
        )
        assert drain.clipped == clipped
        assert drain.stats.memory_rows == len(m)
        assert drain.stats.arith_rows == len(a)
        assert drain.stats.block_rows == len(b)


# -- app-level equivalence ------------------------------------------------------


def _session(app, streaming=False, fused=False, workers=None, backend=None,
             sample_rate=1, capacity=None, spill_dir=None, spill_rows=64,
             configure=None):
    app_name, app_kwargs = app
    program = build_app(app_name, **app_kwargs)
    module = compile_kernels(list(program.kernels), app_name)
    optimization_pipeline().run(module)
    instrumentation_pipeline(["memory", "blocks", "arith"]).run(module)
    session = ProfilingSession(
        buffer_capacity=capacity,
        sample_rate=sample_rate,
        spill_dir=spill_dir,
        spill_rows=spill_rows,
        streaming=full_plan(LINE_SIZE) if streaming else None,
        fused=full_plan(LINE_SIZE) if fused else None,
    )
    device = Device(KEPLER_K40C)
    if workers is not None:
        device.parallel_workers = workers
    if backend is not None:
        device.backend = backend
    if configure is not None:
        configure(device)
    runtime = CudaRuntime(device, profiler=session)
    image = device.load_module(module)
    state = program.prepare(runtime)
    program.run(runtime, image, state)
    return session, device


class TestFusedApps:
    @pytest.mark.parametrize("app", APPS, ids=lambda a: a[0])
    def test_serial_never_spills(self, app, tmp_path):
        in_ram, _ = _session(app)
        fused, _ = _session(
            app, fused=True, spill_dir=str(tmp_path), spill_rows=32
        )
        _assert_sessions_match(in_ram, fused)
        # The whole point: analysis in flight, zero trace I/O -- even
        # with a spill config, which only sets the flush granularity.
        assert not os.path.exists(tmp_path) or not os.listdir(tmp_path)

    @pytest.mark.parametrize("app", APPS, ids=lambda a: a[0])
    def test_batched_backend(self, app):
        in_ram, _ = _session(app, backend="batched")
        fused, _ = _session(app, fused=True, backend="batched")
        _assert_sessions_match(in_ram, fused)

    @pytest.mark.parametrize("app", APPS, ids=lambda a: a[0])
    def test_fork_parallel_bank_ship(self, app):
        # No sampling/capacity: each shard runs its own fused bank and
        # ships it; the parent merges bank-to-bank in SM order.
        in_ram, _ = _session(app, workers=4)
        fused, _ = _session(app, fused=True, workers=4)
        _assert_sessions_match(in_ram, fused)

    def test_fork_parallel_sampled_relays(self):
        # Sampling needs the global stride phase, so shards fall back
        # to shipping raw state for the parent's running cursors.
        app = APPS[0]
        in_ram, _ = _session(app, workers=4, sample_rate=3)
        fused, _ = _session(app, fused=True, workers=4, sample_rate=3)
        _assert_sessions_match(in_ram, fused)

    def test_fork_parallel_capacity_relays(self):
        app = APPS[1]
        in_ram, _ = _session(app, workers=4, capacity=60)
        fused, _ = _session(app, fused=True, workers=4, capacity=60)
        _assert_sessions_match(in_ram, fused)

    def test_sampled_and_capped_serial(self):
        app = APPS[1]
        in_ram, _ = _session(app, sample_rate=2, capacity=40)
        fused, _ = _session(app, fused=True, sample_rate=2, capacity=40)
        _assert_sessions_match(in_ram, fused)

    def test_fused_matches_streaming_byte_for_byte(self, tmp_path):
        # The three pipeline shapes agree pairwise; fused vs streaming
        # closes the triangle the two in-RAM comparisons open.
        app = APPS[0]
        streaming, _ = _session(
            app, streaming=True, spill_dir=str(tmp_path), spill_rows=32
        )
        fused, _ = _session(app, fused=True)
        for s, f in zip(streaming.profiles, fused.profiles):
            assert len(s.memory_records) == len(f.memory_records)
            assert s.dropped_records == f.dropped_records
            for name in ("reuse_element", "reuse_cache_line"):
                a = s.aggregates.result(name)
                b = f.aggregates.result(name)
                assert a.frequencies == b.frequencies


# -- degradation: launches that need raw records --------------------------------


class TestFusedDegradation:
    def _instrumented(self):
        module = compile_kernels([KERNELS["strided_sum"]], "m")
        optimization_pipeline().run(module)
        instrumentation_pipeline(["memory"]).run(module)
        return module

    def test_pc_sampling_disables_fused(self):
        module = self._instrumented()
        dev = Device(KEPLER_K40C)
        img = dev.load_module(module)
        hooks = HookRuntime(img, "strided_sum", (), "x",
                            fused=full_plan(LINE_SIZE))
        assert hooks.fused
        sampler = PCSampler(period=16)
        data = np.arange(256, dtype=np.float32)
        dx = dev.malloc(data.nbytes)
        do = dev.malloc(4 * 64)
        dev.memcpy_htod(dx, data)
        with pytest.warns(LaunchDegradedWarning, match="pc sampling"):
            dev.launch(img, "strided_sum", 1, 64, [dx, do, 256, 3],
                       hooks=hooks, pc_sampler=sampler)
        # The launch materialized a classic trace: real records, no
        # fused bank, and the sampler got its PCs.
        assert not hooks.fused
        assert hooks.profile.aggregates is None
        assert len(hooks.profile.memory_records) > 0
        assert sampler.profile.total_samples > 0
        events = dev.supervisor.events_for(FUSED_RECORDS_UNAVAILABLE)
        assert len(events) == 1

    def test_fused_and_streaming_mutually_exclusive(self):
        module = self._instrumented()
        dev = Device(KEPLER_K40C)
        img = dev.load_module(module)
        with pytest.raises(ProfilerError, match="mutually exclusive"):
            HookRuntime(img, "strided_sum", (), "x",
                        fused=full_plan(LINE_SIZE),
                        streaming=full_plan(LINE_SIZE))
