"""Streaming out-of-core drain: byte-identity with the in-RAM path.

The streaming drain (``profiler/streamdrain.py`` +
``analysis/aggregates.py``) must reproduce the analyses of the
materialized trace exactly (the public analyzers, which feed it through
the same aggregates as one segment -- so these properties pin
segmentation invariance; ``tests/test_differential.py`` holds the
record-at-a-time oracles):

* **Property tests** (hypothesis) drive random interleaved
  memory/block/arith event streams through spilled buffers with tiny
  segment sizes (down to ``segment_rows=1``, always with a partial
  in-memory tail in play) and compare every aggregate of the full plan
  against the batch analyzers over the materialized trace -- including
  stride-sampling phases, keep-first capacity, and shard bank merges.
* **App-level tests** run instrumented programs twice (streaming vs
  in-RAM) across serial / batched / fork-parallel (bank-merge and
  relay) configurations and assert identical analyses + accounting.
* **Chaos** combines ``corrupt_spill`` with the streaming drain: the
  injector corrupts the same segments in both runs, so surviving rows,
  drop accounting and analyses must match.
* Spill-segment files must be deleted *as* they are consumed
  (satellite: the dir shrinks during the drain and is empty after).
"""

import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.aggregates import advisor_plan, full_plan
from repro.analysis.arithmetic import arithmetic_analysis
from repro.analysis.cache_model import (
    StackDistanceSummary,
    hit_rate_curve,
    profile_stack_distances,
)
from repro.analysis.divergence_branch import branch_divergence_analysis
from repro.analysis.divergence_memory import (
    divergent_sites,
    memory_divergence_analysis,
)
from repro.analysis.reuse_distance import (
    ReuseDistanceModel,
    reuse_distance_analysis,
    site_reuse_analysis,
)
from repro.apps import build_app
from repro.errors import (
    LaunchDegradedWarning,
    ProfilerError,
    TraceCorruptionError,
)
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
from repro.profiler.session import ProfilingSession
from repro.profiler.streamdrain import StreamDrain, StreamedRecords
from repro.reliability.faultinject import FaultInjector
from repro.reliability.spill import SpillConfig

WARP = 4
LINE_SIZE = 64
CAPACITIES = [4, 16, 64, 256]


# -- synthetic event streams ----------------------------------------------------

#: one event: (stream, cta, selector, flag) -- the selector picks
#: addresses/sites/opcodes, the flag picks write/divergent/is_float.
_EVENTS = st.lists(
    st.tuples(
        st.sampled_from(["mem", "block", "arith"]),
        st.integers(0, 3),
        st.integers(0, 7),
        st.booleans(),
    ),
    max_size=70,
)


def _append_event(event, seq, mem, block, arith):
    stream, cta, sel, flag = event
    if stream == "mem":
        # Strided addresses so warps touch 1..WARP distinct lines.
        stride = 2 * LINE_SIZE if flag else 8
        addrs = np.arange(WARP, dtype=np.int64) * stride + sel * 16
        mask = (
            np.ones(WARP, bool)
            if sel % 3
            else np.arange(WARP) % 2 == cta % 2
        )
        mem.append(
            seq=seq, cta=cta, warp_in_cta=sel % 2, addrs=addrs, mask=mask,
            bits=32, line=sel % 5, col=sel % 3,
            op=1 if flag else 0, call_path_id=0,
        )
    elif stream == "block":
        block.append(
            seq=seq, cta=cta, warp_in_cta=sel % 2, name=f"b{sel % 4}",
            line=sel, col=0, active_lanes=(2 if flag else WARP),
            resident_lanes=WARP, call_path_id=0,
        )
    else:
        arith.append(
            seq=seq, cta=cta, warp_in_cta=sel % 2, opcode=f"op{sel % 3}",
            bits=32, is_float=flag, line=sel, col=0,
            active_lanes=1 + sel % WARP, call_path_id=0,
        )


def _build_buffers(events, spill=None):
    mem = ColumnarMemoryBuffer(None, spill)
    block = ColumnarBlockBuffer(None, spill)
    arith = ColumnarArithBuffer(None, spill)
    for seq, event in enumerate(events):
        _append_event(event, seq, mem, block, arith)
    return mem, block, arith


def _batch_profile(events):
    """The in-RAM reference: materialized columns from spill-free twins."""
    mem, block, arith = _build_buffers(events)
    return SimpleNamespace(
        memory_records=mem.drain(),
        block_records=block.drain(),
        arith_records=arith.drain(),
    )


def _assert_hist_equal(a, b, what=""):
    assert a.frequencies == b.frequencies, what
    assert (a.samples, a.infinite, a.finite_sum, a.finite_count) == (
        b.samples, b.infinite, b.finite_sum, b.finite_count
    ), what


def _assert_bank_matches_batch(bank, profile):
    """Every full-plan aggregate == its whole-trace analysis, byte for byte."""
    for name, model in (
        ("reuse_element", ReuseDistanceModel.ELEMENT),
        ("reuse_cache_line", ReuseDistanceModel.CACHE_LINE),
    ):
        _assert_hist_equal(
            reuse_distance_analysis(profile, model, LINE_SIZE),
            bank.result(name),
            name,
        )
        sites = site_reuse_analysis(profile, model, LINE_SIZE)
        streamed = bank.result(f"site_{name}")
        assert list(sites.keys()) == list(streamed.keys())  # dict ORDER too
        for key in sites:
            _assert_hist_equal(sites[key], streamed[key], f"site {key}")
    md = memory_divergence_analysis(profile, LINE_SIZE)
    assert dict(md.counts) == dict(bank.result("memory_divergence").counts)
    assert divergent_sites(profile, LINE_SIZE) == bank.result(
        "divergent_sites"
    )
    bd = branch_divergence_analysis(profile)
    sd = bank.result("branch_divergence")
    assert (bd.total_blocks, bd.divergent_blocks) == (
        sd.total_blocks, sd.divergent_blocks
    )
    assert list(bd.per_block.keys()) == list(sd.per_block.keys())
    for name in bd.per_block:
        a, b = bd.per_block[name], sd.per_block[name]
        assert (a.executions, a.divergent, a.line) == (
            b.executions, b.divergent, b.line
        )
    ar = arithmetic_analysis(profile)
    sr = bank.result("arithmetic")
    assert (ar.lane_flops, ar.lane_intops) == (sr.lane_flops, sr.lane_intops)
    assert dict(ar.by_opcode) == dict(sr.by_opcode)
    assert dict(ar.by_line) == dict(sr.by_line)
    summary = bank.result("stack_distance")
    assert isinstance(summary, StackDistanceSummary)
    batch_curve = hit_rate_curve(
        profile_stack_distances(profile, LINE_SIZE), CAPACITIES, LINE_SIZE
    )
    stream_curve = hit_rate_curve(summary, CAPACITIES, LINE_SIZE)
    assert batch_curve.hit_rates == stream_curve.hit_rates  # float-identical
    assert batch_curve.reads == stream_curve.reads


class TestStreamedAggregatesProperty:
    @settings(max_examples=30, deadline=None)
    @given(events=_EVENTS, segment_rows=st.integers(1, 17))
    def test_full_plan_matches_batch_across_segment_sizes(
        self, tmp_path_factory, events, segment_rows
    ):
        spill = SpillConfig(
            directory=str(tmp_path_factory.mktemp("seg")),
            segment_rows=segment_rows,
        )
        mem, block, arith = _build_buffers(events, spill)
        bank = full_plan(LINE_SIZE).create_bank()
        StreamDrain(bank).feed_buffers(mem, block, arith)
        _assert_bank_matches_batch(bank, _batch_profile(events))

    @settings(max_examples=30, deadline=None)
    @given(
        events=_EVENTS,
        segment_rows=st.integers(1, 13),
        rate=st.sampled_from([2, 3, 5]),
        capacity=st.sampled_from([None, 3, 10]),
    )
    def test_stride_phases_and_capacity_across_segments(
        self, tmp_path_factory, events, segment_rows, rate, capacity
    ):
        spill = SpillConfig(
            directory=str(tmp_path_factory.mktemp("seg")),
            segment_rows=segment_rows,
        )
        mem, block, arith = _build_buffers(events, spill)
        bank = full_plan(LINE_SIZE).create_bank()
        drain = StreamDrain(bank, sample_rate=rate, capacity=capacity)
        drain.feed_buffers(mem, block, arith)

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

    @settings(max_examples=25, deadline=None)
    @given(events=_EVENTS, segment_rows=st.integers(1, 9))
    def test_shard_bank_merge_matches_concatenated_trace(
        self, tmp_path_factory, events, segment_rows
    ):
        # CTAs 0-1 on "shard 0", CTAs 2-3 on "shard 1": each shard
        # streams its own bank (local seqs, like reset_for_shard), the
        # banks merge in shard order, and the result must equal the
        # batch analyzers over the shard-concatenated trace -- exactly
        # what absorb_shards builds in the in-RAM path.
        shards = [
            [e for e in events if e[1] < 2],
            [e for e in events if e[1] >= 2],
        ]
        merged_bank = None
        for shard_events in shards:
            spill = SpillConfig(
                directory=str(tmp_path_factory.mktemp("shard")),
                segment_rows=segment_rows,
            )
            mem, block, arith = _build_buffers(shard_events, spill)
            bank = full_plan(LINE_SIZE).create_bank()
            StreamDrain(bank).feed_buffers(mem, block, arith)
            if merged_bank is None:
                merged_bank = bank
            else:
                merged_bank.merge(bank)
        _assert_bank_matches_batch(
            merged_bank, _batch_profile(shards[0] + shards[1])
        )


# -- app-level equivalence ------------------------------------------------------

APPS = [
    ("bfs", {"num_nodes": 128}),
    ("hotspot", {"n": 32, "steps": 2}),
]


def _session(app, streaming=False, workers=None, backend=None,
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


def _assert_sessions_match(in_ram, streaming):
    assert len(in_ram.profiles) == len(streaming.profiles)
    for batch, stream in zip(in_ram.profiles, streaming.profiles):
        assert stream.aggregates is not None
        assert isinstance(stream.memory_records, StreamedRecords)
        assert len(batch.memory_records) == len(stream.memory_records)
        assert len(batch.block_records) == len(stream.block_records)
        assert len(batch.arith_records) == len(stream.arith_records)
        assert batch.dropped_records == stream.dropped_records
        assert batch.corrupt_records == stream.corrupt_records
        _assert_bank_matches_batch(stream.aggregates, batch)


class TestStreamingDrainApps:
    @pytest.mark.parametrize("app", APPS, ids=lambda a: a[0])
    def test_serial_with_spill(self, app, tmp_path):
        in_ram, _ = _session(app, spill_dir=str(tmp_path / "a"))
        streaming, _ = _session(
            app, streaming=True, spill_dir=str(tmp_path / "b")
        )
        _assert_sessions_match(in_ram, streaming)

    @pytest.mark.parametrize("app", APPS, ids=lambda a: a[0])
    def test_fork_parallel_bank_merge(self, app, tmp_path):
        # No sampling/capacity: shard workers ship analyzer banks and
        # the parent merges aggregate-to-aggregate.
        in_ram, _ = _session(
            app, workers=4, spill_dir=str(tmp_path / "a")
        )
        streaming, _ = _session(
            app, streaming=True, workers=4, spill_dir=str(tmp_path / "b")
        )
        _assert_sessions_match(in_ram, streaming)
        assert not os.listdir(tmp_path / "b")

    def test_fork_parallel_relay_sampled(self, tmp_path):
        # Sampling forces relay mode: workers hand over segment files
        # and the parent's running rank must reproduce the global
        # stride phase across shard boundaries.
        app = APPS[0]
        in_ram, _ = _session(
            app, workers=4, sample_rate=3, spill_dir=str(tmp_path / "a")
        )
        streaming, _ = _session(
            app, streaming=True, workers=4, sample_rate=3,
            spill_dir=str(tmp_path / "b"),
        )
        _assert_sessions_match(in_ram, streaming)
        assert not os.listdir(tmp_path / "b")

    def test_fork_parallel_relay_capacity(self, tmp_path):
        app = APPS[1]
        in_ram, _ = _session(
            app, workers=4, capacity=60, spill_dir=str(tmp_path / "a")
        )
        streaming, _ = _session(
            app, streaming=True, workers=4, capacity=60,
            spill_dir=str(tmp_path / "b"),
        )
        _assert_sessions_match(in_ram, streaming)

    def test_batched_backend(self, tmp_path):
        app = APPS[0]
        in_ram, _ = _session(app, backend="batched")
        streaming, _ = _session(
            app, streaming=True, backend="batched",
            spill_dir=str(tmp_path),
        )
        _assert_sessions_match(in_ram, streaming)

    def test_sampled_and_capped_serial(self, tmp_path):
        app = APPS[1]
        in_ram, _ = _session(
            app, sample_rate=2, capacity=40, spill_dir=str(tmp_path / "a"),
            spill_rows=16,
        )
        streaming, _ = _session(
            app, streaming=True, sample_rate=2, capacity=40,
            spill_dir=str(tmp_path / "b"), spill_rows=16,
        )
        _assert_sessions_match(in_ram, streaming)


# -- spill-segment lifecycle ----------------------------------------------------


class TestSpillFileLifecycle:
    def test_segments_discarded_as_consumed(self, tmp_path):
        spill = SpillConfig(directory=str(tmp_path), segment_rows=8)
        mem = ColumnarMemoryBuffer(None, spill)
        for seq in range(50):
            _append_event(("mem", seq % 3, seq % 8, False), seq, mem, None,
                          None)
        on_disk = len(os.listdir(tmp_path))
        assert on_disk >= 6
        counts = []
        for _ in mem.stream_segments():
            counts.append(len(os.listdir(tmp_path)))
        # Each consumed disk segment is unlinked before the next yield:
        # the directory shrinks monotonically and ends empty (the last
        # yield is the in-memory tail).
        assert counts[0] == on_disk - 1
        assert all(b <= a for a, b in zip(counts, counts[1:]))
        assert counts[-1] == 0
        assert not os.listdir(tmp_path)
        assert len(mem) == 0

    def test_abandoned_stream_discards_remaining(self, tmp_path):
        spill = SpillConfig(directory=str(tmp_path), segment_rows=4)
        mem = ColumnarMemoryBuffer(None, spill)
        for seq in range(30):
            _append_event(("mem", 0, seq % 8, False), seq, mem, None, None)
        it = mem.stream_segments()
        next(it)
        it.close()
        assert not os.listdir(tmp_path)

    def test_streaming_profile_leaves_spill_dir_empty(self, tmp_path):
        _, _ = _session(
            APPS[0], streaming=True, spill_dir=str(tmp_path), spill_rows=32
        )
        assert not os.listdir(tmp_path)


# -- chaos: corrupt segments under streaming ------------------------------------


class TestChaosStreaming:
    def _corrupting(self, device):
        device.fault_injector = (
            FaultInjector()
            .inject("buffer_overflow", segment_rows=128)
            .inject("corrupt_spill", when={"kind": "memory", "segment": 0})
        )

    def test_corrupt_spill_matches_in_ram_accounting(self):
        # The injector fires on (kind, segment ordinal), so both runs
        # corrupt the same segments: surviving rows, per-profile drop /
        # corrupt accounting and every analysis must agree.
        with pytest.warns(LaunchDegradedWarning, match="corrupted spill"):
            in_ram, _ = _session(APPS[1], configure=self._corrupting)
        with pytest.warns(LaunchDegradedWarning, match="corrupted spill"):
            streaming, device = _session(
                APPS[1], streaming=True, configure=self._corrupting
            )
        _assert_sessions_match(in_ram, streaming)
        lost = sum(p.corrupt_records for p in streaming.profiles)
        assert lost > 0
        assert sum(p.dropped_records for p in streaming.profiles) >= lost

    def test_strict_policy_raises_during_streaming(self):
        def configure(device):
            device.failure_policy = "strict"
            self._corrupting(device)

        with pytest.raises(TraceCorruptionError):
            _session(APPS[1], streaming=True, configure=configure)


# -- the placeholder records ----------------------------------------------------


class TestStreamedRecords:
    def test_len_survives_access_raises(self, tmp_path):
        session, _ = _session(
            APPS[0], streaming=True, spill_dir=str(tmp_path)
        )
        profile = session.profiles[0]
        records = profile.memory_records
        assert len(records) > 0
        assert "streamed" in repr(records)
        with pytest.raises(ProfilerError, match="streaming"):
            records[0]
        with pytest.raises(ProfilerError, match="streaming"):
            list(records)
        with pytest.raises(ProfilerError):
            profile.memory_records_by_cta()

    def test_stream_stats_attached(self, tmp_path):
        session, _ = _session(
            APPS[0], streaming=True, spill_dir=str(tmp_path), spill_rows=32
        )
        stats = session.profiles[0].stream_stats
        assert stats["segments_streamed"] >= 3
        total = (
            stats["memory_rows"] + stats["block_rows"] + stats["arith_rows"]
        )
        # O(segment) guarantee: never close to the full trace.
        assert 0 < stats["peak_resident_rows"] < total
