"""Fused in-flight analysis vs the materialized trace, pairwise.

The fused path (``FusedSink`` + the analyzer bank) must reproduce the
batch analyzers over a materialized trace exactly while never
materializing or writing one. ``tests/test_differential.py`` pins both
against record-at-a-time oracles; this suite pins them against each
other:

* **Property tests** (hypothesis) push random interleaved
  memory/block/arith event streams through fused buffers at tiny flush
  granularities (down to one row), comparing every aggregate of the
  full plan against the batch analyzers over the materialized trace --
  including stride-sampling phases and keep-first capacity across
  flush boundaries.
* **Session level**: instrumented programs run twice through
  :class:`ProfilingSession` (fused vs kept records) on the interpreter
  and the batched backend, sampled and capped, and the analyses and
  accounting must be identical -- with no file written along the way.
"""

import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.aggregates import full_plan
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
from repro.profiler.streamdrain import FusedSink, StreamedRecords

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


def _buffers():
    return ColumnarMemoryBuffer(), ColumnarBlockBuffer(), ColumnarArithBuffer()


def _batch_profile(events):
    """The reference: the materialized columns of the same stream."""
    mem, block, arith = _buffers()
    for seq, event in enumerate(events):
        _append_event(event, seq, mem, block, arith)
    return SimpleNamespace(
        memory_records=mem.drain(),
        block_records=block.drain(),
        arith_records=arith.drain(),
    )


def _fused_buffers(events, flush_rows, rate=1, capacity=None):
    """Buffers wired into a fused bank that flushes every ``flush_rows``."""
    mem, block, arith = _buffers()
    bank = full_plan(LINE_SIZE).create_bank()
    sink = FusedSink(bank, mem, block, arith, rate, capacity, flush_rows)
    for seq, event in enumerate(events):
        _append_event(event, seq, mem, block, arith)
    sink.flush()
    return bank, sink


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
        fused = bank.result(f"site_{name}")
        assert list(sites.keys()) == list(fused.keys())  # dict ORDER too
        for key in sites:
            _assert_hist_equal(sites[key], fused[key], f"site {key}")
    md = memory_divergence_analysis(profile, LINE_SIZE)
    assert dict(md.counts) == dict(bank.result("memory_divergence").counts)
    assert divergent_sites(profile, LINE_SIZE) == bank.result(
        "divergent_sites"
    )
    bd = branch_divergence_analysis(profile)
    fd = bank.result("branch_divergence")
    assert (bd.total_blocks, bd.divergent_blocks) == (
        fd.total_blocks, fd.divergent_blocks
    )
    assert list(bd.per_block.keys()) == list(fd.per_block.keys())
    for name in bd.per_block:
        a, b = bd.per_block[name], fd.per_block[name]
        assert (a.executions, a.divergent, a.line) == (
            b.executions, b.divergent, b.line
        )
    ar = arithmetic_analysis(profile)
    fr = bank.result("arithmetic")
    assert (ar.lane_flops, ar.lane_intops) == (fr.lane_flops, fr.lane_intops)
    assert dict(ar.by_opcode) == dict(fr.by_opcode)
    assert dict(ar.by_line) == dict(fr.by_line)
    summary = bank.result("stack_distance")
    assert isinstance(summary, StackDistanceSummary)
    batch_curve = hit_rate_curve(
        profile_stack_distances(profile, LINE_SIZE), CAPACITIES, LINE_SIZE
    )
    fused_curve = hit_rate_curve(summary, CAPACITIES, LINE_SIZE)
    assert batch_curve.hit_rates == fused_curve.hit_rates  # float-identical
    assert batch_curve.reads == fused_curve.reads


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
        bank, sink = _fused_buffers(events, flush_rows, rate, capacity)

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
        assert sink.clipped == clipped
        assert sink.stats.memory_rows == len(m)
        assert sink.stats.arith_rows == len(a)
        assert sink.stats.block_rows == len(b)


# -- session-level equivalence --------------------------------------------------

APPS = [
    ("bfs", {"num_nodes": 128}),
    ("hotspot", {"n": 32, "steps": 2}),
]


def _session(app, fused=False, backend=None, sample_rate=1,
             capacity=None):
    app_name, app_kwargs = app
    program = build_app(app_name, **app_kwargs)
    module = compile_kernels(list(program.kernels), app_name)
    optimization_pipeline().run(module)
    instrumentation_pipeline(["memory", "blocks", "arith"]).run(module)
    session = ProfilingSession(
        buffer_capacity=capacity,
        sample_rate=sample_rate,
        fused=full_plan(LINE_SIZE) if fused else None,
    )
    device = Device(KEPLER_K40C)
    if backend is not None:
        device.backend = backend
    runtime = CudaRuntime(device, profiler=session)
    image = device.load_module(module)
    state = program.prepare(runtime)
    program.run(runtime, image, state)
    return session


def _assert_sessions_match(kept, fused):
    assert len(kept.profiles) == len(fused.profiles)
    for batch, profile in zip(kept.profiles, fused.profiles):
        assert batch.aggregates is None
        assert profile.aggregates is not None
        assert isinstance(profile.memory_records, StreamedRecords)
        assert len(batch.memory_records) == len(profile.memory_records)
        assert len(batch.block_records) == len(profile.block_records)
        assert len(batch.arith_records) == len(profile.arith_records)
        assert batch.dropped_records == profile.dropped_records
        _assert_bank_matches_batch(profile.aggregates, batch)


class TestFusedApps:
    @pytest.mark.parametrize("app", APPS, ids=lambda a: a[0])
    def test_serial_never_spills(self, app, tmp_path, monkeypatch):
        kept = _session(app)
        monkeypatch.chdir(tmp_path)
        fused = _session(app, fused=True)
        _assert_sessions_match(kept, fused)
        # The whole point: analysis in flight, zero trace I/O.
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("app", APPS, ids=lambda a: a[0])
    def test_batched_backend(self, app):
        kept = _session(app, backend="batched")
        fused = _session(app, fused=True, backend="batched")
        _assert_sessions_match(kept, fused)

    def test_sampled_and_capped_serial(self):
        app = APPS[1]
        kept = _session(app, sample_rate=2, capacity=40)
        fused = _session(app, fused=True, sample_rate=2, capacity=40)
        _assert_sessions_match(kept, fused)
