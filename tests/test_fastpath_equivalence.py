"""Fast-path equivalence: the columnar trace buffers and the
batched-warp backend must be invisible to every consumer.

Three properties are pinned here:

* **Columnar vs. record analyses** -- running the analyzers over the
  drained column views must give numerically identical results to
  running them over the same trace materialized as classic record
  lists (which exercises the per-record fallback paths).
* **Batched vs. interpreter backend** -- with ``device.backend =
  "batched"``, drained traces, call-path registries, and hardware
  statistics must be byte-identical to an interpreter run.
* **Stride sampling** -- a ``sample_rate=k`` trace must be exactly
  every k-th record of the full memory+arith stream (same seqs, same
  bytes), whichever backend produced it.
"""

import numpy as np
import pytest

from repro.analysis.cache_model import profile_stack_distances
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
from repro.frontend import compile_kernels
from repro.gpu import Device, KEPLER_K40C
from repro.host import CudaRuntime
from repro.passes import instrumentation_pipeline, optimization_pipeline
from repro.profiler import ProfilingSession
from repro.profiler.buffers import MemoryColumns


APPS = [
    ("bfs", {"num_nodes": 128}),
    ("hotspot", {"n": 32, "steps": 2}),
    ("syrk", {"n": 24, "m": 24}),
]


def _profile_session(app_name, app_kwargs, backend=None, sample_rate=1):
    app = build_app(app_name, **app_kwargs)
    module = compile_kernels(list(app.kernels), app_name)
    optimization_pipeline().run(module)
    instrumentation_pipeline(["memory", "blocks", "arith"]).run(module)
    session = ProfilingSession(sample_rate=sample_rate)
    device = Device(KEPLER_K40C)
    if backend is not None:
        device.backend = backend
    runtime = CudaRuntime(device, profiler=session)
    image = device.load_module(module)
    state = app.prepare(runtime)
    app.run(runtime, image, state)
    return session


class _RecordListProfile:
    """The same profile with plain record lists (fallback paths)."""

    def __init__(self, profile):
        self.memory_records = list(profile.memory_records)
        self.block_records = list(profile.block_records)
        self.arith_records = list(profile.arith_records)

    def memory_records_by_cta(self):
        grouped = {}
        for record in self.memory_records:
            grouped.setdefault(record.cta, []).append(record)
        return grouped


def _memory_record_equal(a, b):
    return (
        a.seq == b.seq
        and a.cta == b.cta
        and a.warp_in_cta == b.warp_in_cta
        and np.array_equal(a.addresses, b.addresses)
        and np.array_equal(a.mask, b.mask)
        and a.bits == b.bits
        and a.line == b.line
        and a.col == b.col
        and a.op == b.op
        and a.call_path_id == b.call_path_id
    )


@pytest.mark.parametrize("app_name,app_kwargs", APPS)
class TestColumnarVsRecordAnalyses:
    def test_reuse_histograms_identical(self, app_name, app_kwargs):
        for profile in _profile_session(app_name, app_kwargs).profiles:
            assert isinstance(profile.memory_records, MemoryColumns)
            rows = _RecordListProfile(profile)
            for model in ReuseDistanceModel:
                fast = reuse_distance_analysis(profile, model=model)
                slow = reuse_distance_analysis(rows, model=model)
                assert fast.frequencies == slow.frequencies
                assert fast.samples == slow.samples
                assert fast.finite_sum == slow.finite_sum
                fast_sites = site_reuse_analysis(profile, model=model)
                slow_sites = site_reuse_analysis(rows, model=model)
                assert list(fast_sites) == list(slow_sites)
                for site, hist in fast_sites.items():
                    assert hist.frequencies == slow_sites[site].frequencies

    def test_divergence_distributions_identical(self, app_name, app_kwargs):
        for profile in _profile_session(app_name, app_kwargs).profiles:
            rows = _RecordListProfile(profile)
            for line_size in (128, 32):
                fast = memory_divergence_analysis(profile, line_size)
                slow = memory_divergence_analysis(rows, line_size)
                assert fast.distribution == slow.distribution
                assert fast.divergence_degree == slow.divergence_degree
                assert divergent_sites(profile, line_size) == divergent_sites(
                    rows, line_size
                )

    def test_stack_distances_identical(self, app_name, app_kwargs):
        for profile in _profile_session(app_name, app_kwargs).profiles:
            rows = _RecordListProfile(profile)
            assert profile_stack_distances(profile) == profile_stack_distances(
                rows
            )


def _assert_profiles_match(serial, other):
    assert len(serial) == len(other)
    for pa, pb in zip(serial, other):
        assert len(pa.memory_records) == len(pb.memory_records)
        assert all(
            _memory_record_equal(a, b)
            for a, b in zip(pa.memory_records, pb.memory_records)
        )
        assert list(pa.block_records) == list(pb.block_records)
        assert list(pa.arith_records) == list(pb.arith_records)
        assert len(pa.call_paths) == len(pb.call_paths)
        assert all(
            pa.call_paths.path(i) == pb.call_paths.path(i)
            for i in range(len(pa.call_paths))
        )
        assert pa.dropped_records == pb.dropped_records
        la, lb = pa.launch_result, pb.launch_result
        assert la.cycles == lb.cycles
        assert la.instructions == lb.instructions
        assert la.transactions == lb.transactions
        assert la.branches == lb.branches
        assert la.divergent_branches == lb.divergent_branches
        assert la.cache == lb.cache


@pytest.mark.parametrize("app_name,app_kwargs", APPS)
def test_batched_backend_matches_interpreter(app_name, app_kwargs):
    serial = _profile_session(app_name, app_kwargs).profiles
    batched = _profile_session(app_name, app_kwargs, backend="batched")
    _assert_profiles_match(serial, batched.profiles)


@pytest.mark.parametrize("rate", [2, 3, 5])
@pytest.mark.parametrize("backend", ["interpreter", "batched"])
def test_stride_sampling_is_exact_subset(rate, backend):
    """sample_rate=k keeps exactly every k-th event of the merged
    memory+arith stream of a full trace -- same seqs, same rows --
    regardless of backend, and block records are never sampled."""
    app_name, app_kwargs = APPS[0]
    full = _profile_session(app_name, app_kwargs).profiles
    sampled = _profile_session(
        app_name, app_kwargs, backend=backend, sample_rate=rate,
    ).profiles
    assert len(full) == len(sampled)
    for pf, ps in zip(full, sampled):
        merged = {}
        for record in pf.memory_records:
            merged[record.seq] = ("mem", record)
        for record in pf.arith_records:
            merged[record.seq] = ("arith", record)
        kept_seqs = sorted(merged)[::rate]
        expect_mem = [merged[s][1] for s in kept_seqs if merged[s][0] == "mem"]
        expect_arith = [
            merged[s][1] for s in kept_seqs if merged[s][0] == "arith"
        ]
        assert len(ps.memory_records) == len(expect_mem)
        assert all(
            _memory_record_equal(a, b)
            for a, b in zip(expect_mem, ps.memory_records)
        )
        assert list(ps.arith_records) == expect_arith
        assert list(ps.block_records) == list(pf.block_records)

