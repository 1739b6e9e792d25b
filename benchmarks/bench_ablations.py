"""Ablations of the design choices DESIGN.md calls out.

1. Reuse-distance model: memory-element vs cache-line granularity (the
   two models CUDAAdvisor offers).
2. Write-restart vs classic reuse distance (the paper's write-evict L1
   modelling tweak).
3. Warp-scheduler interleaving (per-instruction round-robin vs
   greedy-then-oldest) and its effect on per-CTA trace order.
4. Eq.(1) with plain means vs outlier-trimmed means (the paper
   explicitly chose plain means "to rather conservatively estimate").
5. Reuse-theory cache-size prediction (the architects' use case the
   paper motivates reuse-distance analysis with).
"""

import pytest

from benchmarks.common import profiled_report, write_result
from repro.analysis.reuse_distance import (
    INFINITE,
    ReuseDistanceHistogram,
    ReuseDistanceModel,
    reuse_distance_analysis,
    reuse_distances_of_trace,
)
from repro.apps import build_app
from repro.frontend.dsl import compile_kernels
from repro.gpu import Device, KEPLER_K40C
from repro.host import CudaRuntime
from repro.passes import instrumentation_pipeline, optimization_pipeline
from repro.profiler import MemoryOp, ProfilingSession


def _line_events(records, line_size=128):
    """One CTA's (cache line, is_write) stream, record then lane order."""
    events = []
    for record in records:
        is_write = record.op != MemoryOp.LOAD
        events.extend(
            (int(addr) // line_size, is_write)
            for addr in record.active_addresses()
        )
    return events


def test_ablation_element_vs_cache_line(benchmark):
    """Cache-line granularity absorbs spatial locality: the no-reuse
    fraction must drop (or stay) for every app when moving from element
    to line granularity."""

    def run():
        rows = []
        for app in ("hotspot", "srad_v2", "syrk", "bicg"):
            report = profiled_report(app, modes=("memory",))
            rows.append((
                app,
                report.reuse_element.no_reuse_fraction,
                report.reuse_cache_line.no_reuse_fraction,
            ))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Ablation: element vs cache-line reuse model (no-reuse %)",
             f"{'app':<10} {'element':>9} {'line':>7}"]
    for app, elem, line in rows:
        lines.append(f"{app:<10} {100 * elem:>8.1f}% {100 * line:>6.1f}%")
        assert line <= elem + 1e-9, app
    write_result("ablation_reuse_model.txt", "\n".join(lines))
    # hotspot is the showcase: element-streaming but line-level reuse.
    hotspot = dict((r[0], r) for r in rows)["hotspot"]
    assert hotspot[1] > 0.9 and hotspot[2] < 0.7


def test_ablation_write_restart(benchmark):
    """Write-restart only *adds* ∞ samples (kills read-after-write
    reuse). lavaMD is the showcase: its force accumulation reads and
    rewrites fv[] every neighbor-box iteration, so the classic model
    sees rich reuse that the write-evict L1 can never serve -- exactly
    the distortion the paper's restart rule removes."""
    report = profiled_report("lavaMD", modes=("memory",))
    profile = report.session.profiles[0]

    def run():
        restart = reuse_distance_analysis(profile, write_restart=True)
        classic = reuse_distance_analysis(profile, write_restart=False)
        return restart, classic

    restart, classic = benchmark.pedantic(run, rounds=1, iterations=1)
    assert restart.infinite >= classic.infinite
    assert restart.samples == classic.samples
    # The rule must change the verdict materially for this app.
    assert (restart.no_reuse_fraction - classic.no_reuse_fraction) > 0.1
    write_result(
        "ablation_write_restart.txt",
        (f"lavaMD trace: no-reuse with write-restart = "
         f"{100 * restart.no_reuse_fraction:.1f}%, classic = "
         f"{100 * classic.no_reuse_fraction:.1f}% (the paper's rule "
         f"removes read-after-write 'reuse' a write-evict L1 cannot serve)"),
    )


@pytest.mark.parametrize("policy", ["rr", "gto"])
def test_ablation_scheduler_trace_order(benchmark, policy):
    """Scheduling policy changes per-CTA trace interleaving and hence
    measured reuse distances -- but not the computed results, and the
    no-reuse fraction (a program property) only wiggles."""
    app = build_app("srad_v2", n=32, iterations=1)
    module = compile_kernels(list(app.kernels), f"srad-{policy}")
    optimization_pipeline().run(module)
    instrumentation_pipeline(["memory"]).run(module)

    def run():
        session = ProfilingSession()
        dev = Device(KEPLER_K40C)
        dev.scheduler = policy
        rt = CudaRuntime(dev, profiler=session)
        image = dev.load_module(module)
        state = app.prepare(rt)
        app.run(rt, image, state)
        assert app.check(rt, state)
        merged = ReuseDistanceHistogram(model=ReuseDistanceModel.ELEMENT)
        for profile in session.profiles:
            merged.merge(reuse_distance_analysis(profile))
        return merged

    merged = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["no_reuse"] = round(merged.no_reuse_fraction, 4)
    assert 0.0 < merged.no_reuse_fraction < 1.0


def test_ablation_trimmed_mean_eq1(benchmark):
    """Eq.(1) with plain means (the paper's choice) vs 10%-trimmed
    means. Trimming drops the long-distance tail, shrinking R.D. and
    therefore never *reducing* the predicted warp count."""
    report = profiled_report("syrk", modes=("memory",))
    profile = report.session.profiles[0]

    def distances():
        events_by_cta = [
            _line_events(records)
            for records in profile.memory_records_by_cta().values()
        ]
        out = []
        for events in events_by_cta:
            out.extend(
                d for d in reuse_distances_of_trace(events)
                if d != INFINITE
            )
        return out

    values = benchmark.pedantic(distances, rounds=1, iterations=1)
    values.sort()
    plain = sum(values) / len(values)
    k = len(values) // 10
    trimmed_values = values[k: len(values) - k] or values
    trimmed = sum(trimmed_values) / len(trimmed_values)
    assert trimmed <= plain + 1e-9
    write_result(
        "ablation_trimmed_mean.txt",
        (f"syrk cache-line R.D.: plain mean = {plain:.2f}, "
         f"10%-trimmed mean = {trimmed:.2f} (paper uses the plain mean "
         f"as the conservative choice)"),
    )


def test_cache_size_prediction_curves(benchmark):
    """The architects' use case the paper motivates reuse distance with:
    predict the optimal cache size from one trace (Nugteren et al.'s
    reuse-theory model). One pass yields the full hit-rate-vs-capacity
    curve; hotspot's curve saturates immediately (L1-size-insensitive,
    matching its Figure 4 character) while syrk's keeps climbing
    (capacity-sensitive, matching "cache capacity likely affects the
    effectiveness of L1 level optimization schemes")."""
    from collections import Counter

    from repro.analysis.cache_model import (
        StackDistanceSummary,
        hit_rate_curve,
        profile_stack_distances,
    )

    def build():
        curves = {}
        for app in ("hotspot", "syrk", "bicg"):
            report = profiled_report(app, modes=("memory",))
            distances = StackDistanceSummary(Counter(), line_size=128)
            for profile in report.session.profiles:
                distances.merge(profile_stack_distances(profile, 128))
            curves[app] = hit_rate_curve(
                distances, [2 ** k for k in range(3, 12)], 128
            )
        return curves

    curves = benchmark.pedantic(build, rounds=1, iterations=1)
    text = [curves[a].render(f"({a})") for a in curves]
    write_result("ablation_cache_size_curves.txt", "\n\n".join(text))

    hotspot, syrk = curves["hotspot"], curves["syrk"]
    # hotspot: tiny capacity already reaches (close to) its best rate.
    assert hotspot.hit_rates[2] >= hotspot.max_rate - 0.05
    # syrk: meaningful gains from growing the cache.
    assert syrk.max_rate - syrk.hit_rates[0] > 0.2


def test_ablation_inlining(benchmark):
    """Inlining nw's maximum3 device function (called from both inner
    wavefront loops) removes the per-call frame machinery -- the
    paper's Section 5 'heavyweight function calls' overhead source, at
    application level."""
    from repro.passes import PassManager
    from repro.passes.inline import InlineFunctionsPass

    app = build_app("nw", n=64)

    def run(inline):
        module = compile_kernels(list(app.kernels), f"nw-inline-{inline}")
        optimization_pipeline().run(module)
        if inline:
            PassManager([InlineFunctionsPass()]).run(module)
        dev = Device(KEPLER_K40C)
        rt = CudaRuntime(dev)
        image = dev.load_module(module)
        state = app.prepare(rt)
        results = app.run(rt, image, state)
        assert app.check(rt, state)
        return sum(r.instructions for r in results)

    def both():
        return run(False), run(True)

    plain, inlined = benchmark.pedantic(both, rounds=1, iterations=1)
    write_result(
        "ablation_inlining.txt",
        (f"nw executed warp-instructions: {plain} without inlining, "
         f"{inlined} with maximum3 inlined "
         f"({100 * (1 - inlined / plain):.1f}% fewer)"),
    )
    assert inlined <= plain
