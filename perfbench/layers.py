"""Which ``repro`` callables the traced run wraps, and the per-layer metrics.

Each entry wraps a public callable at the name its caller binds, so a
call from ``CUDAAdvisor`` (which imported ``compile_kernels`` into its
own module) and a call from the service (which looks it up in
``repro.frontend.dsl`` at call time) are both seen. A span's name is
``<layer>.<what>``; the layer is the ``src/repro`` package it times.

Pool workers are forked from the traced process: the wrappers they
inherit pass calls straight through, so for the service workload only
the parent's side of each layer is measured.
"""

from __future__ import annotations

import functools
import inspect
from statistics import median
from typing import Dict, List, Tuple

from spans import MARK, Span, Tracer

#: every per-layer metric, in report order (``BENCHMARK.json`` lists the
#: same names).
METRICS = (
    "frontend.compile_s", "frontend.compile_calls",
    "passes.optimize_s", "passes.instrument_s", "passes.ir_insns",
    "gpu.load_s", "gpu.launch_plain_s", "gpu.launch_instr_s",
    "gpu.warp_insns", "gpu.launches", "gpu.sim_cycles",
    "host.prepare_s",
    "profiler.kernel_end_s", "profiler.records", "profiler.dropped_records",
    "profiler.hook_tax_s", "profiler.overhead_x",
    "analysis.batch_s", "analysis.feed_s", "analysis.finalize_s",
    "analysis.rows",
    "optim.predict_s", "optim.oracle_s", "optim.oracle_runs",
    "export.build_s", "export.validate_s", "export.serialize_s",
    "export.bytes",
    "service.submit_s", "service.wait_s", "service.cache_get_s",
    "service.cache_put_s", "service.hit_ratio", "service.jobs_executed",
    "service.retries", "service.worker_crashes", "service.serial_fallbacks",
    "reliability.degradations",
    "trace.overhead_x", "trace.unattributed_s",
)

#: span name -> the ``*_s`` metric its self time adds to.
SPAN_METRIC = {
    "frontend.compile": "frontend.compile_s",
    "passes.optimize": "passes.optimize_s",
    "passes.instrument": "passes.instrument_s",
    "gpu.load": "gpu.load_s",
    "gpu.launch_plain": "gpu.launch_plain_s",
    "gpu.launch_instr": "gpu.launch_instr_s",
    "host.prepare": "host.prepare_s",
    "profiler.kernel_end": "profiler.kernel_end_s",
    "analysis.batch": "analysis.batch_s",
    "analysis.feed": "analysis.feed_s",
    "analysis.finalize": "analysis.finalize_s",
    "optim.predict": "optim.predict_s",
    "optim.oracle": "optim.oracle_s",
    "export.build": "export.build_s",
    "export.validate": "export.validate_s",
    "export.serialize": "export.serialize_s",
    "service.submit": "service.submit_s",
    "service.wait": "service.wait_s",
    "service.cache_get": "service.cache_get_s",
    "service.cache_put": "service.cache_put_s",
}

#: spans the benchmark opens around its own passes and jobs; their self
#: time is the time no layer accounts for.
BENCH_PREFIX = "bench."

#: the service counters reported as per-layer counts.
SERVICE_COUNTERS = {
    "service.jobs_executed": "jobs_executed",
    "service.retries": "retries",
    "service.worker_crashes": "worker_crashes",
    "service.serial_fallbacks": "serial_fallbacks",
}


def install(tracer: Tracer) -> None:
    """Wrap every layer's public callables (undo with ``tracer.restore``)."""
    import repro.export as export
    import repro.frontend.dsl as dsl
    import repro.optim.advisor as advisor
    import repro.passes as passes
    import repro.service.worker as worker
    from repro.analysis.aggregates import AnalyzerBank
    from repro.apps.registry import TABLE2
    from repro.gpu.device import Device
    from repro.profiler.profiler import HookRuntime
    from repro.reliability.supervisor import LaunchSupervisor
    from repro.service.cache import ResultCache
    from repro.service.service import ProfilingService

    def count(key, value=1):
        tracer.counts[key] += value

    # frontend
    for owner in (advisor, dsl):
        tracer.patch(owner, "compile_kernels", "frontend.compile")

    # passes: the factories return a PassManager whose run is timed
    def pipeline_factory(owner, attr, span, after=None):
        def make(factory):
            @functools.wraps(factory)
            def build(*args, **kwargs):
                manager = factory(*args, **kwargs)
                manager.run = tracer.wrap(manager.run, span, after)
                return manager

            setattr(build, MARK, span)
            return build

        tracer.replace(owner, attr, make)

    def instrumented(module, args, kwargs):
        count("passes.ir_insns", sum(
            len(block)
            for fn in module.functions.values()
            for block in fn.blocks
        ))

    pipeline_factory(advisor, "optimization_pipeline", "passes.optimize")
    pipeline_factory(passes, "optimization_pipeline", "passes.optimize")
    pipeline_factory(advisor, "instrumentation_pipeline",
                     "passes.instrument", instrumented)

    # gpu
    launch_sig = inspect.signature(Device.launch)

    def launch_name(*args, **kwargs):
        hooks = launch_sig.bind(*args, **kwargs).arguments.get("hooks")
        return "gpu.launch_plain" if hooks is None else "gpu.launch_instr"

    def launched(result, args, kwargs):
        count("gpu.launches")
        count("gpu.warp_insns", result.instructions)
        count("gpu.sim_cycles", result.cycles)

    tracer.patch(Device, "load_module", "gpu.load")
    tracer.patch(Device, "launch", launch_name, launched)

    # host
    for info in TABLE2:
        tracer.patch(info.builder, "prepare", "host.prepare")

    # profiler
    def kernel_ended(result, args, kwargs):
        profile = args[0].profile
        count("profiler.records", len(profile.memory_records)
              + len(profile.block_records) + len(profile.arith_records))
        count("profiler.dropped_records", profile.dropped_records)

    tracer.patch(HookRuntime, "kernel_end", "profiler.kernel_end",
                 kernel_ended)

    # analysis: the batch analyzers as CUDAAdvisor binds them, and the
    # in-flight bank
    for fn, stream in (
        ("reuse_distance_analysis", "memory_records"),
        ("memory_divergence_analysis", "memory_records"),
        ("heatmap_analysis", "memory_records"),
        ("branch_divergence_analysis", "block_records"),
        ("arithmetic_analysis", "arith_records"),
    ):
        def analysed(result, args, kwargs, stream=stream):
            count("analysis.rows", len(getattr(args[0], stream)))

        tracer.patch(advisor, fn, "analysis.batch", analysed)

    def fed(result, args, kwargs):
        count("analysis.rows", len(args[1]))

    for method in ("update_memory", "update_block", "update_arith"):
        tracer.patch(AnalyzerBank, method, "analysis.feed", fed)
    tracer.patch(AnalyzerBank, "result", "analysis.finalize")

    # optim
    tracer.patch(advisor, "predict_optimal_warps", "optim.predict")
    tracer.patch(advisor, "oracle_bypass_search", "optim.oracle")

    # export: as the benchmark calls it, and as the service's in-process
    # (serial fallback) path binds it
    def serialized(text, args, kwargs):
        count("export.bytes", len(text))

    for owner in (export, worker):
        tracer.patch(owner, "profile_export", "export.build")
        tracer.patch(owner, "validate", "export.validate")
        tracer.patch(owner, "export_json", "export.serialize", serialized)

    # service (parent side)
    tracer.patch(ProfilingService, "submit", "service.submit")
    tracer.patch(ProfilingService, "wait", "service.wait")
    tracer.patch(ResultCache, "get", "service.cache_get")
    tracer.patch(ResultCache, "put", "service.cache_put")

    # reliability
    def degraded(result, args, kwargs):
        count("reliability.degradations")

    tracer.patch(LaunchSupervisor, "degrade", "reliability.degrade",
                 degraded)


def count_launches(tracer: Tracer, totals: List[float]) -> None:
    """Add each launch's warp instructions and cycles to ``totals``.

    The untraced run's only shim: it reads no clock, and the simulated
    counts it sums are what ``sim_insn_per_s`` divides by wall time.
    """
    from repro.gpu.device import Device

    def make(launch):
        @functools.wraps(launch)
        def counted(*args, **kwargs):
            result = launch(*args, **kwargs)
            totals[0] += result.instructions
            totals[1] += result.cycles
            return result

        setattr(counted, MARK, "launch-counter")
        return counted

    tracer.replace(Device, "launch", make)


def _under(spans: List[Span], index: int, name: str) -> bool:
    """Whether span ``index`` has an ancestor called ``name``."""
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def pass_metrics(spans: List[Span], own: List[float], lo: int, hi: int,
                 counts: Dict[str, float], service: Dict[str, int],
                 wall: float) -> Tuple[Dict[str, float], float]:
    """Per-layer metrics of one traced pass, and its layer-sum error.

    ``spans[lo:hi]`` are the pass's spans and ``own`` the self times of
    all spans; ``counts`` are the counters the pass added, ``service``
    the service counters its sessions ended with, ``wall`` its wall time.
    The error is |layer self times + unattributed time - wall| / wall.
    """
    out: Dict[str, float] = {name: 0.0 for name in METRICS}
    layer_self = 0.0
    bench_self = 0.0
    paired_plain = 0.0
    for i in range(lo, hi):
        name = spans[i].name
        if name.startswith(BENCH_PREFIX):
            bench_self += own[i]
            continue
        layer_self += own[i]
        metric = SPAN_METRIC.get(name)
        if metric is not None:
            out[metric] += own[i]
        if name == "frontend.compile":
            out["frontend.compile_calls"] += 1
        elif name == "host.prepare" and _under(spans, i, "optim.oracle"):
            out["optim.oracle_runs"] += 1
        elif name == "gpu.launch_plain" and not _under(
            spans, i, "optim.oracle"
        ):
            paired_plain += own[i]
    for key in ("passes.ir_insns", "gpu.warp_insns", "gpu.launches",
                "gpu.sim_cycles", "profiler.records",
                "profiler.dropped_records", "analysis.rows", "export.bytes",
                "reliability.degradations"):
        out[key] = counts.get(key, 0)
    # The hook tax compares instrumented launches with the uninstrumented
    # baseline launches of the same profiles (not the oracle's runs).
    # Self times already exclude analyzer feeding done inside a launch.
    if paired_plain > 0:
        out["profiler.hook_tax_s"] = out["gpu.launch_instr_s"] - paired_plain
        out["profiler.overhead_x"] = out["gpu.launch_instr_s"] / paired_plain
    if service.get("submitted"):
        out["service.hit_ratio"] = service["cache_hits"] / service["submitted"]
    for metric, counter in SERVICE_COUNTERS.items():
        out[metric] = service.get(counter, 0)
    out["trace.unattributed_s"] = bench_self
    return out, abs(layer_self + bench_self - wall) / wall


def summarize(passes: List[Dict[str, float]]) -> Dict[str, float]:
    """Median of each metric over the traced passes."""
    return {name: median(p[name] for p in passes) for name in METRICS}
