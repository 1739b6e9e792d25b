"""Extension experiment: horizontal vs vertical cache bypassing.

Section 4.2-D of the paper contrasts the two software bypassing
families: *vertical* [55] (per-instruction: bypass selected loads for
every warp; finer-grained but cannot manage concurrency) and
*horizontal* [31] (per-warp; simpler, manages concurrency, "cannot
distinguish loads with little reuse"). CUDAAdvisor's per-site reuse
analysis can drive both; this harness compares them on the scaled
Kepler configuration of Figure 6 and also evaluates their combination.
"""

import pytest

from benchmarks.common import (
    BYPASS_TIMING,
    KEPLER_16_SCALED,
    bypass_experiment,
    write_result,
)
from repro.analysis.reuse_distance import (
    ReuseDistanceModel,
    site_reuse_analysis,
)
from repro.apps import build_app
from repro.frontend.dsl import compile_kernels
from repro.gpu.device import Device
from repro.host.runtime import CudaRuntime
from repro.optim.advisor import CUDAAdvisor
from repro.passes import (
    PassManager,
    VerticalBypassPass,
    optimization_pipeline,
    plan_vertical_bypass,
)

APPS = ("srad_v2", "syrk", "hotspot")


def _run_cycles(app, module):
    dev = Device(KEPLER_16_SCALED, timing_params=BYPASS_TIMING)
    rt = CudaRuntime(dev)
    image = dev.load_module(module)
    state = app.prepare(rt)
    results = app.run(rt, image, state)
    assert app.check(rt, state)
    return sum(r.cycles for r in results)


def _vertical_cycles(app_name):
    """Plan per-site bypassing from the profile, apply, measure."""
    advisor = CUDAAdvisor(arch=KEPLER_16_SCALED, modes=("memory",),
                          measure_overhead=False, keep_records=True)
    app = build_app(app_name)
    report = advisor.profile(app)

    plan = set()
    capacity_lines = KEPLER_16_SCALED.l1_num_lines
    for profile in report.session.profiles:
        sites = site_reuse_analysis(
            profile, model=ReuseDistanceModel.CACHE_LINE,
            line_size=KEPLER_16_SCALED.l1_line_size,
        )
        plan |= plan_vertical_bypass(
            sites, no_reuse_threshold=0.7, capacity_lines=capacity_lines
        )

    module = compile_kernels(list(app.kernels), f"{app_name}-vert")
    optimization_pipeline().run(module)
    PassManager([VerticalBypassPass(plan)]).run(module)
    baseline_module = compile_kernels(list(app.kernels), f"{app_name}-base")
    optimization_pipeline().run(baseline_module)

    base = _run_cycles(build_app(app_name), baseline_module)
    vertical = _run_cycles(build_app(app_name), module)
    return vertical / base, len(plan)


@pytest.mark.parametrize("app", APPS)
def test_bypass_families(benchmark, app):
    def run():
        search, prediction = bypass_experiment(app, KEPLER_16_SCALED)
        horizontal = search.normalized(prediction.optimal_warps)
        vertical, planned_sites = _vertical_cycles(app)
        return horizontal, vertical, planned_sites, search

    horizontal, vertical, planned, search = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    benchmark.extra_info.update({
        "horizontal_norm": round(horizontal, 3),
        "vertical_norm": round(vertical, 3),
        "vertical_sites": planned,
    })
    write_result(
        f"bypass_comparison_{app}.txt",
        (f"{app}: baseline 1.000 | horizontal (Eq.1) {horizontal:.3f} | "
         f"vertical ({planned} sites) {vertical:.3f} | "
         f"oracle {search.oracle_normalized:.3f}"),
    )
    # Sanity: neither scheme should be catastrophically worse than
    # baseline on bypass-favorable or insensitive apps.
    assert horizontal < 1.35
    assert vertical < 1.35
