"""Tests of the benchmark's own machinery (run: ``pytest perfbench``)."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import run  # noqa: E402
from spans import MARK, Tracer, self_times  # noqa: E402
from workloads import ExportWorkload  # noqa: E402

TINY = ExportWorkload("tiny", "test", ("memory", "blocks"),
                      [("syrk", {"n": 8, "m": 8})])


def _installed_targets():
    """(owner, attr) of every callable the traced run wraps."""
    tracer = Tracer()
    layers.install(tracer)
    layers.count_launches(tracer, [0, 0.0])
    targets = [(owner, attr) for owner, attr, _ in tracer._patches]
    tracer.restore()
    return targets


def _wrapped(targets):
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in targets
        if hasattr(getattr(owner, attr), MARK)
    ]


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer()
    with tracer.span("a"):
        with tracer.span("b"):
            with tracer.span("c"):
                pass
        with tracer.span("d"):
            pass
    a, b, c, d = tracer.spans
    own = self_times(tracer.spans)
    assert own[0] == pytest.approx(a.duration - b.duration - d.duration)
    assert own[1] == pytest.approx(b.duration - c.duration)
    assert own[2] == c.duration and own[3] == d.duration
    assert sum(own) == pytest.approx(a.duration)


def test_restore_puts_back_the_original_objects():
    from repro.gpu.device import Device
    import repro.optim.advisor as advisor

    launch = Device.__dict__["launch"]
    compile_kernels = advisor.compile_kernels
    targets = _installed_targets()
    assert len(targets) > 30
    assert Device.__dict__["launch"] is launch
    assert advisor.compile_kernels is compile_kernels
    assert _wrapped(targets) == []


def test_untraced_run_leaves_no_wrapper_installed(tmp_path):
    targets = _installed_targets()
    passes = run.measure(TINY, 0, 0.0, str(tmp_path))
    assert len(passes) == run.MIN_PASSES
    assert all(o.error is None for p in passes for o in p.outcomes)
    assert all(p.insns > 0 for p in passes)
    assert _wrapped(targets) == []


def test_traced_run_repeats_untraced_digests_and_sums_to_wall(tmp_path):
    plain = run.measure(TINY, 3, 0.0, str(tmp_path))
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = run.measure(TINY, 3, 0.0, str(tmp_path), tracer)
    finally:
        tracer.restore()
    checker = run.Checker("no-such-workload", 3)
    checker.check(plain + traced)
    checker.check_counts(plain + traced)
    assert checker.failures == []
    own = self_times(tracer.spans)
    for p in traced:
        one, error = layers.pass_metrics(tracer.spans, own, *p.spans,
                                         p.counts, p.service, p.wall)
        assert error < run.LAYER_SUM_TOLERANCE
        assert one["gpu.sim_cycles"] == p.cycles
        assert one["analysis.batch_s"] > 0 and one["gpu.launches"] > 0
    assert _wrapped(_installed_targets()) == []


def test_checker_flags_a_digest_that_differs_from_the_reference():
    checker = run.Checker("no-such-workload", 0)
    checker.expected = {"syrk": "0" * 64}
    from workloads import Outcome

    checker.check([run.Pass(1.0, [Outcome("syrk", "1" * 64, None)], 1, 1.0,
                            {})])
    assert checker.attempted == 1 and len(checker.failures) == 1


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json", ".md")):
            shutil.copy(os.path.join(HERE, name), bench / name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analysis-heavy",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
