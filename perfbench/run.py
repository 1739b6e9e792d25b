"""End-to-end profiling benchmark: one workload, one seed, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload analysis-heavy --seed 0 \\
        --seconds 15 --trace 0

Runs the workload's job list in passes for ``--seconds``, checks every
job's output, and prints as its last line
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones (``wall_s``, ``sim_insn_per_s``,
``peak_rss_mb``, ``setup_s``, ``success_ratio``); with ``--trace 1`` half
the time runs untraced and half with a span around every layer call, the
metrics are the per-layer ones, and the spans are written as a Chrome
trace under ``perfbench/out/``. See ``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median
from typing import Dict, List, NamedTuple, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

#: a run measures at least this many passes, whatever ``--seconds`` says.
MIN_PASSES = 3
#: the traced run's layer self times plus unattributed time must be
#: within this share of its wall time.
LAYER_SUM_TOLERANCE = 0.03
#: set-up is sampled until three samples agree within this share...
SETUP_AGREEMENT = 0.10
#: ...or this many samples were taken.
SETUP_MAX_SAMPLES = 5


class Pass(NamedTuple):
    wall: float
    outcomes: list
    insns: int
    cycles: float
    service: Dict[str, int]
    #: the pass's slice of ``tracer.spans`` and the counters it added
    #: (traced runs only).
    spans: Tuple[int, int] = (0, 0)
    counts: Dict[str, float] = {}


def _parse(argv):
    parser = argparse.ArgumentParser(
        description="End-to-end profiling benchmark (see METRICS.md)."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true",
        help="only check the passes' outputs and store this seed's digests "
        "in reference.json (prints no metrics)",
    )
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure(workload, seed: int, seconds: float, workdir: str,
            tracer=None) -> List[Pass]:
    """Run passes of the job list until ``seconds`` would be exceeded."""
    from layers import count_launches
    from spans import Tracer

    shims = Tracer()
    totals = [0, 0.0]
    if workload.in_process:
        count_launches(shims, totals)
    passes: List[Pass] = []
    start = time.perf_counter()
    try:
        while True:
            totals[:] = [0, 0.0]
            if tracer is None:
                t0 = time.perf_counter()
                result = workload.run_pass(seed, workdir)
                wall = time.perf_counter() - t0
                extra = ()
            else:
                lo = len(tracer.spans)
                tracer.counts.clear()
                t0 = time.perf_counter()
                with tracer.span("bench.pass"):
                    result = workload.run_pass(seed, workdir, tracer)
                wall = time.perf_counter() - t0
                extra = ((lo, len(tracer.spans)), dict(tracer.counts))
            insns, cycles = result.sim or totals
            passes.append(Pass(wall, result.outcomes, insns, cycles,
                               result.service, *extra))
            elapsed = time.perf_counter() - start
            typical = median(p.wall for p in passes)
            if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
                return passes
    finally:
        shims.restore()


class Checker:
    """Compares every job's digest record with the reference for the seed.

    The committed reference is used when it has the seed; otherwise the
    first pass's digests become the reference, so later passes (and the
    traced run) must repeat them byte for byte.
    """

    def __init__(self, workload: str, seed: int):
        self.committed = _load_reference().get(workload, {}).get(str(seed))
        self.expected: Optional[dict] = (
            dict(self.committed) if self.committed else None
        )
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, passes: List[Pass]) -> None:
        for p in passes:
            digests = {}
            for outcome in p.outcomes:
                self.attempted += 1
                if outcome.error is not None:
                    self.failures.append(f"{outcome.job}: {outcome.error}")
                    continue
                digests[outcome.job] = outcome.digest
                if self.expected is not None and (
                    self.expected.get(outcome.job) != outcome.digest
                ):
                    self.failures.append(
                        f"{outcome.job}: output digest differs from the "
                        "reference"
                    )
            if self.expected is None:
                self.expected = digests

    def check_counts(self, passes: List[Pass]) -> None:
        """Simulated counts are deterministic: every pass repeats them."""
        counts = {(p.insns, p.cycles) for p in passes}
        if len(counts) > 1:
            self.failures.append(
                f"simulated instructions/cycles differ between passes: "
                f"{sorted(counts)}"
            )


def _load_reference() -> dict:
    try:
        with open(REFERENCE) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _record_reference(workload: str, seed: int, digests: dict) -> None:
    reference = _load_reference()
    reference.setdefault(workload, {})[str(seed)] = digests
    tmp = REFERENCE + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, REFERENCE)


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set of this process (and of reaped children)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(
            peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time of fresh processes.

    Each sample starts a new interpreter that imports ``repro``, builds
    the workload and runs its warm-up job, which is what one
    ``repro export`` invocation pays before its real work.
    """
    samples: List[float] = []
    while len(samples) < SETUP_MAX_SAMPLES:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(seed), "--probe-setup"],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=120,
        )
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr}")
        last = samples[-3:]
        if len(last) == 3 and (
            max(last) - min(last) <= SETUP_AGREEMENT * median(last)
        ):
            break
    return median(samples)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_x") or name.endswith("_ratio"):
        return "ratio"
    if name == "export.bytes":
        return "bytes"
    return "count"


def _emit(checker: Checker, metrics: Dict[str, Tuple[float, str]]) -> None:
    print(json.dumps({
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


def end_to_end(workload, seed: int, plain: List[Pass],
               checker: Checker) -> Dict[str, Tuple[float, str]]:
    rss = peak_rss_mb(include_children=not workload.in_process)
    return {
        "wall_s": (median(p.wall for p in plain), "s"),
        "sim_insn_per_s": (median(p.insns / p.wall for p in plain), "insn/s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup_seconds(workload.name, seed), "s"),
        "success_ratio": (
            1.0 - len(checker.failures) / checker.attempted, "ratio"
        ),
    }


def per_layer(workload, seed: int, seconds: float, workdir: str,
              plain: List[Pass], checker: Checker
              ) -> Dict[str, Tuple[float, str]]:
    """The traced half of a ``--trace 1`` run, checked against ``plain``."""
    import layers
    from spans import Tracer, self_times, write_chrome_trace

    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = measure(workload, seed, seconds, workdir, tracer)
    finally:
        tracer.restore()
    checker.check(traced)
    checker.check_counts(plain + traced)
    own = self_times(tracer.spans)
    per_pass = []
    for i, p in enumerate(traced):
        one, error = layers.pass_metrics(tracer.spans, own, *p.spans,
                                         p.counts, p.service, p.wall)
        per_pass.append(one)
        if error > LAYER_SUM_TOLERANCE:
            checker.failures.append(
                f"traced pass {i}: layer self times plus unattributed "
                f"time miss its wall time by {100 * error:.1f}%"
            )
        if workload.in_process and one["gpu.sim_cycles"] != p.cycles:
            checker.failures.append(
                f"traced pass {i}: traced launch cycles differ from the "
                "counted ones"
            )
    summary = layers.summarize(per_pass)
    summary["trace.overhead_x"] = (
        median(p.wall for p in traced) / median(p.wall for p in plain)
    )
    write_chrome_trace(
        os.path.join(OUT, f"trace-{workload.name}-seed{seed}.json"),
        tracer.spans,
        {"workload": workload.name, "seed": seed, "passes": len(traced)},
    )
    return {name: (summary[name], _unit(name)) for name in layers.METRICS}


def run(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        workload.warm_up(args.seed, workdir)
        if args.probe_setup:
            return 0
        checker = Checker(workload.name, args.seed)
        seconds = args.seconds / 2 if args.trace else args.seconds
        plain = measure(workload, args.seed, seconds, workdir)
        checker.check(plain)
        checker.check_counts(plain)
        if args.record:
            for failure in checker.failures:
                print(f"FAILED {failure}", file=sys.stderr)
            if checker.failures:
                return 1
            _record_reference(workload.name, args.seed, checker.expected)
            return 0
        if args.trace:
            metrics = per_layer(workload, args.seed, seconds, workdir, plain,
                                checker)
        else:
            metrics = end_to_end(workload, args.seed, plain, checker)
        if checker.committed is None:
            for job, digest in sorted((checker.expected or {}).items()):
                print(f"digest {workload.name} seed={args.seed} {job} "
                      f"{json.dumps(digest, sort_keys=True)}")
        for failure in checker.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        _emit(checker, metrics)
        return 1 if checker.failures else 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
