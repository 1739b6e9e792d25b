"""The benchmark's four workloads, each a fixed job list run in passes.

Every job goes through the entry points a user calls:

* ``analysis-heavy`` and ``simulation-heavy`` follow ``repro export``:
  ``CUDAAdvisor(modes=..., heatmap=True).profile`` -> ``profile_export``
  -> ``validate`` -> ``export_json``, with every other knob at its
  default;
* ``bypass-search`` follows ``repro bypass``: a memory-mode profile
  without the baseline run, then ``evaluate_bypass`` (the Fig. 6/7
  oracle search), plus the export of the profile;
* ``service-mix`` is one ``ProfilingService(workers=2)`` session per
  pass over a fresh result cache, with the config ``repro serve`` uses.

A job's output is reduced to a digest record: the sha256 of its export
bytes, and for bypass jobs also the oracle's ``cycles_by_warps`` and the
Eq. 1 prediction. The seed only feeds the apps' ``seed=`` inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
import tempfile
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.apps import build_app
from repro.errors import ReproError
from repro.export import SchemaError
import repro.export as export
from repro.gpu.arch import kepler_with_l1
from repro.optim.advisor import CUDAAdvisor
from repro.service import ProfilingService

#: one job: app name and the input sizes it runs at.
App = Tuple[str, Dict[str, int]]


class Outcome(NamedTuple):
    """One finished job: its id, digest record and failure (or None)."""

    job: str
    digest: object
    error: Optional[str]


class PassResult(NamedTuple):
    outcomes: List[Outcome]
    #: simulated warp instructions and cycles over the pass's launches,
    #: when the workload reports them itself (service payloads); None
    #: means the runner counts them at ``Device.launch``.
    sim: Optional[Tuple[int, float]]
    #: the service counters of the pass's sessions (empty elsewhere).
    service: Dict[str, int]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _export(report) -> str:
    """``repro export``'s tail: build, validate, serialize."""
    doc = export.profile_export(report)
    export.validate(doc)
    return export.export_json(doc)


def _attempt(job: str, fn) -> Outcome:
    """Run one job; a typed program failure fails the job, not the run."""
    try:
        return Outcome(job, fn(), None)
    except (ReproError, SchemaError) as exc:
        return Outcome(job, None, f"{type(exc).__name__}: {exc}")


class ExportWorkload:
    """``repro export`` over a fixed app list."""

    in_process = True

    def __init__(self, name: str, why: str, modes: Tuple[str, ...],
                 apps: List[App]):
        self.name = name
        self.why = why
        self.modes = modes
        self.apps = apps

    def run_job(self, app: str, sizes: dict, seed: int) -> str:
        advisor = CUDAAdvisor(modes=self.modes, heatmap="memory" in self.modes)
        report = advisor.profile(build_app(app, seed=seed, **sizes))
        return sha256(_export(report))

    def warm_up(self, seed: int, workdir: str) -> None:
        app, sizes = self.apps[0]
        self.run_job(app, sizes, seed)

    def run_pass(self, seed: int, workdir: str, tracer=None) -> PassResult:
        outcomes = []
        for app, sizes in self.apps:
            with _job(tracer, app):
                outcomes.append(_attempt(
                    app, lambda: self.run_job(app, sizes, seed)
                ))
        return PassResult(outcomes, None, {})


class BypassWorkload(ExportWorkload):
    """``repro bypass``: profile, Eq. 1 prediction, oracle search."""

    def __init__(self, name: str, why: str, apps: List[App]):
        super().__init__(name, why, ("memory",), apps)

    def run_job(self, app: str, sizes: dict, seed: int) -> dict:
        advisor = CUDAAdvisor(arch=kepler_with_l1(16), modes=self.modes,
                              measure_overhead=False)
        program = build_app(app, seed=seed, **sizes)
        report = advisor.profile(program)
        text = _export(report)
        search, prediction = advisor.evaluate_bypass(
            program, report.bypass_prediction
        )
        return {
            "export": sha256(text),
            "cycles_by_warps": {
                str(k): v for k, v in sorted(search.cycles_by_warps.items())
            },
            "optimal_warps": prediction.optimal_warps,
            "raw_value": prediction.raw_value,
        }


#: the submit() config ``repro serve`` builds from its defaults.
SERVE_CONFIG = {
    "arch": "kepler",
    "modes": ("memory", "blocks"),
    "sample_rate": 1,
    "measure_overhead": True,
}


class ServiceWorkload:
    """A closed-loop client of one ``ProfilingService`` session per pass.

    The client keeps at most ``OUTSTANDING`` jobs in flight and waits
    for the oldest. Each app is resubmitted once its first copy is done;
    the resubmission must be served from the cache, so the pass makes
    exactly one cache hit per app.
    """

    in_process = False
    OUTSTANDING = 2
    WORKERS = 2

    def __init__(self, name: str, why: str, apps: List[App]):
        self.name = name
        self.why = why
        self.apps = apps

    def _session(self, apps: List[App], seed: int, workdir: str,
                 tracer=None) -> PassResult:
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
        outcomes: List[Outcome] = []
        insns = 0
        cycles = 0.0
        try:
            with ProfilingService(workers=self.WORKERS,
                                  cache_dir=cache_dir) as svc:

                def submit(app, sizes):
                    return svc.submit(app, dict(SERVE_CONFIG),
                                      app_kwargs=dict(sizes, seed=seed))

                def collect(job, handle, first=None) -> Outcome:
                    with _job(tracer, job):
                        outcome = _attempt(job, lambda: _service_result(
                            svc, handle, first
                        ))
                    outcomes.append(outcome)
                    return outcome

                todo = list(apps)
                inflight: list = []
                while todo or inflight:
                    while todo and len(inflight) < self.OUTSTANDING:
                        app, sizes = todo.pop(0)
                        inflight.append((app, sizes, submit(app, sizes)))
                    app, sizes, handle = inflight.pop(0)
                    outcome = collect(app, handle)
                    if outcome.error is not None:
                        continue
                    payload = json.loads(handle.result_value.payload)
                    overhead = payload["metrics"]["overhead"]
                    insns += (overhead["baseline_instructions"]
                              + overhead["instrumented_instructions"])
                    cycles += (overhead["baseline_cycles"]
                               + overhead["instrumented_cycles"])
                    # the resubmission resolves from the cache at submit
                    collect(f"{app}#hit", submit(app, sizes), outcome.digest)
                counters = dict(svc.counters)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return PassResult(outcomes, (insns, cycles), counters)

    def warm_up(self, seed: int, workdir: str) -> None:
        self._session(self.apps[:1], seed, workdir)

    def run_pass(self, seed: int, workdir: str, tracer=None) -> PassResult:
        return self._session(self.apps, seed, workdir, tracer)


def _service_result(svc, handle, first: Optional[str]) -> str:
    """Validate a job's payload; a resubmission must be a cache hit."""
    result = svc.result(handle)
    export.validate(json.loads(result.payload))
    digest = sha256(result.payload)
    if first is not None:
        if result.source != "cache-hit":
            raise ReproError(
                f"resubmitted {handle.spec.app} was not served from the "
                f"cache (source {result.source})"
            )
        if digest != first:
            raise ReproError(
                f"cache hit for {handle.spec.app} differs from the fresh "
                "payload"
            )
    return digest


@contextlib.contextmanager
def _job(tracer, job: str) -> Iterator[None]:
    """The benchmark's own span around one job (traced runs only)."""
    if tracer is None:
        yield
        return
    tracer.job = job
    try:
        with tracer.span("bench.job"):
            yield
    finally:
        tracer.job = None


WORKLOADS = {
    w.name: w
    for w in (
        ExportWorkload(
            "analysis-heavy",
            "repro export defaults over srad_v2, bicg, syrk: in-RAM "
            "analysis dominates each profile; loads the analysis layer",
            ("memory", "blocks"),
            [("bicg", {"nx": 48, "ny": 48}),
             ("srad_v2", {"n": 32, "iterations": 1}),
             ("syrk", {"n": 20, "m": 20})],
        ),
        ExportWorkload(
            "simulation-heavy",
            "export with memory+blocks+arith over lavaMD, nw, hotspot: "
            "execution dominates; loads gpu and the instrumentation hooks",
            ("memory", "blocks", "arith"),
            [("hotspot", {"n": 32, "steps": 2}),
             ("nw", {"n": 48}),
             ("lavaMD", {"boxes1d": 1, "par_per_box": 72})],
        ),
        BypassWorkload(
            "bypass-search",
            "repro bypass over syrk, hotspot, srad_v2, bfs: the oracle's "
            "uninstrumented runs dominate; loads optim, bypasses analysis",
            [("hotspot", {"n": 16, "steps": 2}),
             ("srad_v2", {"n": 16, "iterations": 1}),
             ("syrk", {"n": 20, "m": 20}),
             ("bfs", {"num_nodes": 128})],
        ),
        ServiceWorkload(
            "service-mix",
            "2-worker service session, small specs of all ten apps, each "
            "resubmitted once: loads service, result cache, IPC, compile",
            [("nn", {"num_records": 512}),
             ("backprop", {"input_units": 256}),
             ("bfs", {"num_nodes": 256}),
             ("hotspot", {"n": 16, "steps": 2}),
             ("lavaMD", {"boxes1d": 1, "par_per_box": 16}),
             ("nw", {"n": 32}),
             ("srad_v2", {"n": 16, "iterations": 1}),
             ("bicg", {"nx": 32, "ny": 32}),
             ("syrk", {"n": 16, "m": 16}),
             ("syr2k", {"n": 16, "m": 16})],
        ),
    )
}
