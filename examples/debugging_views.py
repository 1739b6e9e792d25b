"""Code- and data-centric debugging (case study E, Figures 8-9).

Runs the bfs benchmark under full profiling, finds the memory accesses
with the worst divergence, and prints:

* the **code-centric view**: the concatenated CPU->GPU calling context
  from main() down to the offending instruction (Figure 8);
* the **data-centric view**: which device object the access touches,
  which cudaMemcpy filled it, and which host object it came from
  (Figure 9 -- the paper's d_graph_visited <- h_graph_visited chain).

Run:  python examples/debugging_views.py
"""

from repro import CUDAAdvisor, KEPLER_K40C
from repro.analysis.divergence_memory import divergent_sites
from repro.apps import build_app
from repro.profiler.codecentric import format_code_centric_view


def main():
    # keep_records: the views below look up raw trace records.
    advisor = CUDAAdvisor(arch=KEPLER_K40C, modes=("memory", "blocks"),
                          measure_overhead=False, keep_records=True)
    report = advisor.profile(build_app("bfs", num_nodes=1024))
    session = report.session

    # Rank source locations by divergent warp events across all kernel
    # instances of the BFS sweep.
    totals = {}
    samples = {}
    for profile in session.profiles:
        for site, count in divergent_sites(profile, 128).items():
            totals[site] = totals.get(site, 0) + count
            if site not in samples:
                samples[site] = (
                    profile,
                    next(r for r in profile.memory_records
                         if (r.line, r.col) == site),
                )

    print("divergent memory accesses (by source line):")
    for (line, col), count in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"  bfs.py:{line}:{col} -- {count} divergent warp accesses")
    print()

    worst = max(totals, key=totals.get)
    profile, record = samples[worst]

    print("=" * 70)
    print("Code-centric view (Figure 8): calling context of the worst site")
    print("=" * 70)
    print(format_code_centric_view(
        profile.host_call_path,
        profile.call_paths.path(record.call_path_id),
        profile.functions_by_id,
        f"bfs.py: {record.line} (memory divergence)",
    ))
    print()

    print("=" * 70)
    print("Data-centric view (Figure 9): which data object is responsible")
    print("=" * 70)
    view = session.data_centric_map().resolve(
        int(record.active_addresses()[0])
    )
    print(view.render())


if __name__ == "__main__":
    main()
