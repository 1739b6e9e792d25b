"""One analysis path, checked against record-at-a-time oracles.

Every analysis runs through the mergeable aggregates of
``analysis/aggregates.py``: in flight by default, through the streaming
drain for spilled sessions, and -- for profiles that keep their records
-- over the materialized trace fed as one segment. Instead of pinning
those feeds against each other pairwise, this suite computes every
result a second way, one record at a time with the scalar definitions
(``reuse_distances_of_trace``, ``stack_distances``, per-record
``divergence_degree``, ``BranchDivergenceProfile.add``, a per-lane heat
map), and requires exact equality -- dict order included:

* **Property tests** (hypothesis) push random interleaved
  memory/block/arith streams through the in-flight path at flush
  granularities down to one row, through spilled buffers and the
  streaming drain down to ``segment_rows=1``, and through CTA-disjoint
  fork shards whose banks merge -- under stride-sampling phases,
  keep-first capacity, and both reuse-distance write rules.
* **App level**: the default (in-flight) ``CUDAAdvisor`` report and its
  ``export_json`` bytes must equal a ``keep_records=True`` run, and its
  analyses must equal the oracles over the kept records -- serial,
  batched backend, fork-parallel shards, sampled and capped.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.aggregates import full_plan
from repro.analysis.arithmetic import ArithmeticProfile
from repro.analysis.cache_model import StackDistanceSummary, stack_distances
from repro.analysis.divergence_branch import BranchDivergenceProfile
from repro.analysis.divergence_memory import MemoryDivergenceProfile
from repro.analysis.reuse_distance import (
    INFINITE,
    ReuseDistanceHistogram,
    ReuseDistanceModel,
    reuse_distances_of_trace,
)
from repro.apps import build_app
from repro.export import export_json, profile_export
from repro.gpu.coalescing import divergence_degree
from repro.optim.advisor import CUDAAdvisor
from repro.profiler.buffers import (
    ColumnarArithBuffer,
    ColumnarBlockBuffer,
    ColumnarMemoryBuffer,
    clip_to_capacity,
    stride_sample,
)
from repro.profiler.records import MemoryOp
from repro.profiler.streamdrain import FusedSink, StreamDrain
from repro.reliability.spill import SpillConfig

WARP = 4
LINE = 64
CELL_ROWS = 3
GRANULE = 256
ELEMENT = ReuseDistanceModel.ELEMENT
CACHE_LINE = ReuseDistanceModel.CACHE_LINE


# -- record-at-a-time oracles ---------------------------------------------------


def _cta_events(records, model, line_size):
    """Per CTA (ascending): ``(element, is_write, site)`` per active lane,
    in record then lane order -- the paper's per-CTA regrouping."""
    by_cta = {}
    for r in records:
        is_write = r.op != MemoryOp.LOAD
        unit = line_size if model is CACHE_LINE else max(r.bytes_per_lane, 1)
        by_cta.setdefault(r.cta, []).extend(
            (int(a) // unit, is_write, (r.line, r.col))
            for a in r.active_addresses()
        )
    return [by_cta[cta] for cta in sorted(by_cta)]


def oracle_reuse(records, model, line_size, write_restart=True):
    hist = ReuseDistanceHistogram(model=model)
    for events in _cta_events(records, model, line_size):
        pairs = [(e, w) for e, w, _ in events]
        for d in reuse_distances_of_trace(pairs, write_restart):
            hist.add_sample(d)
    return hist


def oracle_site_reuse(records, model, line_size, write_restart=True):
    sites = {}
    for events in _cta_events(records, model, line_size):
        pairs = [(e, w) for e, w, _ in events]
        distances = reuse_distances_of_trace(
            pairs, write_restart, reads_only=False
        )
        for (_, is_write, site), d in zip(events, distances):
            if not is_write:
                sites.setdefault(
                    site, ReuseDistanceHistogram(model=model)
                ).add_sample(d)
    return sites


def oracle_stack(records, line_size):
    counts, infinite = Counter(), 0
    for events in _cta_events(records, CACHE_LINE, line_size):
        for d in stack_distances([(e, w) for e, w, _ in events]):
            if d == INFINITE:
                infinite += 1
            else:
                counts[d] += 1
    return StackDistanceSummary(counts, infinite, line_size)


def _lines_touched(record, line_size):
    return divergence_degree(
        record.addresses, record.mask, max(record.bytes_per_lane, 1),
        line_size,
    )


def oracle_memory_divergence(records, line_size):
    profile = MemoryDivergenceProfile(line_size=line_size)
    for r in records:
        profile.add(_lines_touched(r, line_size))
    return profile


def oracle_divergent_sites(records, line_size, threshold=2):
    sites = {}
    for r in records:
        if _lines_touched(r, line_size) >= threshold:
            sites[(r.line, r.col)] = sites.get((r.line, r.col), 0) + 1
    return sites


def oracle_branch(records):
    profile = BranchDivergenceProfile()
    for r in records:
        profile.add(r)
    return profile


def oracle_arith(records):
    profile = ArithmeticProfile()
    for r in records:
        if r.is_float:
            profile.lane_flops += r.active_lanes
        else:
            profile.lane_intops += r.active_lanes
        profile.by_opcode[r.opcode] += r.active_lanes
        profile.by_line[r.line] += r.active_lanes
    return profile


def oracle_heatmap(records, cell_rows, granule):
    """(granule, cell) -> [reads, writes, distinct byte offsets]."""
    phase = Counter()
    cells = {}
    for r in records:
        cell = phase[r.cta] // cell_rows
        phase[r.cta] += 1
        is_write = r.op != MemoryOp.LOAD
        for a in (int(a) for a in r.active_addresses()):
            entry = cells.setdefault((a // granule, cell), [0, 0, set()])
            entry[1 if is_write else 0] += 1
            for b in range(a, a + max(r.bytes_per_lane, 1)):
                cells.setdefault(
                    (b // granule, cell), [0, 0, set()]
                )[2].add(b % granule)
    return cells


def _heat_cells(table):
    return {
        key: [c.reads, c.writes, set(
            np.flatnonzero(np.unpackbits(c.bits, bitorder="little")).tolist()
        )]
        for key, c in table.cells.items()
    }


def _branch_view(profile):
    return (
        profile.total_blocks, profile.divergent_blocks,
        [(name, s.executions, s.divergent, s.line)
         for name, s in profile.per_block.items()],
    )


def _arith_view(profile):
    return (profile.lane_flops, profile.lane_intops,
            dict(profile.by_opcode), dict(profile.by_line))


def assert_bank_matches_oracles(bank, memory, block, arith,
                                write_restart=True):
    """Every full-plan result == its oracle over the kept records."""
    for name, model in (("reuse_element", ELEMENT),
                        ("reuse_cache_line", CACHE_LINE)):
        assert bank.result(name) == oracle_reuse(
            memory, model, LINE, write_restart
        ), name
        sites = bank.result(f"site_{name}")
        expected = oracle_site_reuse(memory, model, LINE, write_restart)
        assert list(sites.items()) == list(expected.items()), name
    assert bank.result("stack_distance") == oracle_stack(memory, LINE)
    assert bank.result("memory_divergence") == oracle_memory_divergence(
        memory, LINE
    )
    assert list(bank.result("divergent_sites").items()) == list(
        oracle_divergent_sites(memory, LINE).items()
    )
    assert _heat_cells(bank.result("heatmap")) == oracle_heatmap(
        memory, CELL_ROWS, GRANULE
    )
    assert _branch_view(bank.result("branch_divergence")) == _branch_view(
        oracle_branch(block)
    )
    assert _arith_view(bank.result("arithmetic")) == _arith_view(
        oracle_arith(arith)
    )


# -- synthetic event streams ------------------------------------------------------

#: one event: (stream, cta, selector, op) -- the selector picks
#: addresses, widths, masks, sites and opcodes; ``op`` is the memory op
#: (1 load, 2 store, 3 atomic) or, for block/arith, a divergent/float
#: flag. The length is drawn first so long streams -- several time
#: cells and flushes per CTA, reads after writes -- are as common as
#: short ones.
_EVENT = st.tuples(
    st.sampled_from(["mem", "block", "arith"]),
    st.integers(0, 2),
    st.integers(0, 11),
    st.integers(1, 3),
)
_EVENTS = st.integers(0, 80).flatmap(
    lambda n: st.lists(_EVENT, min_size=n, max_size=n)
)


def _append(event, seq, mem, block, arith):
    stream, cta, sel, op = event
    if stream == "mem":
        # Small address pool, strides from coalesced to one line per
        # lane, 4- and 8-byte elements, some lanes masked off.
        stride = (4, 8, 2 * LINE)[sel % 3]
        addrs = np.arange(WARP, dtype=np.int64) * stride + (sel % 4) * 24
        mask = (np.ones(WARP, bool) if sel % 5
                else np.arange(WARP) % 2 == cta % 2)
        mem.append(
            seq=seq, cta=cta, warp_in_cta=sel % 2, addrs=addrs, mask=mask,
            bits=64 if sel >= 8 else 32, line=sel % 5, col=sel % 3,
            op=op, call_path_id=0,
        )
    elif stream == "block":
        block.append(
            seq=seq, cta=cta, warp_in_cta=sel % 2, name=f"b{sel % 4}",
            line=sel, col=0, active_lanes=2 if op == 1 else WARP,
            resident_lanes=WARP, call_path_id=0,
        )
    else:
        arith.append(
            seq=seq, cta=cta, warp_in_cta=sel % 2, opcode=f"op{sel % 3}",
            bits=32, is_float=op == 1, line=sel, col=0,
            active_lanes=1 + sel % WARP, call_path_id=0,
        )


def _buffers(spill=None):
    return (ColumnarMemoryBuffer(None, spill),
            ColumnarBlockBuffer(None, spill),
            ColumnarArithBuffer(None, spill))


def _fill(events, buffers):
    for seq, event in enumerate(events):
        _append(event, seq, *buffers)


def _kept_records(events, rate=1, capacity=None):
    """The rows a launch keeps, as plain records (the oracles' input)."""
    mem, block, arith = _buffers()
    _fill(events, (mem, block, arith))
    m, a = stride_sample(mem.drain(), arith.drain(), rate)
    kept = [clip_to_capacity(cols, capacity)[0]
            for cols in (m, block.drain(), a)]
    return [list(cols) for cols in kept]


def _plan(write_restart=True):
    return full_plan(LINE, write_restart=write_restart,
                     heatmap_cell_rows=CELL_ROWS)


def _in_flight(events, flush_rows, rate=1, capacity=None,
               write_restart=True):
    """Rows analyzed as they are appended (the default profile path)."""
    buffers = _buffers()
    bank = _plan(write_restart).create_bank()
    sink = FusedSink(StreamDrain(bank, rate, capacity), *buffers,
                     flush_rows)
    _fill(events, buffers)
    sink.flush()
    return bank


class TestAggregatesMatchOracles:
    @settings(max_examples=60, deadline=None)
    @given(
        events=_EVENTS,
        flush_rows=st.integers(1, 13),
        rate=st.sampled_from([1, 2, 3, 5]),
        capacity=st.sampled_from([None, 3, 10]),
        write_restart=st.booleans(),
    )
    def test_in_flight(self, events, flush_rows, rate, capacity,
                       write_restart):
        bank = _in_flight(events, flush_rows, rate, capacity, write_restart)
        assert_bank_matches_oracles(
            bank, *_kept_records(events, rate, capacity),
            write_restart=write_restart,
        )

    @settings(max_examples=30, deadline=None)
    @given(
        events=_EVENTS,
        segment_rows=st.integers(1, 9),
        rate=st.sampled_from([1, 2, 3]),
        capacity=st.sampled_from([None, 4]),
    )
    def test_spilled_streaming_drain(self, tmp_path_factory, events,
                                     segment_rows, rate, capacity):
        spill = SpillConfig(
            directory=str(tmp_path_factory.mktemp("seg")),
            segment_rows=segment_rows,
        )
        buffers = _buffers(spill)
        _fill(events, buffers)
        bank = _plan().create_bank()
        StreamDrain(bank, rate, capacity).feed_buffers(*buffers)
        assert_bank_matches_oracles(
            bank, *_kept_records(events, rate, capacity)
        )

    @settings(max_examples=30, deadline=None)
    @given(
        events=_EVENTS,
        flush_rows=st.integers(1, 9),
        pivot=st.integers(0, 3),
    )
    def test_fork_shard_banks_merge(self, events, flush_rows, pivot):
        # A fork-parallel launch splits CTAs across shards, each shard
        # fills its own bank, and the parent merges them in shard order
        # -- the concatenated trace the oracles see.
        low = [e for e in events if e[1] <= pivot]
        high = [e for e in events if e[1] > pivot]
        bank = _in_flight(low, flush_rows)
        bank.merge(_in_flight(high, flush_rows))
        lo, hi = _kept_records(low), _kept_records(high)
        assert_bank_matches_oracles(
            bank, *(a + b for a, b in zip(lo, hi))
        )


# -- app level -------------------------------------------------------------------

MODES = ("memory", "blocks", "arith")
APP = ("bfs", {"num_nodes": 256})

CONFIGS = {
    "serial": {},
    "batched": {"backend": "batched"},
    "fork-shards": {"parallel_workers": 4},
    "sampled-shards": {"parallel_workers": 4, "sample_rate": 3},
    "capped": {"buffer_capacity": 60},
}


def _report(keep_records, **knobs):
    advisor = CUDAAdvisor(modes=MODES, measure_overhead=False,
                          heatmap=True, heatmap_cell_rows=32,
                          keep_records=keep_records, **knobs)
    return advisor.profile(build_app(APP[0], **APP[1]))


def _merged_oracle(profiles, oracle, total, records="memory_records"):
    for p in profiles:
        total.merge(oracle(getattr(p, records)))
    return total


@pytest.mark.parametrize("config", list(CONFIGS))
def test_report_matches_keep_records_and_oracles(config):
    in_flight = _report(False, **CONFIGS[config])
    kept = _report(True, **CONFIGS[config])
    assert all(p.aggregates is not None for p in in_flight.session.profiles)
    assert all(p.aggregates is None for p in kept.session.profiles)
    assert export_json(profile_export(in_flight)) == export_json(
        profile_export(kept)
    )

    profiles = kept.session.profiles
    line = in_flight.arch.l1_line_size
    for attr, model in (("reuse_element", ELEMENT),
                        ("reuse_cache_line", CACHE_LINE)):
        assert getattr(in_flight, attr) == _merged_oracle(
            profiles, lambda rs: oracle_reuse(rs, model, line),
            ReuseDistanceHistogram(model=model),
        ), attr
    assert in_flight.memory_divergence == _merged_oracle(
        profiles, lambda rs: oracle_memory_divergence(rs, line),
        MemoryDivergenceProfile(line_size=line),
    )
    assert _branch_view(in_flight.branch_divergence) == _branch_view(
        _merged_oracle(profiles, oracle_branch, BranchDivergenceProfile(),
                       "block_records")
    )
    assert _arith_view(in_flight.arithmetic) == _arith_view(
        _merged_oracle(profiles, oracle_arith, ArithmeticProfile(),
                       "arith_records")
    )
