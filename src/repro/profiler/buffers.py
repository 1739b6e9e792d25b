"""The device-resident trace buffers.

"CUDAAdvisor stores this trace in a buffer located in GPU's global
memory" (Section 4.2-A); at kernel exit the buffer is copied to the
host. Two implementations model that:

* :class:`DeviceTraceBuffer` -- the original row-oriented buffer of
  record objects (kept for tooling and tests that build traces by
  hand).
* The **columnar** buffers (:class:`ColumnarMemoryBuffer`,
  :class:`ColumnarBlockBuffer`, :class:`ColumnarArithBuffer`) -- the
  fast path the hook runtime uses. Events append into preallocated
  structure-of-arrays numpy columns (chunked doubling growth, same
  capacity/drop semantics), so an instrumented event costs a handful of
  scalar stores instead of a dataclass plus two array allocations.
  ``drain()`` hands back a :class:`MemoryColumns` /
  :class:`BlockColumns` / :class:`ArithColumns` view that the analyzers
  consume vectorized; each view still behaves as a sequence of the
  classic record dataclasses (materialized lazily per index) for
  compatibility.

With an in-flight sink attached
(:class:`~repro.profiler.streamdrain.FusedSink`), a columnar buffer
hands its rows over whenever it holds ``sink_rows`` of them, so a
launch's resident trace stays bounded; without one, ``drain()`` returns
the whole kept trace at kernel exit.
"""

from __future__ import annotations

from typing import Generic, List, Optional, TypeVar

import numpy as np

from repro.profiler.records import (
    ArithRecord,
    BlockRecord,
    MemoryAccessRecord,
    MemoryOp,
)

T = TypeVar("T")


class DeviceTraceBuffer(Generic[T]):
    """Bounded append-only event buffer."""

    def __init__(self, capacity: Optional[int] = None):
        self.capacity = capacity
        self._entries: List[T] = []
        self.dropped = 0
        self.total_appended = 0

    def append(self, entry: T) -> bool:
        """Append; returns False (and counts a drop) when full."""
        self.total_appended += 1
        if self.capacity is not None and len(self._entries) >= self.capacity:
            self.dropped += 1
            return False
        self._entries.append(entry)
        return True

    def drain(self) -> List[T]:
        """The device-to-host copy at kernel exit; empties the buffer."""
        entries = self._entries
        self._entries = []
        return entries

    def __len__(self) -> int:
        return len(self._entries)


#: Initial allocation (rows) of a columnar buffer; doubles as it fills.
_INITIAL_ROWS = 1024


class _ColumnarBase:
    """Shared capacity/drop bookkeeping, chunked growth, in-flight hand-off."""

    def __init__(self, capacity: Optional[int] = None):
        self.capacity = capacity
        self.dropped = 0
        self.total_appended = 0
        #: in-flight analysis: ``sink(buffer)`` fires whenever the
        #: buffered rows reach ``sink_rows``; see
        #: :class:`repro.profiler.streamdrain.FusedSink`.
        self.sink = None
        self.sink_rows = 0
        self._n = 0
        self._alloc = 0

    def __len__(self) -> int:
        return self._n

    def _next_alloc(self) -> int:
        new = self._alloc * 2 if self._alloc else _INITIAL_ROWS
        if self.capacity is not None:
            new = min(new, self.capacity)
        return max(new, self._n + 1)

    def _admit(self) -> bool:
        """Count the append; False (and a drop) when the buffer is full."""
        self.total_appended += 1
        if self.capacity is not None and len(self) >= self.capacity:
            self.dropped += 1
            return False
        return True

    def _live_view(self):
        """The buffered rows as a view over the live column prefixes."""
        raise NotImplementedError

    def _reset_memory(self) -> None:
        """Forget the buffered arrays (per buffer kind)."""
        raise NotImplementedError

    def _maybe_flush(self) -> None:
        if self.sink is not None and self._n >= self.sink_rows:
            self.sink(self)

    def detach_rows(self):
        """Hand the buffered rows over as a zero-copy column view.

        The in-flight sink's hand-off: returns ``None`` when empty,
        otherwise a view over the live column prefixes. The buffer
        forgets the arrays (the next append allocates fresh ones), so
        the view is never mutated after detach.
        """
        if self._cols is None or not self._n:
            return None
        view = self._live_view()
        self._reset_memory()
        self._n = 0
        self._alloc = 0
        return view

    def _empty(self):
        """A zero-row column view (per buffer kind)."""
        raise NotImplementedError

    def drain(self):
        """The kernel-exit device-to-host copy; empties the buffer."""
        view = self.detach_rows()
        return self._empty() if view is None else view


def _column(records, field: str, dtype=np.int32) -> np.ndarray:
    """One field of every record, as a numpy column."""
    return np.array([getattr(r, field) for r in records], dtype=dtype)


class MemoryColumns:
    """Drained memory-trace columns; a lazy sequence of
    :class:`MemoryAccessRecord` for row-oriented consumers."""

    __slots__ = ("seq", "cta", "warp_in_cta", "bits", "line", "col", "op",
                 "call_path_id", "addresses", "mask")

    def __init__(self, seq, cta, warp_in_cta, bits, line, col, op,
                 call_path_id, addresses, mask):
        self.seq = seq
        self.cta = cta
        self.warp_in_cta = warp_in_cta
        self.bits = bits
        self.line = line
        self.col = col
        self.op = op
        self.call_path_id = call_path_id
        self.addresses = addresses  # (n, warp_size) int64
        self.mask = mask  # (n, warp_size) bool

    def __len__(self) -> int:
        return len(self.seq)

    def record(self, i: int) -> MemoryAccessRecord:
        return MemoryAccessRecord(
            seq=int(self.seq[i]),
            cta=int(self.cta[i]),
            warp_in_cta=int(self.warp_in_cta[i]),
            addresses=self.addresses[i],
            mask=self.mask[i],
            bits=int(self.bits[i]),
            line=int(self.line[i]),
            col=int(self.col[i]),
            op=MemoryOp(int(self.op[i])),
            call_path_id=int(self.call_path_id[i]),
        )

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self.record(j) for j in range(*i.indices(len(self)))]
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        return self.record(i)

    def __iter__(self):
        return (self.record(i) for i in range(len(self)))

    def take(self, rows) -> "MemoryColumns":
        """Row-subset view (numpy index/mask); seqs keep their values."""
        return MemoryColumns(
            self.seq[rows], self.cta[rows], self.warp_in_cta[rows],
            self.bits[rows], self.line[rows], self.col[rows], self.op[rows],
            self.call_path_id[rows], self.addresses[rows], self.mask[rows],
        )

    @classmethod
    def from_records(cls, records) -> "MemoryColumns":
        """Columns over a hand-built list of :class:`MemoryAccessRecord`."""
        shape = (len(records), len(records[0].mask) if records else 1)
        return cls(
            _column(records, "seq", np.int64), _column(records, "cta"),
            _column(records, "warp_in_cta"), _column(records, "bits"),
            _column(records, "line"), _column(records, "col"),
            _column(records, "op", np.int8),
            _column(records, "call_path_id", np.int64),
            _column(records, "addresses", np.int64).reshape(shape),
            _column(records, "mask", bool).reshape(shape),
        )


class ColumnarMemoryBuffer(_ColumnarBase):
    """SoA append buffer for instrumented memory accesses."""

    def __init__(self, capacity: Optional[int] = None):
        super().__init__(capacity)
        self._cols: Optional[tuple] = None
        self._warp_size = 0

    def _live_view(self) -> MemoryColumns:
        return MemoryColumns(*(col[: self._n] for col in self._cols))

    def _reset_memory(self) -> None:
        self._cols = None

    def _grow(self, warp_size: int) -> None:
        new = self._next_alloc()
        if self._cols is None:
            self._warp_size = warp_size
            self._cols = (
                np.zeros(new, np.int64),  # seq
                np.zeros(new, np.int32),  # cta
                np.zeros(new, np.int32),  # warp_in_cta
                np.zeros(new, np.int32),  # bits
                np.zeros(new, np.int32),  # line
                np.zeros(new, np.int32),  # col
                np.zeros(new, np.int8),  # op
                np.zeros(new, np.int64),  # call_path_id
                np.zeros((new, warp_size), np.int64),  # addresses
                np.zeros((new, warp_size), bool),  # mask
            )
        else:
            grown = []
            for col in self._cols:
                shape = (new,) + col.shape[1:]
                g = np.zeros(shape, col.dtype)
                g[: self._n] = col[: self._n]
                grown.append(g)
            self._cols = tuple(grown)
        self._alloc = new

    def append(self, seq, cta, warp_in_cta, addrs, mask, bits, line, col,
               op, call_path_id) -> bool:
        if not self._admit():
            return False
        n = self._n
        if n >= self._alloc:
            self._grow(len(addrs))
        c = self._cols
        c[0][n] = seq
        c[1][n] = cta
        c[2][n] = warp_in_cta
        c[3][n] = bits
        c[4][n] = line
        c[5][n] = col
        c[6][n] = op
        c[7][n] = call_path_id
        c[8][n] = addrs
        c[9][n] = mask
        self._n = n + 1
        self._maybe_flush()
        return True

    def _empty(self) -> MemoryColumns:
        return MemoryColumns(
            *(np.zeros(0, d) for d in (np.int64, np.int32, np.int32,
                                       np.int32, np.int32, np.int32,
                                       np.int8, np.int64)),
            np.zeros((0, self._warp_size or 1), np.int64),
            np.zeros((0, self._warp_size or 1), bool),
        )


class BlockColumns:
    """Drained basic-block columns; a lazy sequence of
    :class:`BlockRecord`."""

    __slots__ = ("seq", "cta", "warp_in_cta", "line", "col", "active_lanes",
                 "resident_lanes", "call_path_id", "block_names")

    def __init__(self, seq, cta, warp_in_cta, line, col, active_lanes,
                 resident_lanes, call_path_id, block_names):
        self.seq = seq
        self.cta = cta
        self.warp_in_cta = warp_in_cta
        self.line = line
        self.col = col
        self.active_lanes = active_lanes
        self.resident_lanes = resident_lanes
        self.call_path_id = call_path_id
        self.block_names = block_names  # list[str], interned

    def __len__(self) -> int:
        return len(self.seq)

    def record(self, i: int) -> BlockRecord:
        return BlockRecord(
            seq=int(self.seq[i]),
            cta=int(self.cta[i]),
            warp_in_cta=int(self.warp_in_cta[i]),
            block_name=self.block_names[i],
            line=int(self.line[i]),
            col=int(self.col[i]),
            active_lanes=int(self.active_lanes[i]),
            resident_lanes=int(self.resident_lanes[i]),
            call_path_id=int(self.call_path_id[i]),
        )

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self.record(j) for j in range(*i.indices(len(self)))]
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        return self.record(i)

    def __iter__(self):
        return (self.record(i) for i in range(len(self)))

    def take(self, rows) -> "BlockColumns":
        """Row-subset view (numpy index/mask); seqs keep their values."""
        idx = np.flatnonzero(rows) if np.asarray(rows).dtype == bool else rows
        return BlockColumns(
            self.seq[idx], self.cta[idx], self.warp_in_cta[idx],
            self.line[idx], self.col[idx], self.active_lanes[idx],
            self.resident_lanes[idx], self.call_path_id[idx],
            [self.block_names[i] for i in idx],
        )

    @classmethod
    def from_records(cls, records) -> "BlockColumns":
        """Columns over a hand-built list of :class:`BlockRecord`."""
        return cls(
            _column(records, "seq", np.int64), _column(records, "cta"),
            _column(records, "warp_in_cta"), _column(records, "line"),
            _column(records, "col"), _column(records, "active_lanes"),
            _column(records, "resident_lanes"),
            _column(records, "call_path_id", np.int64),
            [r.block_name for r in records],
        )


class ColumnarBlockBuffer(_ColumnarBase):
    """SoA append buffer for instrumented basic-block events."""

    def __init__(self, capacity: Optional[int] = None):
        super().__init__(capacity)
        self._cols: Optional[tuple] = None
        self._names: List[str] = []

    def _live_view(self) -> BlockColumns:
        return BlockColumns(*(col[: self._n] for col in self._cols),
                            self._names)

    def _reset_memory(self) -> None:
        self._cols = None
        self._names = []

    def _grow(self) -> None:
        new = self._next_alloc()
        if self._cols is None:
            self._cols = tuple(
                np.zeros(new, np.int64 if i in (0, 7) else np.int32)
                for i in range(8)
            )
        else:
            grown = []
            for col in self._cols:
                g = np.zeros(new, col.dtype)
                g[: self._n] = col[: self._n]
                grown.append(g)
            self._cols = tuple(grown)
        self._alloc = new

    def append(self, seq, cta, warp_in_cta, name, line, col, active_lanes,
               resident_lanes, call_path_id) -> bool:
        if not self._admit():
            return False
        n = self._n
        if n >= self._alloc:
            self._grow()
        c = self._cols
        c[0][n] = seq
        c[1][n] = cta
        c[2][n] = warp_in_cta
        c[3][n] = line
        c[4][n] = col
        c[5][n] = active_lanes
        c[6][n] = resident_lanes
        c[7][n] = call_path_id
        self._names.append(name)
        self._n = n + 1
        self._maybe_flush()
        return True

    def _empty(self) -> BlockColumns:
        return BlockColumns(
            *(np.zeros(0, np.int64 if i in (0, 7) else np.int32)
              for i in range(8)),
            [],
        )


class ArithColumns:
    """Drained arithmetic-op columns; a lazy sequence of
    :class:`ArithRecord`."""

    __slots__ = ("seq", "cta", "warp_in_cta", "bits", "is_float", "line",
                 "col", "active_lanes", "call_path_id", "opcodes")

    def __init__(self, seq, cta, warp_in_cta, bits, is_float, line, col,
                 active_lanes, call_path_id, opcodes):
        self.seq = seq
        self.cta = cta
        self.warp_in_cta = warp_in_cta
        self.bits = bits
        self.is_float = is_float
        self.line = line
        self.col = col
        self.active_lanes = active_lanes
        self.call_path_id = call_path_id
        self.opcodes = opcodes  # list[str], interned

    def __len__(self) -> int:
        return len(self.seq)

    def record(self, i: int) -> ArithRecord:
        return ArithRecord(
            seq=int(self.seq[i]),
            cta=int(self.cta[i]),
            warp_in_cta=int(self.warp_in_cta[i]),
            opcode=self.opcodes[i],
            bits=int(self.bits[i]),
            is_float=bool(self.is_float[i]),
            line=int(self.line[i]),
            col=int(self.col[i]),
            active_lanes=int(self.active_lanes[i]),
            call_path_id=int(self.call_path_id[i]),
        )

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self.record(j) for j in range(*i.indices(len(self)))]
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        return self.record(i)

    def __iter__(self):
        return (self.record(i) for i in range(len(self)))

    def take(self, rows) -> "ArithColumns":
        """Row-subset view (numpy index/mask); seqs keep their values."""
        idx = np.flatnonzero(rows) if np.asarray(rows).dtype == bool else rows
        return ArithColumns(
            self.seq[idx], self.cta[idx], self.warp_in_cta[idx],
            self.bits[idx], self.is_float[idx], self.line[idx],
            self.col[idx], self.active_lanes[idx], self.call_path_id[idx],
            [self.opcodes[i] for i in idx],
        )

    @classmethod
    def from_records(cls, records) -> "ArithColumns":
        """Columns over a hand-built list of :class:`ArithRecord`."""
        return cls(
            _column(records, "seq", np.int64), _column(records, "cta"),
            _column(records, "warp_in_cta"), _column(records, "bits"),
            _column(records, "is_float", bool), _column(records, "line"),
            _column(records, "col"), _column(records, "active_lanes"),
            _column(records, "call_path_id", np.int64),
            [r.opcode for r in records],
        )


class ColumnarArithBuffer(_ColumnarBase):
    """SoA append buffer for instrumented arithmetic events."""

    def __init__(self, capacity: Optional[int] = None):
        super().__init__(capacity)
        self._cols: Optional[tuple] = None
        self._opcodes: List[str] = []

    def _live_view(self) -> ArithColumns:
        return ArithColumns(*(col[: self._n] for col in self._cols),
                            self._opcodes)

    def _reset_memory(self) -> None:
        self._cols = None
        self._opcodes = []

    def _grow(self) -> None:
        new = self._next_alloc()
        if self._cols is None:
            self._cols = (
                np.zeros(new, np.int64),  # seq
                np.zeros(new, np.int32),  # cta
                np.zeros(new, np.int32),  # warp_in_cta
                np.zeros(new, np.int32),  # bits
                np.zeros(new, bool),  # is_float
                np.zeros(new, np.int32),  # line
                np.zeros(new, np.int32),  # col
                np.zeros(new, np.int32),  # active_lanes
                np.zeros(new, np.int64),  # call_path_id
            )
        else:
            grown = []
            for col in self._cols:
                g = np.zeros(new, col.dtype)
                g[: self._n] = col[: self._n]
                grown.append(g)
            self._cols = tuple(grown)
        self._alloc = new

    def append(self, seq, cta, warp_in_cta, opcode, bits, is_float, line,
               col, active_lanes, call_path_id) -> bool:
        if not self._admit():
            return False
        n = self._n
        if n >= self._alloc:
            self._grow()
        c = self._cols
        c[0][n] = seq
        c[1][n] = cta
        c[2][n] = warp_in_cta
        c[3][n] = bits
        c[4][n] = is_float
        c[5][n] = line
        c[6][n] = col
        c[7][n] = active_lanes
        c[8][n] = call_path_id
        self._opcodes.append(opcode)
        self._n = n + 1
        self._maybe_flush()
        return True

    def _empty(self) -> ArithColumns:
        return ArithColumns(
            *(np.zeros(0, d) for d in (
                np.int64, np.int32, np.int32, np.int32, bool,
                np.int32, np.int32, np.int32, np.int64)),
            [],
        )


def stride_sample(memory: MemoryColumns, arith: ArithColumns,
                  rate: int):
    """Every ``rate``-th event of the merged memory+arith stream.

    The sampled trace is a strict row-subset of the full trace: events
    are ranked by sequence number across both column sets together (the
    order the hooks fired in) and ranks ``0, rate, 2*rate, ...`` are
    kept, seqs untouched. Because the filter runs at drain time over the
    columns -- not via a shared counter at append time -- sampled
    launches stay eligible for the batched backend: batching changes
    *when* events are appended, never their seq order, so the kept set
    is identical to an interpreter run's.
    """
    if rate == 1:
        return memory, arith
    n_mem = len(memory)
    seqs = np.concatenate([memory.seq, arith.seq])
    order = np.argsort(seqs)  # seqs are unique across both streams
    ranks = np.empty(len(seqs), dtype=np.int64)
    ranks[order] = np.arange(len(seqs))
    keep = ranks % rate == 0
    return memory.take(keep[:n_mem]), arith.take(keep[n_mem:])


def clip_to_capacity(cols, capacity: Optional[int]):
    """Keep the first ``capacity`` rows; returns ``(cols, dropped)``.

    Applied after :func:`stride_sample` so a sampled, capped launch
    retains exactly the rows a capped append-time filter would have.
    """
    if capacity is None or len(cols) <= capacity:
        return cols, 0
    return cols.take(np.arange(capacity)), len(cols) - capacity


_COLUMNS = {"memory": MemoryColumns, "block": BlockColumns,
            "arith": ArithColumns}


def as_columns(records, kind: str):
    """One trace stream (``kind``: memory/block/arith) as columns.

    Drained columns pass through unchanged; a hand-built record list is
    converted. A trace that was analyzed in flight has no records, so
    iterating it raises :class:`~repro.errors.ProfilerError`.
    """
    columns = _COLUMNS[kind]
    if isinstance(records, columns):
        return records
    return columns.from_records(list(records))
