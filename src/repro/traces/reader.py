"""Streaming trace reader: CSV rows in, :class:`ChurnBlock` batches out.

The eager path (:func:`repro.churn.traces.load_trace_csv` followed by
:func:`repro.sim.blocks.blocks_from_events`) materializes one frozen
``Event`` object per row before packing -- a multi-month consensus flap
trace with millions of rows would allocate gigabytes just to throw the
objects away again.  :func:`stream_trace_blocks` instead parses the file
in bounded chunks and assembles struct-of-arrays blocks directly, so
peak memory is ``O(block_size)`` regardless of trace length and the
engine's zero-heap fast path consumes the stream as it is read.

The reader is **bit-compatible** with the eager path: given the same
file, ``origin``, ``start``, ``time_scale`` and ``duration``, it yields
blocks whose row values *and* chunk boundaries are identical to packing
the eager path's shifted events with the default block size -- which is
what lets the scenario compiler swap one in for the other and produce
byte-identical metrics (see ``tests/test_traces_streaming.py``).

Streaming contract:

* input rows must be time-sorted (the reader raises, naming the line,
  on the first regression -- it cannot sort without materializing);
* only blocks come out, never per-event objects;
* each output block's ``sessions`` / ``idents`` are present only when
  some row in that block carries one, matching
  :meth:`repro.sim.blocks.ChurnBlock.from_events`.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterator, List, Optional, Union

import numpy as np

from repro.sim.blocks import DEPART, JOIN, ChurnBlock
from repro.traces.io import TRACE_CSV_HEADER, open_trace_text

#: Rows per emitted block; matches the generators' and the eager
#: packer's default so block boundaries line up across paths.
DEFAULT_BLOCK_SIZE = 4096

_NAN = float("nan")


def _check_header(header: Optional[List[str]], path) -> None:
    if header is None:
        raise ValueError(f"{path}: empty trace file (missing CSV header)")
    if [h.strip() for h in header] != TRACE_CSV_HEADER:
        raise ValueError(
            f"{path}: unexpected trace header {header!r}; "
            f"expected {TRACE_CSV_HEADER}"
        )


def stream_trace_blocks(
    path: Union[str, Path],
    block_size: int = DEFAULT_BLOCK_SIZE,
    start: float = 0.0,
    time_scale: float = 1.0,
    duration: Optional[float] = None,
    origin: Optional[float] = None,
) -> Iterator[ChurnBlock]:
    """Stream a (possibly gzipped) trace CSV as churn blocks.

    Row times are re-based: with ``origin`` defaulting to the first
    row's time, a row at ``t`` lands at ``start + (t - origin) *
    time_scale``, and rows whose scaled offset exceeds ``duration`` end
    the stream (the file's tail is never read).  Sessions are *not*
    scaled -- they are durations in the replayed timeline, exactly as
    the eager compiler treats them.
    """
    if block_size <= 0:
        raise ValueError(f"block size must be positive: {block_size}")
    if time_scale <= 0:
        raise ValueError(f"time_scale must be positive: {time_scale}")
    with open_trace_text(path) as handle:
        reader = csv.reader(handle)
        _check_header(next(reader, None), path)
        times: List[float] = []
        kinds: List[int] = []
        sessions: List[float] = []
        idents: List[Optional[str]] = []
        any_session = False
        any_ident = False
        prev = float("-inf")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 4:
                raise ValueError(
                    f"{path}: line {lineno}: expected 4 cells "
                    f"(time,kind,ident,session), got {len(row)}"
                )
            t = float(row[0])
            if t < prev:
                raise ValueError(
                    f"{path}: line {lineno}: time {t} precedes {prev}; "
                    "streaming replay requires a time-sorted trace.  "
                    "Sort it once eagerly (load_trace_csv + "
                    "save_trace_csv) or replay with "
                    "TraceReplay(streaming=False)"
                )
            prev = t
            if origin is None:
                origin = t
            offset = (t - origin) * time_scale
            if duration is not None and offset > duration:
                break
            kind = row[1]
            if kind == "join":
                kinds.append(JOIN)
                cell = row[3]
                if cell:
                    sessions.append(float(cell))
                    any_session = True
                else:
                    sessions.append(_NAN)
            elif kind == "depart":
                kinds.append(DEPART)
                sessions.append(_NAN)
            else:
                raise ValueError(
                    f"{path}: line {lineno}: unknown event kind {kind!r}"
                )
            times.append(start + offset)
            ident = row[2] or None
            idents.append(ident)
            if ident is not None:
                any_ident = True
            if len(times) >= block_size:
                yield ChurnBlock(
                    times,
                    kinds,
                    sessions=np.asarray(sessions) if any_session else None,
                    idents=idents if any_ident else None,
                )
                times, kinds, sessions, idents = [], [], [], []
                any_session = False
                any_ident = False
        if times:
            yield ChurnBlock(
                times,
                kinds,
                sessions=np.asarray(sessions) if any_session else None,
                idents=idents if any_ident else None,
            )


def peek_trace_origin(path: Union[str, Path]) -> Optional[float]:
    """The first data row's time, or ``None`` for a header-only file.

    Also validates the header, so a bad file fails at resolution time
    (compile) rather than mid-simulation.
    """
    with open_trace_text(path) as handle:
        reader = csv.reader(handle)
        _check_header(next(reader, None), path)
        for row in reader:
            if row:
                return float(row[0])
    return None


class TraceBlockStream:
    """A re-iterable, bounded-memory block view of one trace file.

    This is what the scenario compiler stores for a streaming
    :class:`~repro.scenarios.spec.TraceReplay` phase: each iteration
    re-opens the file and yields fresh blocks, so the trace is never
    materialized.  A simulated point makes one pass -- the engine's,
    which the workload summary rides (see
    :meth:`~repro.scenarios.compile.CompiledScenario.summary`); tests
    and tools may make more.  ``origin`` is fixed at construction (the
    first row's time), making every pass identical.
    """

    __slots__ = ("path", "start", "time_scale", "duration", "block_size", "origin")

    def __init__(
        self,
        path: Union[str, Path],
        start: float = 0.0,
        time_scale: float = 1.0,
        duration: Optional[float] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        self.path = Path(path)
        self.start = start
        self.time_scale = time_scale
        self.duration = duration
        self.block_size = block_size
        self.origin = peek_trace_origin(self.path)

    @property
    def empty(self) -> bool:
        return self.origin is None

    @property
    def t_begin(self) -> float:
        """Earliest possible replayed event time (the origin row)."""
        return self.start

    @property
    def t_end_bound(self) -> float:
        """Upper bound on the last replayed event time."""
        if self.duration is None:
            return float("inf")
        return self.start + self.duration

    def __iter__(self) -> Iterator[ChurnBlock]:
        if self.origin is None:
            return iter(())
        return stream_trace_blocks(
            self.path,
            block_size=self.block_size,
            start=self.start,
            time_scale=self.time_scale,
            duration=self.duration,
            origin=self.origin,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceBlockStream({self.path.name}, start={self.start}, "
            f"scale={self.time_scale}, duration={self.duration})"
        )
