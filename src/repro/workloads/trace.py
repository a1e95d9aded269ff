"""Trace recording and replay: pair the simulator with external traces.

The synthetic workload models are one source of operation streams; real
deployments of simulators like this pair them with *traces* captured
from instrumented runs elsewhere (Pin/SimPoint-style).  This module
defines a simple, line-oriented trace format and the adapters in both
directions:

* :func:`record_trace` — serialise any workload model's streams to disk
  (optionally gzip-compressed), one file per run holding every thread;
* :class:`TraceWorkload` — a drop-in workload whose ``thread_ops`` replay
  a trace file, usable anywhere a :class:`WorkloadModel` is.

Format (text, ``#`` comments, blank lines ignored)::

    !threads 4                  # header: thread count (required, first)
    !timing base_cpi=0.8 icache_miss_rate=0.001 memory_parallelism=1.5
    0 C 120                     # thread 0: compute burst of 120 instr
    0 L 0x1a2b3c                # thread 0: load
    1 S 0x40000008              # thread 1: store
    0 B 0                       # thread 0: barrier #0
    2 X 3 40 0x7000000000       # thread 2: critical: lock 3, 40 instr, addr

Lines may arrive in any thread order; replay preserves each thread's own
sequence.  Addresses accept decimal or ``0x`` hex.
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Union

from repro.errors import ConfigurationError, WorkloadError
from repro.sim.cpu import CoreTimingConfig
from repro.sim.ops import OP_BARRIER, OP_COMPUTE, OP_CRITICAL, OP_LOAD, OP_STORE

_OP_TO_CODE = {OP_COMPUTE: "C", OP_LOAD: "L", OP_STORE: "S", OP_BARRIER: "B", OP_CRITICAL: "X"}
_CODE_TO_OP = {v: k for k, v in _OP_TO_CODE.items()}

PathLike = Union[str, Path]


def _open_text(path: PathLike, mode: str):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="ascii")
    return open(path, mode, encoding="ascii")


def _format_op(thread_id: int, op: tuple) -> str:
    kind = op[0]
    code = _OP_TO_CODE.get(kind)
    if code is None:
        raise ConfigurationError(f"unknown op kind {kind}")
    if kind == OP_COMPUTE:
        return f"{thread_id} C {op[1]}"
    if kind in (OP_LOAD, OP_STORE):
        return f"{thread_id} {code} {op[1]:#x}"
    if kind == OP_BARRIER:
        return f"{thread_id} B {op[1]}"
    return f"{thread_id} X {op[1]} {op[2]} {op[3]:#x}"


def record_trace(
    model,
    n_threads: int,
    path: PathLike,
) -> int:
    """Serialise a workload model's streams for ``n_threads`` to ``path``.

    Returns the number of operations written.  Threads are interleaved
    round-robin purely for file locality; replay order per thread is what
    matters and is preserved exactly.
    """
    streams = [model.thread_ops(t, n_threads) for t in range(n_threads)]
    timing = model.core_timing()
    written = 0
    with _open_text(path, "w") as out:
        out.write(f"!threads {n_threads}\n")
        out.write(f"!warmup {getattr(model, 'warmup_barriers', 0)}\n")
        out.write(
            "!timing "
            f"base_cpi={timing.base_cpi} "
            f"icache_miss_rate={timing.icache_miss_rate} "
            f"memory_parallelism={timing.memory_parallelism}\n"
        )
        live = list(enumerate(streams))
        while live:
            still_live = []
            for thread_id, stream in live:
                op = next(stream, None)
                if op is None:
                    continue
                out.write(_format_op(thread_id, op) + "\n")
                written += 1
                still_live.append((thread_id, stream))
            live = still_live
    return written


def _parse_int(token: str) -> int:
    return int(token, 16) if token.lower().startswith("0x") else int(token)


@dataclass(frozen=True)
class _ParsedTrace:
    """The immutable outcome of parsing one trace file."""

    threads: Dict[int, List[tuple]]
    timing: CoreTimingConfig
    n_threads: int
    warmup_barriers: int


#: Parsed traces keyed by (resolved path, mtime_ns, size): sweep points
#: that construct a fresh TraceWorkload per simulation reuse one parse
#: per process instead of re-reading the text file every time.
_PARSE_CACHE: Dict[tuple, _ParsedTrace] = {}
_PARSE_CACHE_MAX = 16


class TraceWorkload:
    """A workload that replays a recorded (or externally produced) trace.

    Satisfies the same informal protocol as
    :class:`repro.workloads.base.WorkloadModel`: ``name``,
    ``core_timing()``, ``supports(n)``, ``thread_ops(tid, n)``, and
    ``warmup_barriers``.  The trace is parsed eagerly at construction
    (validation errors surface immediately) and replay is pure list
    iteration.  Parses are memoized per (path, mtime, size) process-wide,
    so constructing the same trace for every point of a sweep reads the
    file once; ``thread_ops`` always serves the in-memory lists.
    """

    #: Leading barriers that delimit untimed initialization; recorded
    #: traces carry the source model's value in a ``!warmup`` header
    #: (hand-authored traces default to 0).
    warmup_barriers = 0

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self.name = self.path.name.split(".")[0]
        self._threads: Dict[int, List[tuple]] = {}
        self._timing = CoreTimingConfig()
        self._n_threads = 0
        stat = self.path.stat()
        self._file_signature = (
            str(self.path.resolve()),
            stat.st_mtime_ns,
            stat.st_size,
        )
        cached = _PARSE_CACHE.get(self._file_signature)
        if cached is not None:
            self._threads = cached.threads
            self._timing = cached.timing
            self._n_threads = cached.n_threads
            self.warmup_barriers = cached.warmup_barriers
            return
        self._parse()
        if len(_PARSE_CACHE) >= _PARSE_CACHE_MAX:
            del _PARSE_CACHE[next(iter(_PARSE_CACHE))]
        # Entries are pure functions of the trace file, so lanes that fill
        # their own per-process copies stay bitwise-equivalent.
        _PARSE_CACHE[self._file_signature] = _ParsedTrace(
            threads=self._threads,
            timing=self._timing,
            n_threads=self._n_threads,
            warmup_barriers=self.warmup_barriers,
        )

    def compile_key(self, n_threads: int):
        """Identity of this trace's op streams for the compile cache."""
        return ("trace", self._file_signature, n_threads)

    def _parse(self) -> None:
        with _open_text(self.path, "r") as handle:
            for line_no, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                try:
                    self._parse_line(line)
                except (ValueError, IndexError, KeyError) as exc:
                    raise WorkloadError(
                        f"{self.path}:{line_no}: malformed trace line "
                        f"{line!r} ({exc})"
                    ) from exc
        if self._n_threads == 0:
            raise WorkloadError(f"{self.path}: missing '!threads' header")
        for thread_id in self._threads:
            if not 0 <= thread_id < self._n_threads:
                raise WorkloadError(
                    f"{self.path}: thread id {thread_id} outside "
                    f"0..{self._n_threads - 1}"
                )

    def _parse_line(self, line: str) -> None:
        if line.startswith("!threads"):
            self._n_threads = int(line.split()[1])
            if self._n_threads < 1:
                raise ValueError("thread count must be >= 1")
            return
        if line.startswith("!warmup"):
            value = int(line.split()[1])
            if value < 0:
                raise ValueError("warmup count must be >= 0")
            self.warmup_barriers = value
            return
        if line.startswith("!timing"):
            fields = dict(
                token.split("=", 1) for token in line.split()[1:]
            )
            self._timing = CoreTimingConfig(
                base_cpi=float(fields.get("base_cpi", 0.8)),
                icache_miss_rate=float(fields.get("icache_miss_rate", 0.001)),
                memory_parallelism=float(fields.get("memory_parallelism", 1.5)),
            )
            return
        tokens = line.split()
        thread_id = int(tokens[0])
        code = tokens[1].upper()
        kind = _CODE_TO_OP[code]
        ops = self._threads.setdefault(thread_id, [])
        if kind == OP_COMPUTE:
            ops.append((OP_COMPUTE, _parse_int(tokens[2])))
        elif kind in (OP_LOAD, OP_STORE):
            ops.append((kind, _parse_int(tokens[2])))
        elif kind == OP_BARRIER:
            ops.append((OP_BARRIER, _parse_int(tokens[2])))
        else:
            ops.append(
                (
                    OP_CRITICAL,
                    _parse_int(tokens[2]),
                    _parse_int(tokens[3]),
                    _parse_int(tokens[4]),
                )
            )

    @property
    def n_threads(self) -> int:
        """Thread count declared by the trace header."""
        return self._n_threads

    def core_timing(self) -> CoreTimingConfig:
        """Timing parameters from the trace's ``!timing`` header."""
        return self._timing

    def supports(self, n_threads: int) -> bool:
        """A trace replays only at its recorded thread count."""
        return n_threads == self._n_threads

    def supported_thread_counts(self, candidates) -> List[int]:
        """Filter candidates to the single recorded count."""
        return [n for n in candidates if self.supports(n)]

    def thread_ops(self, thread_id: int, n_threads: int) -> Iterator[tuple]:
        """Replay one thread's recorded operations."""
        if not self.supports(n_threads):
            raise WorkloadError(
                f"trace was recorded with {self._n_threads} threads, "
                f"cannot replay with {n_threads}"
            )
        if not 0 <= thread_id < self._n_threads:
            raise WorkloadError(f"thread id {thread_id} out of range")
        return iter(self._threads.get(thread_id, []))

    def operation_count(self) -> int:
        """Total operations across all threads."""
        # repro: allow[DET-FLOAT-SUM] integer sum; order-free by construction
        return sum(len(ops) for ops in self._threads.values())
