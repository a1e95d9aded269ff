"""The flat program writer: a thread's resolved program in one loop.

:meth:`repro.workloads.base.WorkloadModel.thread_ops` is the readable
specification of a thread's op stream, and
:func:`repro.sim.ops.prepare_streams` the specification of its
resolution for an L1 geometry.  Compiling through the pair sends every
op through up to three generator frames (``thread_ops``, ``emit_work``,
``next_address``) and then unpacks it again to resolve it.
:func:`write_threads` writes each thread's resolved op list from one
loop:

* it draws exactly the RNG values ``thread_ops`` draws, in the same
  order; a bounded draw inlines ``Random._randbelow`` — ``getrandbits``
  of the bound's bit length, redrawn until it falls below the bound —
  which is what ``randrange(0, n)`` does on CPython 3.10-3.12;
* it appends each resolved op directly, interned as ``prepare_streams``
  interns it: one tuple per (kind, L1 line), one object per equal
  critical-section op, one int per line, and the thread's dict of lines
  filled in the same order.

:func:`repro.sim.ops.compile_workload` uses it for plain
:class:`~repro.workloads.base.WorkloadModel` programs; mixes and raw
streams take the reference pair, and tests/sim/test_ops.py pins the two
equal.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.sim.config import OP_BARRIER, OP_COMPUTE, OP_CRITICAL, OP_LOAD, OP_STORE
from repro.workloads.base import (
    _LOCK_BASE,
    _PRIVATE_BASE,
    _SHARED_BASE,
    _STRIDE,
    WorkloadModel,
)


def writes(model) -> bool:
    """Whether :func:`write_threads` writes ``model``'s programs."""
    return type(model) is WorkloadModel


def write_threads(
    model: WorkloadModel, n_threads: int, geometry: Tuple[int, int, int]
) -> List[Tuple[List[tuple], Dict[int, int]]]:
    """Every thread's resolved ops and dict of touched lines.

    Equal, thread by thread, to what ``prepare_streams`` makes of
    ``model.thread_ops(t, n_threads)`` for the L1 ``geometry``.
    """
    _, n_sets, way_shift = geometry
    # One int per set, shared by every thread of the program.
    set_bases = [index << way_shift for index in range(n_sets)]
    return [
        _write_thread(model, t, n_threads, geometry, set_bases)
        for t in range(n_threads)
    ]


def _write_thread(
    model: WorkloadModel,
    thread_id: int,
    n_threads: int,
    geometry: Tuple[int, int, int],
    set_bases: List[int],
) -> Tuple[List[tuple], Dict[int, int]]:
    """One thread's resolved ops and its dict of touched lines."""
    model.check_thread(thread_id, n_threads)
    spec = model.spec
    line_shift, n_sets, _ = geometry
    rng = random.Random(f"{spec.seed}/{thread_id}/{n_threads}")
    rand = rng.random
    bits = rng.getrandbits

    private_slice = max(_STRIDE * 64, spec.total_private_bytes // n_threads)
    private_base = _PRIVATE_BASE + thread_id * (private_slice + (1 << 30))
    hot_base = private_base + private_slice + (1 << 20)
    private_cursor = private_base
    shared_base = _SHARED_BASE
    shared_bytes = spec.shared_bytes
    shared_cursor = shared_base + rng.randrange(0, shared_bytes)
    hot_bytes = spec.hot_bytes
    shared_fraction = spec.shared_fraction
    hot_fraction = spec.hot_fraction
    locality = spec.locality
    write_fraction = spec.write_fraction
    mem_ratio = spec.mem_ratio
    stride = _STRIDE
    shared_k = shared_bytes.bit_length()
    hot_k = hot_bytes.bit_length()
    slice_k = private_slice.bit_length()
    blocked = spec.sharing_pattern == "blocked" and n_threads > 1
    compute = (OP_COMPUTE, max(1, round((1.0 - mem_ratio) / mem_ratio)))

    # thread_ops' structure as (restart the streaming cursor, work
    # instructions, critical sections allowed, barrier after) steps;
    # work under one instruction emits nothing.
    phase_instructions = spec.total_instructions / spec.n_phases
    serial_work = phase_instructions * spec.serial_fraction
    parallel_work = phase_instructions * (1.0 - spec.serial_fraction)
    own_serial = serial_work if thread_id == 0 else 0.0
    serial_barrier = serial_work >= 1.0 and n_threads > 1
    even_share = parallel_work / n_threads
    steps = [(False, even_share, False, True)]
    for phase in range(spec.n_phases):
        steps.append((True, own_serial, False, serial_barrier))
        imbalance = model._imbalance_factor(phase, thread_id, n_threads)
        steps.append((False, even_share * imbalance, True, True))

    out: List[tuple] = []
    append = out.append
    lines: Dict[int, int] = {}
    intern = lines.setdefault
    loads: Dict[int, tuple] = {}
    stores: Dict[int, tuple] = {}
    criticals: Dict[int, tuple] = {}

    # Initialization: the hot-set sweep, line by line.
    for address in range(hot_base, hot_base + hot_bytes, 64):
        line = address >> line_shift
        op = loads.get(line)
        if op is None:
            line = intern(line, line)
            op = loads[line] = (OP_LOAD, line << line_shift, line, set_bases[line % n_sets])
        append(op)

    barrier = 0
    for restart, work, allow_critical, barrier_after in steps:
        if restart:
            private_cursor = private_base
        if work >= 1.0:
            n_mem = max(1, round(work * mem_ratio))
            critical_every = 0
            if allow_critical and spec.critical_sections_per_phase:
                critical_every = max(1, n_mem // spec.critical_sections_per_phase)
            # The position (1-based) of the next critical section; 0
            # never matches.
            next_critical = critical_every
            for position in range(1, n_mem + 1):
                append(compute)
                if position == next_critical:
                    next_critical += critical_every
                    lock_id = rng.randrange(spec.n_locks)
                    op = criticals.get(lock_id)
                    if op is None:
                        address = _LOCK_BASE + lock_id * 128
                        op = criticals[lock_id] = (
                            OP_CRITICAL,
                            lock_id,
                            spec.critical_instructions,
                            address,
                        )
                        line = address >> line_shift
                        intern(line, line)
                    append(op)
                    continue
                if rand() < write_fraction:
                    kind = OP_STORE
                    table = stores
                else:
                    kind = OP_LOAD
                    table = loads
                # thread_ops' next_address.
                if rand() < shared_fraction:
                    if rand() < locality:
                        shared_cursor = shared_base + (
                            (shared_cursor + stride - shared_base) % shared_bytes
                        )
                    elif blocked:
                        shared_cursor = shared_base + model._shared_jump(
                            rng, thread_id, n_threads
                        )
                    else:
                        r = bits(shared_k)
                        while r >= shared_bytes:
                            r = bits(shared_k)
                        shared_cursor = shared_base + r
                    address = shared_cursor
                elif rand() < hot_fraction:
                    r = bits(hot_k)
                    while r >= hot_bytes:
                        r = bits(hot_k)
                    address = hot_base + r
                else:
                    if rand() < locality:
                        private_cursor = private_base + (
                            (private_cursor + stride - private_base) % private_slice
                        )
                    else:
                        r = bits(slice_k)
                        while r >= private_slice:
                            r = bits(slice_k)
                        private_cursor = private_base + r
                    address = private_cursor
                line = address >> line_shift
                op = table.get(line)
                if op is None:
                    line = intern(line, line)
                    op = table[line] = (kind, line << line_shift, line, set_bases[line % n_sets])
                append(op)
        if barrier_after:
            append((OP_BARRIER, barrier))
            barrier += 1
    return out, lines
