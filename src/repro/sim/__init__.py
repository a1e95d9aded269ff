"""The discrete-event CMP timing simulator (the paper's Section 3.1 model).

A 16-way CMP of EV6-like cores: private L1 instruction/data caches, a
MESI snooping protocol over a shared split-transaction bus, a shared
inclusive on-chip L2, and off-chip DRAM with a fixed latency *in
nanoseconds* — so chip-level DVFS changes the memory round trip measured
in cycles, the mechanism behind the paper's memory-bound anomalies
(Sections 4.1-4.2).

The engine is conservative-time event-driven: the scheduler always
advances the core with the smallest local time, and shared resources
(bus, locks, barriers) hand out reservations in that order.  Each core
consumes an *operation stream* produced lazily by a workload model
(:mod:`repro.workloads`): compute bursts, loads/stores, barriers, and
lock/unlock pairs.

Entry point: :class:`~repro.sim.cmp.ChipMultiprocessor`.
"""

from repro.sim.clock import ClockDomain
from repro.sim.cache import Cache, CacheConfig
from repro.sim.bus import SharedBus, BusConfig
from repro.sim.memory import MainMemory
from repro.sim.coherence import MESIController, CoherenceStats
from repro.sim.ops import (
    CompiledProgram,
    CompileOutcome,
    OpStreamCache,
    compile_workload,
    stream_cache,
)
from repro.sim.cmp import (
    ChipMultiprocessor,
    CMPConfig,
    KernelStats,
    SimulationResult,
    CoreStats,
)

__all__ = [
    "ClockDomain",
    "Cache",
    "CacheConfig",
    "SharedBus",
    "BusConfig",
    "MainMemory",
    "MESIController",
    "CoherenceStats",
    "CompiledProgram",
    "CompileOutcome",
    "OpStreamCache",
    "compile_workload",
    "stream_cache",
    "ChipMultiprocessor",
    "CMPConfig",
    "KernelStats",
    "SimulationResult",
    "CoreStats",
]
