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

The machine's description — :class:`~repro.sim.config.CMPConfig` and
its cache, bus, memory and core-timing parts, the op codes, and the
per-run :class:`~repro.sim.config.KernelStats` — lives in
:mod:`repro.sim.config`, which imports no engine.  This package is a
façade: ``import repro.sim`` loads no submodule, and each name below is
imported from the module that defines it on first use, so a sweep
replayed from the result cache never loads the simulator.

Entry point: :class:`~repro.sim.cmp.ChipMultiprocessor`.
"""

import importlib

#: The names docs/API.md, the tests and the benchmarks import from this
#: package, each loaded from the submodule that defines it on first use.
_EXPORTS = {
    "CacheConfig": "repro.sim.config",
    "BusConfig": "repro.sim.config",
    "CMPConfig": "repro.sim.config",
    "KernelStats": "repro.sim.config",
    "ClockDomain": "repro.sim.clock",
    "Cache": "repro.sim.cache",
    "SharedBus": "repro.sim.bus",
    "MainMemory": "repro.sim.memory",
    "MESIController": "repro.sim.coherence",
    "CoherenceStats": "repro.sim.coherence",
    "CompiledProgram": "repro.sim.ops",
    "CompileOutcome": "repro.sim.ops",
    "OpStreamCache": "repro.sim.ops",
    "compile_workload": "repro.sim.ops",
    "stream_cache": "repro.sim.ops",
    "ChipMultiprocessor": "repro.sim.cmp",
    "SimulationResult": "repro.sim.cmp",
    "CoreStats": "repro.sim.cpu",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
