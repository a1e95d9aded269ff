"""The simulated machine's description, apart from its engines.

Everything a result-cache key hashes or the cache stores about the
simulator lives here: the cache, bus, memory and core-timing
parameters, the Table 1 machine (:class:`CMPConfig`), the operation
codes workload streams are written in, and the per-run kernel record
(:class:`KernelStats`).  The engines — :mod:`~repro.sim.cache`,
:mod:`~repro.sim.bus`, :mod:`~repro.sim.memory`, :mod:`~repro.sim.cpu`,
:mod:`~repro.sim.cmp` and the compiler :mod:`~repro.sim.ops` — import
these names from here.

This module imports no engine, so a sweep replayed from the result
cache can build its keys and decode its rows without loading the
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

from repro.errors import ConfigurationError

# Operation codes: the first element of every op tuple a workload
# stream yields (the encoding is described in :mod:`repro.sim.ops`).
OP_COMPUTE = 0
OP_LOAD = 1
OP_STORE = 2
OP_BARRIER = 3
OP_CRITICAL = 4

#: Capacity of the process-wide compile cache
#: (:data:`repro.sim.ops.stream_cache`), in compiled programs.
STREAM_CACHE_SIZE = 32


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache (Table 1 values as defaults elsewhere)."""

    capacity_bytes: int
    line_bytes: int
    associativity: int

    def __post_init__(self) -> None:
        if min(self.capacity_bytes, self.line_bytes, self.associativity) <= 0:
            raise ConfigurationError("cache parameters must be positive")
        if self.line_bytes & (self.line_bytes - 1):
            raise ConfigurationError("line size must be a power of two")
        if self.capacity_bytes % (self.line_bytes * self.associativity):
            raise ConfigurationError(
                "capacity must divide into line_bytes * associativity"
            )

    @property
    def n_sets(self) -> int:
        """Number of sets."""
        return self.capacity_bytes // (self.line_bytes * self.associativity)

    @property
    def line_shift(self) -> int:
        """log2 of the line size."""
        return self.line_bytes.bit_length() - 1

    @property
    def way_shift(self) -> int:
        """Row stride exponent: ways per set rounded up to a power of two."""
        return (self.associativity - 1).bit_length()

    @property
    def geometry(self) -> Tuple[int, int, int]:
        """``(line_shift, n_sets, way_shift)``: what a resolved op depends on."""
        return (self.line_shift, self.n_sets, self.way_shift)


#: The private L1 data cache of Table 1: 64 KB, 2-way, 64-byte lines.
L1_TABLE1 = CacheConfig(capacity_bytes=64 * 1024, line_bytes=64, associativity=2)


@dataclass(frozen=True)
class BusConfig:
    """Bus occupancy parameters, in chip cycles.

    ``address_cycles`` covers arbitration plus the address/snoop phase
    that every transaction performs; ``data_cycles`` is the transfer time
    of one L2 line (128 B over a 32 B-wide data path = 4 cycles).
    """

    address_cycles: int = 2
    data_cycles: int = 4

    def __post_init__(self) -> None:
        if self.address_cycles < 1 or self.data_cycles < 0:
            raise ConfigurationError("bus cycle counts must be positive")


@dataclass(frozen=True)
class MemoryConfig:
    """DRAM parameters."""

    #: Round-trip latency in nanoseconds (Table 1: 75 ns).
    round_trip_ns: float = 75.0
    #: Number of independent banks servicing requests concurrently.
    n_banks: int = 8
    #: Per-bank occupancy per request, nanoseconds.
    bank_busy_ns: float = 12.0

    def __post_init__(self) -> None:
        if self.round_trip_ns <= 0 or self.bank_busy_ns < 0 or self.n_banks < 1:
            raise ConfigurationError("memory parameters must be positive")


@dataclass(frozen=True)
class CoreTimingConfig:
    """Per-application core-timing knobs.

    Parameters
    ----------
    base_cpi:
        Cycles per instruction for cache-resident work on the 4-wide
        EV6-like core; compute-intensive codes with ILP sit near 0.6,
        branchy pointer-chasing codes near 1.2.
    icache_miss_rate:
        Statistical instruction-fetch miss rate; each miss stalls for an
        L2 hit.  SPLASH-2 codes have tiny instruction footprints.
    memory_parallelism:
        How much data-miss latency the core overlaps (outstanding-miss
        MLP).  1.0 = fully blocking; the EV6's non-blocking loads justify
        values up to ~2.
    lock_overhead_cycles:
        Pipeline cost of an acquire/release pair (LL/SC sequences).
    """

    base_cpi: float = 0.8
    icache_miss_rate: float = 0.001
    memory_parallelism: float = 1.5
    lock_overhead_cycles: int = 20

    def __post_init__(self) -> None:
        if self.base_cpi <= 0:
            raise ConfigurationError("base_cpi must be positive")
        if not 0.0 <= self.icache_miss_rate < 1.0:
            raise ConfigurationError("icache_miss_rate must be in [0, 1)")
        if self.memory_parallelism < 1.0:
            raise ConfigurationError("memory_parallelism must be >= 1")
        if self.lock_overhead_cycles < 0:
            raise ConfigurationError("lock_overhead_cycles must be >= 0")


@dataclass(frozen=True)
class CMPConfig:
    """The machine of Table 1 (defaults) with DVFS knobs.

    ``frequency_hz``/``voltage`` are the chip-wide operating point (the
    paper applies global V/f scaling).  On-chip latencies are expressed in
    cycles and therefore track the clock; the memory config is wall-clock.
    """

    n_cores: int = 16
    frequency_hz: float = 3.2e9
    voltage: float = 1.1
    l1_config: CacheConfig = L1_TABLE1
    l2_config: CacheConfig = CacheConfig(
        capacity_bytes=4 * 1024 * 1024, line_bytes=128, associativity=8
    )
    bus_config: BusConfig = BusConfig()
    memory_config: MemoryConfig = MemoryConfig()
    l1_hit_cycles: int = 2
    l2_hit_cycles: int = 12
    cache_to_cache_cycles: int = 16
    barrier_release_cycles: int = 40

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise ConfigurationError("n_cores must be >= 1")
        if self.frequency_hz <= 0 or self.voltage <= 0:
            raise ConfigurationError("frequency and voltage must be positive")
        if self.l2_config.line_bytes < self.l1_config.line_bytes:
            # A compiled load or store carries its L1 line's first byte
            # (prepare_streams); a miss maps that to the same L2 line as
            # the original byte only when L2 lines are the longer ones.
            raise ConfigurationError(
                f"L2 line ({self.l2_config.line_bytes} B) is shorter than "
                f"the L1 line ({self.l1_config.line_bytes} B)"
            )

    def with_operating_point(self, frequency_hz: float, voltage: float) -> "CMPConfig":
        """A copy of this configuration at a different DVFS point."""
        return replace(self, frequency_hz=frequency_hz, voltage=voltage)


@dataclass
class KernelStats:
    """How the simulation kernel executed one run (host-side profiling).

    Everything here describes the *simulator's* behaviour on the host —
    wall-clock time, fast-path coverage — and never feeds back into the
    simulated counters, which are bitwise-identical across kernel modes.
    It is also the one per-run kernel record: the point's capture window
    carries it to the executor's ledger
    (:class:`~repro.telemetry.record.KernelAggregate`), and the result
    cache stores it with the point.
    """

    #: ``"fast"`` (compiled streams + L1-hit short-circuit) or
    #: ``"reference"`` (one op per scheduler pop through the controller).
    mode: str
    #: Ops executed.
    total_ops: int = 0
    #: Ops resolved by the fast path without entering the controller.
    fast_path_ops: int = 0
    #: Ops that reached the controller or the lock table (misses,
    #: upgrades, critical sections).
    slow_path_ops: int = 0
    #: Barrier registrations handled by the scheduler.
    barrier_ops: int = 0
    #: Wall-clock seconds the scheduler loop ran.
    sim_wall_s: float = 0.0
    #: Wall-clock seconds spent compiling the op streams (0 when the
    #: compile cache was warm); filled by the caller that compiled.
    compile_s: float = 0.0
    #: Whether the op streams came from a warm compile cache.
    compile_cache_hit: bool = False
    #: Whether compiling this run's streams evicted another entry from
    #: the bounded compile cache (a sweep's working set outgrew it).
    compile_cache_evicted: bool = False
    #: Per-subsystem slow-path wall time, timed only while the
    #: process-wide tracer is enabled: ``memory`` (misses and
    #: upgrades), ``critical`` (lock sections).
    subsystem_s: Dict[str, float] = field(default_factory=dict)

    @property
    def ops_per_sec(self) -> float:
        """Simulated ops per host second (0 when the run took no time)."""
        return self.total_ops / self.sim_wall_s if self.sim_wall_s > 0 else 0.0

    @property
    def fast_path_ratio(self) -> float:
        """Fraction of ops the fast path resolved."""
        return self.fast_path_ops / self.total_ops if self.total_ops else 0.0
