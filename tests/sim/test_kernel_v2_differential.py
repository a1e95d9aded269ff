"""Property-based differential suite for the kernel-v2 fast path.

Random synthetic workloads — overlapping footprints, tight caches,
random barrier/critical placement — run through the reference
interpreter and the fast-path kernel, asserting bitwise-identical
counters (the same contract as tests/sim/test_fastpath_equivalence.py,
but over adversarial generated inputs instead of the bundled SPLASH-2
models).  The reference interpreter also runs the compiled program, and
a second fast run re-uses it (geometry-resolved streams and private-line
sets), so every way a program reaches the kernel is exercised.  A
second property moves every load/store to another byte of its L1 line
and expects the same counters: compiled programs keep only line
addresses.

Also here, for :func:`repro.sim.ops.prepare_streams`: the false-sharing
regression tests for its private-line sets — two threads touching
*different bytes of one line* must never classify it private — and unit
coverage for its geometry-resolved streams; the geometry contract of
compiled programs; and the bounded compile cache's instrumentation.
"""

from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sim import ChipMultiprocessor, CMPConfig
from repro.sim.config import (
    L1_TABLE1,
    OP_BARRIER,
    OP_COMPUTE,
    OP_CRITICAL,
    OP_LOAD,
    OP_STORE,
    CacheConfig,
)
from repro.sim.ops import OpStreamCache, compile_workload, prepare_streams
from repro.workloads import SPLASH2, WorkloadModel


def counters(result):
    """Every simulated counter of one run, as one comparable value."""
    return {
        "execution_time_ps": result.execution_time_ps,
        "core_stats": [asdict(s) for s in result.core_stats],
        "coherence": asdict(result.coherence),
        "l1": [
            (c.hits, c.misses, c.evictions, c.writebacks)
            for c in result.l1_caches
        ],
        "l2": (
            result.l2.hits,
            result.l2.misses,
            result.l2.evictions,
            result.l2.writebacks,
        ),
        "bus": (
            result.bus.transactions,
            result.bus.data_transfers,
            result.bus.busy_ps,
            result.bus.wait_ps,
        ),
        "memory_requests": result.memory_requests,
        "locks": (result.lock_acquires, result.lock_contended),
        "barriers": result.barriers,
    }


# ---------------------------------------------------------------------------
# Random workload generation.
# ---------------------------------------------------------------------------

#: A tiny address pool: some addresses land on lines only one thread
#: uses, others are shared or overlap within a line — the generator
#: draws from all of it, so private classification, invalidations, and
#: false sharing all occur.
LINE_BYTES = 32


def _segment(draw, rng, thread_id, n_threads):
    """One barrier-free run of ops for ``thread_id``."""
    ops = []
    for _ in range(draw(rng.integers(0, 12))):
        kind = draw(rng.integers(0, 6))
        if kind <= 1:
            ops.append((OP_COMPUTE, draw(rng.integers(1, 50))))
        elif kind <= 3:
            # Thread-striped region: mostly private, but offsets near
            # the stripe edge fall into a neighbour's line (false
            # sharing at line granularity).
            base = 0x1000 + thread_id * 0x40
            addr = base + draw(rng.integers(0, 0x50))
            op = OP_LOAD if kind == 2 else OP_STORE
            ops.append((op, addr))
        elif kind == 4:
            # Hot shared line, different bytes per thread.
            ops.append((OP_STORE, 0x8000 + thread_id * 4))
        else:
            ops.append((OP_CRITICAL, 0, draw(rng.integers(1, 10)), 0x9000))
    return ops


@st.composite
def synthetic_workloads(draw):
    n_threads = draw(st.integers(min_value=1, max_value=4))
    n_barriers = draw(st.integers(min_value=0, max_value=3))
    threads = []
    for t in range(n_threads):
        ops = []
        for b in range(n_barriers + 1):
            ops.extend(_segment(draw, st, t, n_threads))
            if b < n_barriers:
                ops.append((OP_BARRIER, b))
        threads.append(ops)
    # Tight caches force evictions and writebacks; tiny L2 forces memory
    # traffic.  Both keep the Table 1 power-of-two invariants.
    config = CMPConfig(
        n_cores=n_threads,
        l1_config=CacheConfig(
            capacity_bytes=draw(st.sampled_from((256, 512, 1024))),
            line_bytes=LINE_BYTES,
            associativity=draw(st.sampled_from((1, 2, 4))),
        ),
        l2_config=CacheConfig(
            capacity_bytes=4096,
            line_bytes=LINE_BYTES,
            associativity=4,
        ),
    )
    return threads, config


class TestRandomWorkloadDifferential:
    @settings(max_examples=60, deadline=None)
    @given(synthetic_workloads())
    def test_reference_fast_and_warm_agree(self, case):
        threads, config = case
        reference = ChipMultiprocessor(config, fast_path=False).run(
            [iter(t) for t in threads]
        )
        program = prepare_streams(threads, config.l1_config)
        fast = ChipMultiprocessor(config, fast_path=True).run(program)
        assert counters(reference) == counters(fast)
        # The reference interpreter on the resolved program.
        resolved = ChipMultiprocessor(config, fast_path=False).run(program)
        assert counters(reference) == counters(resolved)
        # Warm rerun: the same compiled program again.
        warm = ChipMultiprocessor(config, fast_path=True).run(program)
        assert counters(reference) == counters(warm)

    @settings(max_examples=25, deadline=None)
    @given(synthetic_workloads())
    def test_private_lines_disjoint_across_threads(self, case):
        threads, config = case
        private = prepare_streams(threads, config.l1_config).private_lines
        for i, mine in enumerate(private):
            for j, theirs in enumerate(private):
                if i != j:
                    assert not (mine & theirs)


class TestOffsetInvariance:
    """Nothing in the simulator reads below L1 line granularity.

    Compiled programs keep only each load/store's line address, so this
    is what makes them exact: the reference interpreter over the moved
    raw streams, and the fast path over their compiled program, match
    the original run counter for counter.
    """

    @settings(max_examples=40, deadline=None)
    @given(synthetic_workloads(), st.data())
    def test_moving_an_address_within_its_line_changes_no_counter(self, case, data):
        threads, config = case
        l2_line = data.draw(st.sampled_from((LINE_BYTES, 2 * LINE_BYTES)))
        config = replace(config, l2_config=replace(config.l2_config, line_bytes=l2_line))

        def moved(op):
            if op[0] != OP_LOAD and op[0] != OP_STORE:
                return op
            offset = data.draw(st.integers(min_value=0, max_value=LINE_BYTES - 1))
            return (op[0], op[1] - op[1] % LINE_BYTES + offset)

        shifted = [[moved(op) for op in ops] for ops in threads]
        expected = counters(
            ChipMultiprocessor(config, fast_path=False).run([iter(t) for t in threads])
        )
        reference = ChipMultiprocessor(config, fast_path=False).run(
            [iter(t) for t in shifted]
        )
        assert counters(reference) == expected
        fast = ChipMultiprocessor(config, fast_path=True).run(
            prepare_streams(shifted, config.l1_config)
        )
        assert counters(fast) == expected


# ---------------------------------------------------------------------------
# False-sharing regression: overlap within a line is never private.
# ---------------------------------------------------------------------------

LINE_SHIFT = 5  # 32-byte lines


def private_lines(streams, line_shift=LINE_SHIFT):
    """The private-line sets of :func:`prepare_streams` (one-set L1)."""
    line_bytes = 1 << line_shift
    l1 = CacheConfig(capacity_bytes=line_bytes, line_bytes=line_bytes, associativity=1)
    return prepare_streams(streams, l1).private_lines


class TestFalseSharingClassification:
    def test_different_bytes_of_one_line_not_private(self):
        # Thread 0 touches byte 0, thread 1 touches byte 8 of the same
        # 32-byte line: distinct addresses, one line — shared-visible.
        streams = [
            [(OP_LOAD, 0x2000)],
            [(OP_STORE, 0x2008)],
        ]
        private = private_lines(streams)
        assert private == [frozenset(), frozenset()]

    def test_distinct_lines_are_private(self):
        streams = [
            [(OP_LOAD, 0x2000), (OP_STORE, 0x2004)],
            [(OP_STORE, 0x2020)],
        ]
        private = private_lines(streams)
        assert private == [
            frozenset({0x2000 >> LINE_SHIFT}),
            frozenset({0x2020 >> LINE_SHIFT}),
        ]

    def test_critical_section_address_counts_as_a_touch(self):
        # The critical-section read-modify-write touches the protected
        # line, so a peer's plain load shares it.
        streams = [
            [(OP_CRITICAL, 0, 5, 0x3000)],
            [(OP_LOAD, 0x3010)],
        ]
        private = private_lines(streams)
        assert private == [frozenset(), frozenset()]

    def test_single_thread_owns_everything_it_touches(self):
        streams = [[(OP_LOAD, 0x100), (OP_STORE, 0x200), (OP_CRITICAL, 0, 1, 0x300)]]
        private = private_lines(streams)
        assert private == [
            frozenset({0x100 >> LINE_SHIFT, 0x200 >> LINE_SHIFT, 0x300 >> LINE_SHIFT})
        ]

    def test_line_shift_changes_the_verdict(self):
        # 0x2000 and 0x2008 share a 32-byte line but not an 8-byte one.
        streams = [[(OP_LOAD, 0x2000)], [(OP_STORE, 0x2008)]]
        assert private_lines(streams, 5) == [frozenset(), frozenset()]
        assert private_lines(streams, 3) == [
            frozenset({0x2000 >> 3}),
            frozenset({0x2008 >> 3}),
        ]


# ---------------------------------------------------------------------------
# Geometry-resolved streams.
# ---------------------------------------------------------------------------


#: 32-byte lines, 8 sets, 4 ways: geometry (5, 8, 2).
SMALL_L1 = CacheConfig(capacity_bytes=1024, line_bytes=32, associativity=4)


class TestResolveAddressStreams:
    def test_loads_and_stores_gain_line_and_base(self):
        compute = (OP_COMPUTE, 7)
        streams = [[(OP_LOAD, 0x2004), (OP_STORE, 0x2020), compute]]
        shift, n_sets, way_shift = SMALL_L1.geometry
        program = prepare_streams(streams, SMALL_L1)
        assert program.geometry == (5, 8, 2)
        resolved = program.streams
        line = 0x2004 >> shift
        assert resolved[0][0] == (
            OP_LOAD,
            line << shift,
            line,
            (line % n_sets) << way_shift,
        )
        line2 = 0x2020 >> shift
        assert resolved[0][1] == (
            OP_STORE,
            line2 << shift,
            line2,
            (line2 % n_sets) << way_shift,
        )
        # Non-memory ops pass through by identity.
        assert resolved[0][2] is compute

    def test_index_one_is_the_line_address(self):
        # The slow path reads op[1]; resolution aligns it to its L1 line,
        # so every byte of one line resolves to one shared op.
        streams = [[(OP_LOAD, 0xABCD), (OP_LOAD, 0xABC0), (OP_STORE, 0xABDF)]]
        load, again, store = prepare_streams(streams, SMALL_L1).streams[0]
        assert load[1] == store[1] == 0xABC0
        assert again is load
        assert store is not load and store[0] == OP_STORE

    def test_generators_are_consumed_once(self):
        streams = (iter([(OP_LOAD, 0x40), (OP_COMPUTE, 3)]) for _ in range(2))
        program = prepare_streams(streams, SMALL_L1)
        assert program.n_threads == 2
        assert program.total_ops == 4


# ---------------------------------------------------------------------------
# Geometry contract: a compiled program belongs to one L1 geometry.
# ---------------------------------------------------------------------------


def _radix():
    by_name = {m.name: m for m in SPLASH2}
    return WorkloadModel(by_name["Radix"].spec.scaled(0.01))


class TestGeometryContract:
    def test_compile_cache_is_per_geometry(self):
        cache = OpStreamCache()
        model = _radix()
        table1 = compile_workload(model, 2, L1_TABLE1, cache=cache)
        small = compile_workload(model, 2, SMALL_L1, cache=cache)
        assert not table1.from_cache and not small.from_cache
        assert len(cache) == 2
        assert table1.program.geometry == L1_TABLE1.geometry
        assert small.program.geometry == SMALL_L1.geometry
        again = compile_workload(model, 2, SMALL_L1, cache=cache)
        assert again.from_cache and again.program is small.program
        assert compile_workload(model, 2, cache=cache).program is table1.program

    @pytest.mark.parametrize("fast_path", (True, False), ids=("fast", "reference"))
    def test_run_rejects_a_program_for_another_geometry(self, fast_path):
        program = compile_workload(_radix(), 2, SMALL_L1, cache=None).program
        chip = ChipMultiprocessor(CMPConfig(n_cores=2), fast_path=fast_path)
        with pytest.raises(ConfigurationError, match="geometry"):
            chip.run(program)


# ---------------------------------------------------------------------------
# Bounded compile-cache instrumentation.
# ---------------------------------------------------------------------------


def _program(tag):
    return prepare_streams([[(OP_COMPUTE, tag)]], L1_TABLE1)


class TestOpStreamCacheInstrumentation:
    def test_eviction_counter_and_put_return(self):
        cache = OpStreamCache(maxsize=2)
        assert cache.put("a", _program(1)) is False
        assert cache.put("b", _program(2)) is False
        assert cache.evictions == 0
        assert cache.put("c", _program(3)) is True
        assert cache.evictions == 1
        assert cache.get("a") is None

    def test_stats_snapshot(self):
        cache = OpStreamCache(maxsize=2)
        cache.put("a", _program(1))
        cache.get("a")
        cache.get("missing")
        cache.put("b", _program(2))
        cache.put("c", _program(3))
        assert cache.stats() == {
            "size": 2,
            "maxsize": 2,
            "hits": 1,
            "misses": 1,
            "evictions": 1,
        }

    def test_seed_and_export_round_trip(self):
        cache = OpStreamCache(maxsize=4)
        program = _program(1)
        cache.put("a", program)
        entries = cache.export_entries()
        other = OpStreamCache(maxsize=4)
        for key, value in entries:
            other.put(key, value)
        assert other.get("a") is not None
        # Seeding neither counts as a hit nor a miss.
        assert other.stats()["misses"] == 0
        assert other.stats()["hits"] == 1  # the get above
