"""Tests for op-stream compilation and the compile cache."""

import gc
import hashlib
import tracemalloc

import pytest

from repro.sim.config import L1_TABLE1, OP_COMPUTE, OP_CRITICAL, OP_LOAD, OP_STORE
from repro.sim.ops import OpStreamCache, compile_workload, prepare_streams
from repro.workloads import (
    SPLASH2,
    WorkloadModel,
    max_power_microbenchmark,
    workload_by_name,
)
from repro.workloads.multiprogram import homogeneous_mix


class TestOpStreamCache:
    def _program(self):
        return prepare_streams([[]], L1_TABLE1)

    def test_miss_then_hit(self):
        cache = OpStreamCache()
        assert cache.get("k") is None
        assert cache.misses == 1
        program = self._program()
        cache.put("k", program)
        assert cache.get("k") is program
        assert cache.hits == 1

    def test_lru_eviction(self):
        cache = OpStreamCache(maxsize=2)
        a, b, c = self._program(), self._program(), self._program()
        cache.put("a", a)
        cache.put("b", b)
        cache.get("a")  # refresh: b becomes LRU
        cache.put("c", c)
        assert cache.get("b") is None
        assert cache.get("a") is a
        assert cache.get("c") is c

    def test_reput_refreshes_position(self):
        cache = OpStreamCache(maxsize=2)
        cache.put("a", self._program())
        cache.put("b", self._program())
        cache.put("a", self._program())  # refresh a: b is LRU
        cache.put("c", self._program())
        assert cache.get("b") is None
        assert cache.get("a") is not None

    def test_clear(self):
        cache = OpStreamCache()
        cache.put("k", self._program())
        cache.clear()
        assert len(cache) == 0
        assert cache.get("k") is None

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            OpStreamCache(maxsize=0)


class FakeModel:
    """Workload-protocol stub counting stream generations."""

    def __init__(self, key="fake"):
        self.generated = 0
        self._key = key

    def compile_key(self, n_threads):
        return (self._key, n_threads)

    def thread_ops(self, thread_id, n_threads):
        self.generated += 1
        yield (OP_COMPUTE, 10)
        yield (OP_COMPUTE, 20)
        yield (OP_LOAD, 0x40 * (thread_id + 1))


class KeylessModel:
    def thread_ops(self, thread_id, n_threads):
        yield (OP_COMPUTE, 1)


class TestCompileWorkload:
    def test_cold_compile_generates(self):
        model = FakeModel()
        out = compile_workload(model, 2, cache=OpStreamCache())
        assert not out.from_cache
        assert model.generated == 2
        assert out.program.n_threads == 2
        assert out.program.total_ops == 6
        # Adjacent bursts stay as generated: one op each.  The load gains
        # its Table 1 L1 line (64-byte lines) and flat set base (2 ways).
        assert out.program.streams[0] == [
            (OP_COMPUTE, 10),
            (OP_COMPUTE, 20),
            (OP_LOAD, 0x40, 1, 1 << 1),
        ]

    def test_warm_compile_skips_generation(self):
        cache = OpStreamCache()
        model = FakeModel()
        cold = compile_workload(model, 2, cache=cache)
        warm = compile_workload(model, 2, cache=cache)
        assert warm.from_cache
        assert warm.seconds == 0.0
        assert warm.program is cold.program
        assert model.generated == 2  # nothing regenerated

    def test_thread_count_is_part_of_the_key(self):
        cache = OpStreamCache()
        model = FakeModel()
        compile_workload(model, 1, cache=cache)
        out = compile_workload(model, 2, cache=cache)
        assert not out.from_cache

    def test_model_without_key_always_compiles(self):
        cache = OpStreamCache()
        first = compile_workload(KeylessModel(), 1, cache=cache)
        second = compile_workload(KeylessModel(), 1, cache=cache)
        assert not first.from_cache and not second.from_cache

    def test_cache_none_always_compiles(self):
        model = FakeModel()
        compile_workload(model, 1, cache=None)
        out = compile_workload(model, 1, cache=None)
        assert not out.from_cache
        assert model.generated == 2


def _bundled_programs():
    """Every SPLASH-2 model at scale 0.05 on each thread count Figures 3
    and 4 run, a four-copy mix and the calibration microbenchmark."""
    models = [WorkloadModel(m.spec.scaled(0.05)) for m in SPLASH2]
    cases = [(m, n) for m in models for n in (1, 2, 4, 8, 12, 16) if m.supports(n)]
    cases.append((homogeneous_mix(models[0], 4), 4))
    cases.append((max_power_microbenchmark(), 1))
    return cases


@pytest.mark.parametrize(
    "model,n", _bundled_programs(), ids=lambda v: getattr(v, "name", str(v))
)
def test_compiled_streams_are_the_generated_streams(model, n):
    program = compile_workload(model, n, cache=None).program
    # The reference compile: prepare_streams over the raw generators.
    assert program == prepare_streams(
        (model.thread_ops(t, n) for t in range(n)), L1_TABLE1
    )
    shift = L1_TABLE1.line_shift
    for t in range(n):
        generated = list(model.thread_ops(t, n))
        resolved = program.streams[t]
        assert len(resolved) == len(generated)
        for op, gen in zip(resolved, generated):
            if gen[0] == OP_LOAD or gen[0] == OP_STORE:
                # Loads and stores keep their kind and their L1 line.
                assert op[0] == gen[0]
                assert op[1] == gen[1] >> shift << shift
            else:
                assert op == gen


#: sha256 over every bundled program's streams and sorted private-line
#: sets, as :func:`_program_digest` computes it.
PROGRAMS_SHA256 = "65e24835da7d522f0de9577ae3ee865ead33628dc7ab1c13d6ca6ed99f634991"


def _program_digest(cases):
    digest = hashlib.sha256()
    for model, n in cases:
        program = compile_workload(model, n, cache=None).program
        digest.update(repr(program.streams).encode())
        digest.update(
            repr([sorted(lines) for lines in program.private_lines]).encode()
        )
    return digest.hexdigest()


def test_bundled_programs_are_pinned_bitwise():
    assert _program_digest(_bundled_programs()) == PROGRAMS_SHA256


# ---------------------------------------------------------------------------
# Compactness: a compiled program holds one copy, and shares what repeats.
# ---------------------------------------------------------------------------

#: Figure 3's applications (the ``repro fig3`` default ``--apps``).
FIG3_APPS = ("FMM", "LU", "Ocean", "Cholesky", "Radix")


def _fig3_programs():
    """Figure 3's 25 programs at scale 0.05, compiled with no cache."""
    models = [WorkloadModel(workload_by_name(a).spec.scaled(0.05)) for a in FIG3_APPS]
    return [
        compile_workload(m, n, cache=None).program
        for m in models
        for n in (1, 2, 4, 8, 16)
    ]


def test_fig3_programs_hold_at_most_50_bytes_per_op():
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        programs = _fig3_programs()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n_ops = sum(p.total_ops for p in programs)
    assert len(programs) == 25
    assert held / n_ops <= 50, f"{held / n_ops:.0f} B/op"


def test_compiled_programs_share_repeated_parts():
    for program in _fig3_programs():
        set_bases = {}
        for ops in program.streams:
            bursts = {}
            lines = {}
            accesses = {}
            criticals = {}
            for op in ops:
                kind = op[0]
                if kind == OP_COMPUTE:
                    assert bursts.setdefault(op[1], op) is op
                elif kind == OP_LOAD or kind == OP_STORE:
                    assert accesses.setdefault((kind, op[2]), op) is op
                    assert lines.setdefault(op[2], op[2]) is op[2]
                    assert set_bases.setdefault(op[3], op[3]) is op[3]
                elif kind == OP_CRITICAL:
                    assert criticals.setdefault(op, op) is op
