"""Regressions for order-canonical float aggregation (analyzer follow-ups).

The static analyzer's DET-FLOAT-SUM / DET-SET-ORDER audit surfaced two
latent fragilities: :meth:`KernelAggregate.add_record` folded per-run
subsystem timings in whatever order each record carried them (parallel
workers return in completion order), and the coherence controller
probed sharer sets in hash order.  Both now fold/probe in sorted order,
so the accumulated floats are identical no matter how the inputs were
permuted.  These tests pin that.
"""

import itertools

from repro.telemetry.record import KernelAggregate, KernelRecord
from repro.units import GIGA, KILO, MEGA, MICRO, MILLI, NANO, PICO


def _stats(pairs) -> KernelRecord:
    """A run record carrying its subsystem pairs in the given order."""
    return KernelRecord(
        mode="fast",
        total_ops=10,
        fast_path_ops=0,
        slow_path_ops=0,
        barrier_ops=0,
        sim_wall_s=0.1,
        compile_s=0.0,
        compile_cache_hit=False,
        subsystem_s=tuple(pairs),
    )


class TestKernelAggregateFoldOrder:
    # Values chosen so naive left-to-right addition in different orders
    # produces different floats (non-associativity is observable).
    PAIRS = (
        ("memory", 0.1),
        ("critical", 0.2),
        ("barrier", 0.3),
        ("upgrade", 1e-12),
    )

    def test_record_key_order_does_not_change_totals(self):
        reference = None
        for permutation in itertools.permutations(self.PAIRS):
            aggregate = KernelAggregate()
            aggregate.add_record(_stats(permutation))
            if reference is None:
                reference = aggregate.subsystem_s
            else:
                assert aggregate.subsystem_s == reference
                # Same keys in the same (sorted) insertion order too.
                assert list(aggregate.subsystem_s) == list(reference)

    def test_multi_run_fold_ignores_each_records_key_order(self):
        # The run *sequence* is the executor's to canonicalise (it folds
        # outcomes in point-index order); add_record's contract is that
        # the key order carried by each individual record is irrelevant.
        runs = [
            self.PAIRS,
            (("memory", 0.07), ("barrier", 1e-9)),
            (("critical", 0.5), ("upgrade", 3e-13), ("memory", 0.01)),
        ]
        reference = None
        for seed in range(6):
            aggregate = KernelAggregate()
            for offset, run in enumerate(runs):
                rotated = run[(seed + offset) % len(run):] + run[: (seed + offset) % len(run)]
                aggregate.add_record(_stats(rotated))
            totals = dict(aggregate.subsystem_s)
            if reference is None:
                reference = totals
            else:
                assert totals == reference


class TestUnitConstantsAreExactLiterals:
    """The named constants must be bitwise-identical to the literals
    they replaced across the tree, or golden figures would shift."""

    def test_identities(self):
        assert GIGA == 1e9 and GIGA == float(10**9)
        assert MEGA == 1e6
        assert KILO == 1e3 and KILO == 1000.0
        assert MILLI == 1e-3
        assert MICRO == 1e-6
        assert NANO == 1e-9
        assert PICO == 1e-12

    def test_substituted_expressions_match_old_forms(self):
        f_hz = 3.2e9
        assert f_hz / GIGA == f_hz / 1e9
        time_ps = 123_456_789
        assert time_ps * PICO == time_ps * 1e-12
        ns = 37.5
        assert int(round(ns * KILO)) == int(round(ns * 1000.0))
        feature_nm = 65.0
        assert feature_nm * NANO == feature_nm * 1e-9
