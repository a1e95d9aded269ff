"""Multiprogrammed workloads: the related-work baseline, for contrast.

The paper positions itself against the power/thermal-aware SMT/CMP
literature that studies **multiprogrammed** workloads — N independent
programs, one per core, no sharing, no synchronisation.  This module
builds that baseline from the same application models so the two regimes
can be compared on identical infrastructure:

* every core runs a *single-threaded* instance of its assigned
  application (its own address space — instances are offset so nothing
  is shared);
* the only synchronisation is one common barrier at the end of each
  instance's initialization, so the simulator's warmup reset
  (``warmup_barriers=1``) still applies;
* per-core :class:`~repro.sim.config.CoreTimingConfig` preserves each
  application's own CPI/MLP character.

The headline contrast with a parallel application at equal core count:
no parallel-efficiency loss (every core computes usefully all the time),
but also no DVFS-at-iso-performance story — each program's performance
is its own, which is exactly why the paper's questions only arise for
parallel codes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator, List, Sequence

from repro.errors import ConfigurationError, WorkloadError
from repro.sim.config import OP_BARRIER, CoreTimingConfig
from repro.workloads.base import WorkloadModel

#: Address offset between program instances.  Must clear the workload
#: generator's entire layout (its lock region sits at ~2^46.8), so one
#: instance per 2^48 bytes keeps all sixteen instances disjoint.
_INSTANCE_STRIDE = 1 << 48


class MultiprogrammedWorkload:
    """N independent single-thread program instances, one per core."""

    #: One common barrier separates initialization from measurement.
    warmup_barriers = 1

    def __init__(self, models: Sequence[WorkloadModel]) -> None:
        if not models:
            raise ConfigurationError("need at least one program")
        self.models = list(models)
        self.name = "mix(" + "+".join(m.name for m in self.models) + ")"

    @property
    def n_programs(self) -> int:
        """Number of program instances (= required core count)."""
        return len(self.models)

    def supports(self, n_threads: int) -> bool:
        """A mix runs only at exactly one core per program."""
        return n_threads == self.n_programs

    def supported_thread_counts(self, candidates) -> List[int]:
        """Filter candidates to the mix's size."""
        return [n for n in candidates if self.supports(n)]

    def compile_key(self, n_threads: int):
        """Identity of the mix's op streams for the compile cache."""
        return ("mix", tuple(m.spec for m in self.models), n_threads)

    def core_timing(self) -> List[CoreTimingConfig]:
        """Per-core timing configs, one per program."""
        return [m.core_timing() for m in self.models]

    def thread_ops(self, thread_id: int, n_threads: int) -> Iterator[tuple]:
        """Program ``thread_id``'s single-threaded stream, relocated.

        The instance's own barriers are meaningless across programs, so
        everything up to its first barrier counts as initialization
        (re-emitted before a single common barrier 0) and later barriers
        are stripped.
        """
        if not self.supports(n_threads):
            raise WorkloadError(
                f"mix of {self.n_programs} programs needs exactly that many cores"
            )
        if not 0 <= thread_id < self.n_programs:
            raise WorkloadError(f"program index {thread_id} out of range")
        offset = thread_id * _INSTANCE_STRIDE
        lock_offset = thread_id * 1_000_000
        seen_first_barrier = False
        for op in self.models[thread_id].thread_ops(0, 1):
            kind = op[0]
            if kind == OP_BARRIER:
                if not seen_first_barrier:
                    seen_first_barrier = True
                    yield (OP_BARRIER, 0)
                continue
            yield _relocate(op, offset, lock_offset)


def _relocate(op: tuple, offset: int, lock_offset: int) -> tuple:
    """Shift an op's addresses (and lock ids) into the instance's region."""
    kind = op[0]
    if kind in (1, 2):  # OP_LOAD / OP_STORE
        return (kind, op[1] + offset)
    if kind == 4:  # OP_CRITICAL: private lock-id space + relocated data.
        return (kind, op[1] + lock_offset, op[2], op[3] + offset)
    return op


def homogeneous_mix(model: WorkloadModel, n_copies: int) -> MultiprogrammedWorkload:
    """N copies of one program, independently seeded (rate-style mix)."""
    if n_copies < 1:
        raise ConfigurationError("need at least one copy")
    copies = [
        WorkloadModel(replace(model.spec, seed=model.spec.seed + 7919 * i))
        for i in range(n_copies)
    ]
    return MultiprogrammedWorkload(copies)
