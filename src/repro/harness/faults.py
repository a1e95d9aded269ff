"""Deterministic fault injection for the sweep executor.

A production sweep fleet sees three families of failure: a point
*raises* (a bug or a transient resource error), a point *hangs* (a lost
lock, a stuck IO), or its worker *dies* outright (the OOM killer, a
segfault).  This module makes all three reproducible on demand so the
executor's retry, quarantine, and rerun machinery can be tested — and
rehearsed in CI — against the real code paths rather than mocks.

A :class:`FaultPlan` is a pure value: given a seed (plus optional
explicit overrides) it deterministically decides, for every sweep-point
index, whether that point is sabotaged, with which :class:`FaultSpec`
(kind and how many leading attempts fail).  The derivation hashes
``(seed, index)`` independently per point, so the same plan produces the
same faults regardless of grid size, evaluation order, or job count —
which is what lets the chaos tests assert that a faulted parallel sweep
converges to exactly the fault-free serial result.

Fault kinds:

* ``raise`` — the point raises :class:`~repro.errors.InjectedFault`
  before evaluating (works in both execution lanes);
* ``hang`` — the point sleeps ``hang_s`` seconds before evaluating,
  long enough to trip a per-point deadline (requires the farm);
* ``kill`` — the worker process exits immediately with
  :data:`KILL_EXIT_CODE`, simulating an OOM kill or segfault (requires
  the farm).

The CLI exposes plans through the hidden ``--inject-faults`` flag; see
:func:`parse_fault_plan` for the spec grammar.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError, InjectedFault

#: Every fault kind the plane can inject.
FAULT_KINDS: Tuple[str, ...] = ("raise", "hang", "kill")

#: Exit code a ``kill``-faulted worker dies with (recognisably not a
#: Python traceback exit, so crash handling can be asserted precisely).
KILL_EXIT_CODE = 77

#: ``failing_attempts`` value meaning "every attempt fails" (a permanent
#: fault; the point is quarantined once retries are exhausted).
ALWAYS = -1


@dataclass(frozen=True)
class FaultSpec:
    """How one sweep point misbehaves.

    ``failing_attempts`` counts the leading attempts that fail; attempt
    numbers at or past it succeed, so a spec with ``failing_attempts=2``
    under ``max_retries>=2`` recovers, while :data:`ALWAYS` never does.
    """

    kind: str
    failing_attempts: int = 1
    hang_s: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.failing_attempts == 0 or self.failing_attempts < ALWAYS:
            raise ConfigurationError(
                "failing_attempts must be >= 1, or ALWAYS (-1) for a "
                "permanent fault"
            )

    @property
    def permanent(self) -> bool:
        """Whether no number of retries can get past this fault."""
        return self.failing_attempts == ALWAYS

    def applies(self, attempt: int) -> bool:
        """Whether this spec sabotages the given 0-based attempt."""
        return self.permanent or attempt < self.failing_attempts


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible assignment of faults to sweep-point indices.

    Explicit ``faults`` entries always win; beyond them, each index is
    (or is not) faulted by a derivation seeded on ``(seed, index)``
    whenever ``rate > 0``.  The plan is a frozen dataclass so it can
    ride to worker processes through the executor's task channel.
    """

    seed: int = 0
    rate: float = 0.0
    kinds: Tuple[str, ...] = FAULT_KINDS
    #: Upper bound on the failing attempts of a derived transient fault.
    max_failing_attempts: int = 2
    #: Fraction of derived faults that are permanent (never recover).
    permanent_rate: float = 0.0
    hang_s: float = 30.0
    faults: Tuple[Tuple[int, FaultSpec], ...] = field(default=())

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError("fault rate must be within [0, 1]")
        if not 0.0 <= self.permanent_rate <= 1.0:
            raise ConfigurationError("permanent rate must be within [0, 1]")
        if self.max_failing_attempts < 1:
            raise ConfigurationError("max_failing_attempts must be >= 1")
        for kind in self.kinds:
            if kind not in FAULT_KINDS:
                raise ConfigurationError(f"unknown fault kind {kind!r}")
        if not self.kinds and self.rate > 0.0:
            raise ConfigurationError("a fault rate needs at least one kind")

    def spec_for(self, index: int) -> Optional[FaultSpec]:
        """The fault assigned to one sweep-point index, if any.

        Deterministic in ``(plan, index)`` alone — derived faults never
        depend on grid size or evaluation order.
        """
        explicit: Dict[int, FaultSpec] = dict(self.faults)
        if index in explicit:
            return explicit[index]
        if self.rate <= 0.0:
            return None
        rng = random.Random(f"repro-fault:{self.seed}:{index}")
        if rng.random() >= self.rate:
            return None
        kind = self.kinds[rng.randrange(len(self.kinds))]
        if self.permanent_rate > 0.0 and rng.random() < self.permanent_rate:
            failing = ALWAYS
        else:
            failing = 1 + rng.randrange(self.max_failing_attempts)
        return FaultSpec(kind=kind, failing_attempts=failing, hang_s=self.hang_s)

    def faulted_indices(self, n_points: int) -> Tuple[int, ...]:
        """Every index in ``range(n_points)`` this plan sabotages."""
        return tuple(
            i for i in range(n_points) if self.spec_for(i) is not None
        )

    def needs_processes(self, n_points: int) -> bool:
        """Whether any fault in the grid requires worker processes.

        ``hang`` and ``kill`` faults only make sense when the
        coordinator can deadline or lose a child process; the executor
        uses this to force the farm for such plans.
        """
        return any(
            spec is not None and spec.kind in ("hang", "kill")
            for spec in (self.spec_for(i) for i in range(n_points))
        )

    def describe(self) -> str:
        """One-line summary for logs and the telemetry manifest."""
        parts = [f"seed={self.seed}", f"rate={self.rate}"]
        if self.rate > 0.0:
            parts.append("kinds=" + "+".join(self.kinds))
            parts.append(f"attempts={self.max_failing_attempts}")
            if self.permanent_rate:
                parts.append(f"permanent={self.permanent_rate}")
        if self.faults:
            parts.append(f"explicit={len(self.faults)}")
        return ",".join(parts)


def inject_fault(plan: Optional[FaultPlan], index: int, attempt: int) -> None:
    """Execute the plan's fault for ``(index, attempt)``, if any.

    Called by the executor's point wrapper at the top of every
    evaluation attempt, inside the telemetry capture window.  ``raise``
    faults raise :class:`~repro.errors.InjectedFault`; ``hang`` faults
    sleep (the coordinator's deadline kills the worker first when a
    timeout is configured); ``kill`` faults exit the process with
    :data:`KILL_EXIT_CODE`.
    """
    if plan is None:
        return
    spec = plan.spec_for(index)
    if spec is None or not spec.applies(attempt):
        return
    if spec.kind == "raise":
        raise InjectedFault(
            f"injected raise at point {index}, attempt {attempt}"
        )
    if spec.kind == "hang":
        time.sleep(spec.hang_s)
        return
    # kill: die the way the OOM killer would — no cleanup, no excuses.
    os._exit(KILL_EXIT_CODE)


def parse_fault_plan(text: str) -> FaultPlan:
    """Parse the CLI's ``--inject-faults`` spec into a plan.

    Grammar: comma-separated ``key=value`` fields — ``seed`` (int,
    required unless the whole spec is a bare integer seed), ``rate``
    (float in [0, 1], default 0.25), ``kinds`` (``+``-joined subset of
    ``raise``/``hang``/``kill``, default all), ``attempts`` (max failing
    attempts, default 2), ``permanent`` (float rate, default 0), and
    ``hang`` (seconds, default 30).  Examples::

        --inject-faults 42
        --inject-faults seed=42,rate=0.3,kinds=raise+kill,attempts=2
        --inject-faults seed=7,rate=0.2,kinds=hang,hang=5,permanent=0.5
    """
    text = text.strip()
    if not text:
        raise ConfigurationError("empty fault-plan spec")
    try:
        return FaultPlan(seed=int(text), rate=0.25)
    except ValueError:
        pass
    fields: Dict[str, str] = {}
    for part in text.split(","):
        key, sep, value = part.partition("=")
        if not sep or not key.strip() or not value.strip():
            raise ConfigurationError(
                f"malformed fault-plan field {part!r}; expected key=value"
            )
        fields[key.strip()] = value.strip()
    unknown = set(fields) - {
        "seed", "rate", "kinds", "attempts", "permanent", "hang"
    }
    if unknown:
        raise ConfigurationError(
            f"unknown fault-plan fields: {', '.join(sorted(unknown))}"
        )
    try:
        return FaultPlan(
            seed=int(fields.get("seed", "0")),
            rate=float(fields.get("rate", "0.25")),
            kinds=tuple(fields["kinds"].split("+"))
            if "kinds" in fields
            else FAULT_KINDS,
            max_failing_attempts=int(fields.get("attempts", "2")),
            permanent_rate=float(fields.get("permanent", "0")),
            hang_s=float(fields.get("hang", "30")),
        )
    except ValueError as exc:
        raise ConfigurationError(f"malformed fault-plan spec {text!r}: {exc}")
