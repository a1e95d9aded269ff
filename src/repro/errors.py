"""Exception hierarchy for the repro library.

All library-specific failures derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A model or simulator was constructed with inconsistent parameters."""


class InfeasibleOperatingPoint(ReproError):
    """The requested (V, f, N) operating point cannot be realised.

    Raised, for example, when Scenario I would need to overclock beyond the
    nominal frequency (``N * eps_n < 1``, Section 2.2 of the paper), or when
    a requested voltage falls outside the technology's legal range.
    """


class ConvergenceError(ReproError):
    """An iterative solver (thermal fixed point, bisection) failed to converge."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class WorkloadError(ReproError):
    """A workload model was asked for an unsupported configuration.

    Some SPLASH-2 applications only run on power-of-two thread counts
    (Section 4.1); asking for e.g. 6 threads raises this.
    """


class TransientError(ReproError):
    """A failure that retrying the same point may resolve.

    The sweep executor's retry machinery only ever re-attempts points
    whose failure derives from this class (or escaped the library
    entirely); deterministic physics failures like
    :class:`InfeasibleOperatingPoint` are final on the first attempt.
    """


class InjectedFault(TransientError):
    """A failure deliberately injected by the fault plane (testing only).

    Raised by :mod:`repro.harness.faults` when a seeded fault plan
    sabotages a sweep point, so fault-tolerance tests exercise the real
    retry/quarantine/rerun paths with reproducible failures.
    """


class WorkerCrash(TransientError):
    """A sweep worker process died without reporting a result.

    Stands in for the failures a production fleet actually sees — the
    OOM killer, a segfault in a native extension, a pre-empted node.
    """


class PointTimeout(TransientError):
    """A sweep point exceeded its per-point deadline and was killed."""
