"""Synthetic SPLASH-2 workload models (Table 2 stand-ins).

The paper runs the twelve SPLASH-2 applications [41] on its simulator.
Running the actual binaries would require a full-system functional
simulator; what the paper's conclusions actually depend on is each
application's *behavioural signature*:

* how its nominal parallel efficiency falls with core count (serial
  sections, load imbalance, lock contention, communication),
* how memory-bound it is (working-set size versus cache capacity,
  spatial locality, sharing intensity),
* how much dynamic power it draws (base CPI, stall fraction).

:mod:`repro.workloads.splash2` encodes those signatures, one
:class:`~repro.workloads.base.WorkloadSpec` per application, with
parameters set from the published SPLASH-2 characterisation and the
paper's own observations (e.g. FMM/Cholesky/Radix in descending order of
computational intensity, Section 4.2).  The generator in
:mod:`repro.workloads.base` turns a spec into deterministic per-thread
operation streams for the simulator.
"""

import importlib

#: The names docs/API.md, the README and the examples import from this
#: package, each loaded from the submodule that defines it on first use.
_EXPORTS = {
    "WorkloadModel": "repro.workloads.base",
    "WorkloadSpec": "repro.workloads.base",
    "SPLASH2": "repro.workloads.splash2",
    "workload_by_name": "repro.workloads.splash2",
    "max_power_microbenchmark": "repro.workloads.microbench",
    "MultiprogrammedWorkload": "repro.workloads.multiprogram",
    "homogeneous_mix": "repro.workloads.multiprogram",
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
