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

from repro.workloads.base import WorkloadModel, WorkloadSpec
from repro.workloads.splash2 import SPLASH2, workload_by_name
from repro.workloads.microbench import max_power_microbenchmark
from repro.workloads.multiprogram import MultiprogrammedWorkload, homogeneous_mix

__all__ = [
    "MultiprogrammedWorkload",
    "homogeneous_mix",
    "WorkloadModel",
    "WorkloadSpec",
    "SPLASH2",
    "workload_by_name",
    "max_power_microbenchmark",
]
