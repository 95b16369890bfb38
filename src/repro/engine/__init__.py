"""Analytic performance engine.

Turns a workload's *memory profile* plus a machine/memory configuration
into predicted runtime and throughput.  The engine embodies the paper's
own analysis framework (Section IV-B):

    "By Little's Law, the memory throughput equals the ratio between the
     outstanding memory requests and the memory latency."

* :mod:`repro.engine.profilephase` — workload profiles: traffic, flops,
  footprint, access pattern, per-thread memory-level parallelism.
* :mod:`repro.engine.littles_law` — the throughput law itself.
* :mod:`repro.engine.threading_model` — hardware-thread scaling of
  concurrency and issue capacity.
* :mod:`repro.engine.placement` — where data lives (DRAM / flat HBM /
  DRAM behind the MCDRAM cache), including mixed placements.
* :mod:`repro.engine.perfmodel` — the simulator proper.
* :mod:`repro.engine.roofline` — a roofline view used for reporting.
* :mod:`repro.engine.calibration` — the paper's measured hardware
  characterization in one table, for tests and documentation.
"""

from repro.engine.profilephase import AccessPattern, Phase, MemoryProfile
from repro.engine.littles_law import (
    littles_law_bandwidth,
    required_concurrency,
    saturating_rate,
)
from repro.engine.placement import Location, PlacementMix
from repro.engine.threading_model import ThreadingModel
from repro.engine.perfmodel import PerformanceModel, PhaseResult, RunResult
from repro.engine.roofline import RooflineModel, RooflinePoint
from repro.engine.calibration import PAPER_CHARACTERIZATION
from repro.engine.energy import EnergyEstimate, EnergyModel, EnergyParameters

__all__ = [
    "AccessPattern",
    "Phase",
    "MemoryProfile",
    "littles_law_bandwidth",
    "required_concurrency",
    "saturating_rate",
    "Location",
    "PlacementMix",
    "ThreadingModel",
    "PerformanceModel",
    "PhaseResult",
    "RunResult",
    "RooflineModel",
    "RooflinePoint",
    "PAPER_CHARACTERIZATION",
    "EnergyEstimate",
    "EnergyModel",
    "EnergyParameters",
]
