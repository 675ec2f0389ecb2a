"""Application workloads running on the simulated MPI runtime.

* :mod:`repro.apps.tsunami` — the paper's evaluation workload: a 2-D
  shallow-water (tsunami) stencil with ghost-region exchange;
* :mod:`repro.apps.heat` — a Jacobi heat-diffusion stencil (second domain
  example);
* :mod:`repro.apps.stencil` — shared decomposition/halo machinery.
"""

from repro.apps.heat import HeatConfig, HeatSimulation, heat_step
from repro.apps.spectral import (
    SpectralConfig,
    SpectralSimulation,
    initial_field,
)
from repro.apps.stencil import (
    EAST,
    HALO_TAG_BASE,
    NORTH,
    ProcessGrid,
    SOUTH,
    WEST,
    halo_exchange,
    synthetic_halo_exchange,
)
from repro.apps.tsunami import (
    GRAVITY,
    TsunamiConfig,
    TsunamiSimulation,
    fill_physical_ghosts,
    initial_eta,
    paper_tsunami_config,
    swe_step,
)
from repro.apps.workload import (
    ExecutionMode,
    FTIWorkload,
    HeatWorkload,
    ProgramsWorkload,
    SpectralWorkload,
    TsunamiWorkload,
    Workload,
    fig5_workload,
    with_mode,
)

__all__ = [
    "EAST",
    "ExecutionMode",
    "FTIWorkload",
    "GRAVITY",
    "HALO_TAG_BASE",
    "HeatConfig",
    "HeatSimulation",
    "HeatWorkload",
    "NORTH",
    "ProcessGrid",
    "ProgramsWorkload",
    "SOUTH",
    "SpectralConfig",
    "SpectralSimulation",
    "SpectralWorkload",
    "TsunamiConfig",
    "TsunamiSimulation",
    "TsunamiWorkload",
    "WEST",
    "Workload",
    "fig5_workload",
    "fill_physical_ghosts",
    "halo_exchange",
    "heat_step",
    "initial_eta",
    "initial_field",
    "paper_tsunami_config",
    "swe_step",
    "synthetic_halo_exchange",
    "with_mode",
]
