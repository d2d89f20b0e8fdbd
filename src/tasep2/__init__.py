"""Two-species totally asymmetric exclusion process on a ring.

Sector generators and exact spectra, integrability checks (R-matrix,
transfer matrix), the nested Bethe root solver with the one-scalar cubic
reduction of the gap state, and Bulirsch-Stoer extraction of the dynamical
exponent z = 3/2 from the gap series.
"""

from .lattice import (
    Sector,
    SectorGenerator,
    all_sectors,
    build_hamiltonian_tasep,
    project_momentum,
)
from .spectra import ConvergenceError, SpectrumResult, dense_spectrum, krylov_gap
from .yangbaxter import (
    build_transfer_matrix,
    check_yang_baxter,
    hamiltonian_from_transfer,
    transfer_hamiltonian_check,
)
from .bethe import (
    BetheError,
    BetheRootSet,
    EnergyMap,
    bethe_residual,
    calibrate_energy_map,
    continue_in_L,
    energy_from_roots,
    solve_bethe,
    solve_gap_chain,
    solve_gap_state,
)
from .scaling import (
    BstTableau,
    bst_extrapolate,
    bst_scan,
    local_exponent,
    run_scaling_study,
)

__version__ = "0.1.0"

__all__ = [
    "BetheError",
    "BetheRootSet",
    "BstTableau",
    "ConvergenceError",
    "EnergyMap",
    "Sector",
    "SectorGenerator",
    "SpectrumResult",
    "all_sectors",
    "bethe_residual",
    "bst_extrapolate",
    "bst_scan",
    "build_hamiltonian_tasep",
    "build_transfer_matrix",
    "calibrate_energy_map",
    "check_yang_baxter",
    "continue_in_L",
    "dense_spectrum",
    "energy_from_roots",
    "hamiltonian_from_transfer",
    "krylov_gap",
    "local_exponent",
    "project_momentum",
    "run_scaling_study",
    "solve_bethe",
    "solve_gap_chain",
    "solve_gap_state",
    "transfer_hamiltonian_check",
]
