import os

# one BLAS thread, as in the benchmark, set before numpy loads: on a busy
# host a second OpenBLAS thread slows the Arnoldi solves down
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy.linalg  # noqa: E402

from tasep2 import (  # noqa: E402
    Sector,
    build_hamiltonian_tasep,
    dense_spectrum,
    solve_gap_chain,
)

# ten local exponents for L = 6..33 from the published gap table
PAPER_EXTRAPOLANTS = {
    6: -1.6336892192762,
    9: -1.6252314332778,
    12: -1.6092183117219,
    15: -1.5952666540982,
    18: -1.5839870664789,
    21: -1.5749003909369,
    24: -1.5674968193872,
    27: -1.5613778750522,
    30: -1.5562495252464,
    33: -1.5518961566109,
}


@pytest.fixture(scope="session")
def gap_chain_36():
    """Gap-branch root sets for L = 6, 9, ..., 36."""
    return solve_gap_chain(36)


@pytest.fixture(scope="session")
def spectrum_l6_equal():
    """Dense spectrum of the L=6 equal-density sector (dimension 90)."""
    gen = build_hamiltonian_tasep(6, Sector(6, 2, 2))
    return dense_spectrum(gen)


@pytest.fixture(scope="session")
def spectrum_l9_equal():
    """Dense spectrum of the L=9 equal-density sector (dimension 1680)."""
    gen = build_hamiltonian_tasep(9, Sector(9, 3, 3))
    return dense_spectrum(gen)


@pytest.fixture(scope="session")
def spectrum_l10_equal():
    """Dense spectrum of the L=10 equal-density sector (dimension 4200),
    solved as momentum blocks of about 420."""
    gen = build_hamiltonian_tasep(10, Sector(10, 3, 3))
    return dense_spectrum(gen)


@pytest.fixture(scope="session")
def direct_eigs_l9():
    """Eigenvalues of the undivided L=9 equal-density sector by one LAPACK
    eig, the reference for the momentum-block solvers."""
    gen = build_hamiltonian_tasep(9, Sector(9, 3, 3))
    return scipy.linalg.eigvals(gen.to_dense())


def closest(values, target):
    values = np.asarray(values)
    return values[np.argmin(np.abs(values - target))]


def is_real_form(blk):
    """Whether a momentum block was built as its CP real form: float values
    where the phases are not +-1 (2k mod L != 0)."""
    return blk.vals.dtype == np.float64 and 2 * blk.momentum % blk.length != 0
