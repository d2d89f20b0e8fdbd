"""Set-up of a benchmark process: thread caps, import of tasep2, warm-up.

Run as a script it performs one cold set-up and prints the wall-clock time
(`time.time()`) at which the set-up finished; `run.py` starts it a few
times, one after another, to measure `setup_s`.
"""

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads():
    """Run BLAS/OpenMP on one thread, within the usable cores; call before
    numpy loads. Returns the number of usable cores."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_program():
    """Import tasep2 from this checkout's `src/`, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tasep2
    import tasep2.cli
    where = Path(tasep2.__file__).resolve().parent
    if where != src / "tasep2":
        raise ImportError(f"tasep2 imported from {where}, not from {src}")


def warm_up():
    """One small call per layer, so library set-up stays out of solve_s."""
    from tasep2 import bethe, cli, lattice, scaling, spectra, yangbaxter
    gen = lattice.build_hamiltonian_tasep(6, lattice.Sector(6, 2, 2))
    spectra.dense_spectrum(gen)
    spectra.krylov_gap(gen)
    bethe.solve_gap_state(6)
    scaling.bst_scan([(6, -1.63), (9, -1.62), (12, -1.61)])
    yangbaxter.check_yang_baxter(0.1 + 0.2j, -0.3, 0.5j)
    cli.build_parser()


if __name__ == "__main__":
    cap_threads()
    import_program()
    warm_up()
    print(repr(time.time()))
