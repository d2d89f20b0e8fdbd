"""Eigenvalues of sector generators: steady state and relaxation gap.

The generator is non-Hermitian; its spectrum lies in the closed right half
plane with a simple zero eigenvalue per ergodic sector.  The gap is the
eigenvalue of smallest strictly positive real part (for a conjugate pair the
representative with Im >= 0 is reported; only Re enters the scaling law).

Translation commutes with the generator, so a full sector (or the full
space) is block-diagonal over the L momenta.  Both solvers work one momentum
block at a time and return the union as one result for the whole sector.
The generator is real, so block L-k is the complex conjugate of block k:
only k = 0..L//2 are solved, and the eigenvalues of k = 1..(L-1)//2 are
entered twice, once conjugated.  Blocks k = 0 and k = L/2 are real matrices.
So is every other block of a sector with n_a = n_vac, such as the paper's
(L, L/3, L/3), up to a change of basis: CP (reverse the ring, swap A and
vacancy) maps the sector onto itself, commutes with H and inverts the
translation, so Theta = CP conj maps each block onto itself, and
`lattice.momentum_blocks` builds the block in Theta-fixed vectors, where it
is real.  Each block, and a generator that is already a momentum block, is
solved in the basis it was built in.  (10,3,3) has no real form: CP maps
it onto (10,4,3).  The blocks are built one at a time, each after the one
before it is solved, so a full sector holds at most two at once.

`dense_spectrum` returns every eigenvalue; its `dense_limit` bounds the
largest block handed to LAPACK, not the sector dimension.  `krylov_gap`
returns the min(N_EIGS, dim) eigenvalues of the sector of smallest real
part, taken from the union of each block's N_EIGS smallest, so the gap is
the slowest mode also on a momentum block whose spectrum comes nearer zero
in modes of larger real part.

ARPACK finds each block's eigenvalues of smallest real part in regular
mode, from products with the block's CSR matrix alone: no factorization,
so the memory is the Krylov basis of NCV vectors and the L = 15 (5,5,5)
k = 1 block (dim 50,450) is within reach.  A block of fewer than
N_EIGS + 2 states is solved densely.  Each Arnoldi solve is logged at
DEBUG on `tasep2.spectra` with the block's dim, nnz, whether it is a real
form (float values, 2k mod L != 0), its number of products and the time.
"""

import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .lattice import momentum_blocks

logger = logging.getLogger(__name__)

ZERO_TOL = 1e-10
DENSE_LIMIT = 4000
N_EIGS = 8  # eigenvalues `krylov_gap` returns
NCV = 24  # Arnoldi basis size, the fastest of 20 (ARPACK's default) to 32
ARNOLDI_TOL = 1e-12  # ARPACK's relative tolerance
RESIDUAL_TOL = 1e-10  # bound on every returned eigenpair's residual


class ConvergenceError(RuntimeError):
    """Krylov iteration did not reach the requested residual."""


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    gap: complex | None
    zero_count: int


def _sorted_eigs(vals):
    """By Re rounded to 10 decimals (stable under roundoff), then by Im."""
    order = np.lexsort((vals.imag, np.round(vals.real, 10)))
    return vals[order]


def _pick_gap(vals):
    pos = vals[vals.real > ZERO_TOL]
    if len(pos) == 0:
        return None
    gmin = np.min(pos.real)
    cands = pos[np.abs(pos.real - gmin) <= max(ZERO_TOL, 1e-12 * max(gmin, 1.0))]
    up = cands[cands.imag >= -ZERO_TOL]
    pick = up[np.argmin(up.imag)] if len(up) else cands[np.argmax(cands.imag)]
    if abs(pick.imag) <= ZERO_TOL:
        pick = complex(pick.real, 0.0)
    return complex(pick)


def _result(vals):
    vals = _sorted_eigs(vals)
    return SpectrumResult(eigenvalues=vals, gap=_pick_gap(vals),
                          zero_count=int(np.sum(np.abs(vals) <= ZERO_TOL)))


def _solve_blocks(gen, solve):
    """Union of `solve(block)` over the momentum blocks k = 0..L//2 of a
    generator, each k = 1..(L-1)//2 entered with its conjugate twin; a
    generator that is already a momentum block is the one block.  Each
    block is solved before the next is built."""
    if gen.momentum is not None:
        return solve(gen)
    length = gen.length
    parts = []
    for blk in momentum_blocks(length, gen.packs, range(length // 2 + 1)):
        vals = solve(blk)
        k = blk.momentum
        parts += [vals, vals.conj()] if 0 < k < length - k else [vals]
    return np.concatenate(parts)


def _dense_eigvals(gen):
    if gen.dimension == 0:
        return np.zeros(0, complex)
    return np.asarray(scipy.linalg.eigvals(gen.to_dense()), dtype=complex)


def dense_spectrum(gen, dense_limit=DENSE_LIMIT):
    """Full spectrum by LAPACK, one momentum block at a time; refuses a
    block larger than `dense_limit` (k = 0, the largest, comes first)."""
    def solve(blk):
        if blk.dimension > dense_limit:
            raise ValueError(
                f"block dimension {blk.dimension} exceeds dense limit "
                f"{dense_limit}; use krylov_gap"
            )
        return _dense_eigvals(blk)

    return _result(_solve_blocks(gen, solve))


def _arnoldi(gen, v0):
    """The N_EIGS eigenvalues of one block of smallest real part, residuals
    checked."""
    n = gen.dimension
    mat = gen.to_csr()
    applied = 0

    def apply(x):
        nonlocal applied
        applied += 1
        return mat @ x

    op = spla.LinearOperator((n, n), matvec=apply, dtype=mat.dtype)
    start = time.perf_counter()
    try:
        vals, vecs = spla.eigs(op, k=N_EIGS, ncv=min(NCV, n), which="SR",
                               v0=v0, tol=ARNOLDI_TOL)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"Arnoldi did not converge for dimension {n}: {exc}"
        ) from exc
    real_form = mat.dtype.kind == "f" and 2 * gen.momentum % gen.length != 0
    logger.debug("Arnoldi block: dim %d, nnz %d, real form %s, "
                 "%d products, %.3f s", n, mat.nnz, real_form, applied,
                 time.perf_counter() - start)
    resid = (np.linalg.norm(mat @ vecs - vecs * vals, axis=0)
             / np.linalg.norm(vecs, axis=0))
    bad = resid > RESIDUAL_TOL
    if np.any(bad):
        raise ConvergenceError(
            f"eigenpair residuals above {RESIDUAL_TOL}: {resid[bad]}"
        )
    return np.asarray(vals, dtype=complex)


def krylov_gap(gen, seed=0):
    """Gap and the min(N_EIGS, dim) eigenvalues of smallest real part by
    Arnoldi, one momentum block at a time.

    Each block's N_EIGS eigenvalues of smallest real part are found by
    ARPACK in regular mode, from sparse products alone; the zero mode is
    among them in the block that holds it and is counted in `zero_count`.
    The start vectors are drawn from one generator seeded with `seed`, in
    block order, and every Arnoldi eigenpair is checked against
    RESIDUAL_TOL (failure raises, never a silent wrong answer).  A block
    with fewer than N_EIGS + 2 states is solved densely, since ARPACK
    cannot return all its eigenvalues.
    """
    rng = np.random.default_rng(seed)

    def solve(blk):
        if blk.dimension < N_EIGS + 2:
            return _dense_eigvals(blk)
        return _arnoldi(blk, rng.standard_normal(blk.dimension))

    vals = _solve_blocks(gen, solve)
    vals = vals[np.argsort(vals.real, kind="stable")[:N_EIGS]]
    return _result(vals)
