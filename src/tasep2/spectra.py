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
`lattice.real_form` writes the block in Theta-fixed vectors, where it is
real.  Each block, and a generator that is already a momentum block, is
solved in that real form where it has one, else as it is.  (10,3,3) has
none: CP maps it onto (10,4,3).

`dense_spectrum` returns every eigenvalue; its `dense_limit` bounds the
largest block handed to LAPACK, not the sector dimension.  `krylov_gap`
returns the min(N_EIGS, dim - 2) eigenvalues of the sector nearest SIGMA,
taken from the union of each block's nearest ones, so they are the same
eigenvalues a shift-invert solve of the undivided sector would target.

Each block's H - SIGMA I is assembled in CSC from its triplets and factored
once by SuperLU with minimum-degree ordering on A + A^T (`MMD_AT_PLUS_A`) in
symmetric mode, which keeps partial pivoting but skips the unsymmetric column
elimination tree: the same L + U nonzeros, fewer padded supernode entries
(1.22M stored instead of 1.83M on the (12,4,4) k = 1 block), half the factor
time.  In real arithmetic the (12,4,4) k = 1 block's factor stores 1.46M
entries instead of 1.22M complex ones in about two thirds of the time, and
`krylov_gap` on that block takes about 60% of the complex time.  Each
factorization is logged at DEBUG on `tasep2.spectra` with the block's dim,
the nnz of the factored H - SIGMA I, whether it is a real form, the stored
L + U fill (`lu.nnz`; `lu.L`, `lu.U` copy) and time.
"""

import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .lattice import momentum_blocks, real_form

logger = logging.getLogger(__name__)

ZERO_TOL = 1e-10
DENSE_LIMIT = 4000
N_EIGS = 8  # eigenvalues `krylov_gap` returns
SIGMA = 1e-3  # shift, just off the zero mode
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
    generator that is already a momentum block is the one block.  A block
    is handed to `solve` in its real form where it has one."""
    if gen.momentum is not None:
        return solve(_real_if_possible(gen))
    length = gen.length
    half = range(length // 2 + 1)
    parts = []
    for k, blk in zip(half, momentum_blocks(gen, half)):
        vals = solve(_real_if_possible(blk))
        parts += [vals, vals.conj()] if 0 < k < length - k else [vals]
    return np.concatenate(parts)


def _real_if_possible(blk):
    """The block's real form where CP gives one, else the block."""
    real = real_form(blk)
    return blk if real is None else real


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


def _arnoldi(gen, k, v0):
    """The k eigenvalues of one block nearest SIGMA, residuals checked."""
    n = gen.dimension
    mat = gen.to_csr()
    diag = np.arange(n)
    shifted = sp.csc_matrix((np.r_[gen.vals, np.full(n, -SIGMA)],
                             (np.r_[gen.rows, diag], np.r_[gen.cols, diag])),
                            shape=(n, n))
    start = time.perf_counter()
    lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A",
                   options={"SymmetricMode": True})
    logger.debug("factored block: dim %d, nnz %d, real form %s, "
                 "L+U fill %d, %.3f s", n, shifted.nnz, gen.cp_real, lu.nnz,
                 time.perf_counter() - start)
    op = spla.LinearOperator((n, n), matvec=lu.solve, dtype=mat.dtype)
    try:
        vals, vecs = spla.eigs(mat, k=k, sigma=SIGMA, OPinv=op, which="LM",
                               v0=v0, tol=ARNOLDI_TOL)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"Arnoldi did not converge for dimension {n}: {exc}"
        ) from exc
    resid = (np.linalg.norm(mat @ vecs - vecs * vals, axis=0)
             / np.linalg.norm(vecs, axis=0))
    bad = resid > RESIDUAL_TOL
    if np.any(bad):
        raise ConvergenceError(
            f"eigenpair residuals above {RESIDUAL_TOL}: {resid[bad]}"
        )
    return np.asarray(vals, dtype=complex)


def krylov_gap(gen, seed=0):
    """Gap and the min(N_EIGS, dim - 2) eigenvalues nearest SIGMA by
    shift-inverted Arnoldi, one momentum block at a time.

    The shift sits just off the known zero mode so the factorized matrix is
    nonsingular; the zero eigenvalue is recovered and counted in
    `zero_count`.  The start vectors are drawn from one generator seeded
    with `seed`, in block order, and every Arnoldi eigenpair is checked
    against RESIDUAL_TOL (failure raises, never a silent wrong answer).
    A block with fewer than k + 2 states is solved densely, since ARPACK
    cannot return all its eigenvalues.
    """
    n = gen.dimension
    if n < 3:
        raise ValueError("block too small for Krylov iteration; use dense_spectrum")
    k = min(N_EIGS, n - 2)
    rng = np.random.default_rng(seed)

    def solve(blk):
        if blk.dimension < k + 2:
            return _dense_eigvals(blk)
        return _arnoldi(blk, k, rng.standard_normal(blk.dimension))

    vals = _solve_blocks(gen, solve)
    vals = vals[np.argsort(np.abs(vals - SIGMA), kind="stable")[:k]]
    return _result(vals)
