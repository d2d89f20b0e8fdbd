"""R-matrix, monodromy and transfer matrix, and the integrability checks.

The R-matrix elements R^{mk}_{il}(theta) are the five-rule table

    R^{aa}_{aa} = e^theta
    R^{ab}_{ba} = 2 sinh theta   (a < b),   0  (a > b)
    R^{ab}_{ab} = e^theta        (a < b),   e^{-theta}  (a > b)

stored as a rank-4 tensor T[m, k, i, l].  Two distinct operator wirings of
the same table are needed, and both are fixed by unambiguous anchors:

* the site vertex [t_ab(theta)]_{ij} = R^{ib}_{aj}, pinned by the action of
  the monodromy matrix on the all-A reference state (A eigenvalue a(theta)^L,
  D_ii eigenvalue c(theta)^L, lower-left entries annihilate);
* the factorization-equation operator Rhat: |l, i> -> R^{mk}_{il} |m, k>,
  pinned by demanding that the Yang-Baxter identity
  Rhat_12(x-y) Rhat_13(x-z) Rhat_23(y-z) = Rhat_23 Rhat_13 Rhat_12 hold
  (it does, to machine precision; other wirings fail).

tau(0) comes out as the one-site translation (a permutation), so the
logarithmic derivative of the transfer matrix is formed with a permutation
transpose instead of a linear solve.
"""

import numpy as np
import scipy.sparse as sp

from .lattice import build_hamiltonian_tasep


def r_tensor(theta):
    """Rank-4 element table T[m, k, i, l] = R^{mk}_{il}(theta)."""
    t = np.zeros((3, 3, 3, 3), dtype=complex)
    a, c = np.exp(theta), 2.0 * np.sinh(theta)
    for al in range(3):
        t[al, al, al, al] = a
        for be in range(3):
            if al < be:
                t[al, be, be, al] = c
                t[al, be, al, be] = a
            elif al > be:
                t[al, be, al, be] = np.exp(-theta)
    return t


def _r_operator(theta):
    """9x9 operator |l,i> -> R^{mk}_{il}|m,k> (the YBE wiring)."""
    return np.transpose(r_tensor(theta), (0, 1, 3, 2)).reshape(9, 9)


def check_yang_baxter(theta1, theta2, theta3):
    """Max-norm residual of the factorization equation at the given triple."""
    eye = np.eye(3)
    r12 = np.kron(_r_operator(theta1 - theta2), eye)
    r23 = np.kron(eye, _r_operator(theta2 - theta3))
    # R_13 is R_12 with the factors 2 and 3 swapped on both sides
    r13 = (np.kron(_r_operator(theta1 - theta3), eye)
           .reshape(3, 3, 3, 3, 3, 3).transpose(0, 2, 1, 3, 5, 4)
           .reshape(27, 27))
    lhs = r12 @ r13 @ r23
    rhs = r23 @ r13 @ r12
    return float(np.max(np.abs(lhs - rhs)))


def t_site(theta):
    """Site vertex blocks t[a, b][i, j] = R^{ib}_{aj}(theta)."""
    return np.einsum("ibaj->abij", r_tensor(theta))


def build_transfer_matrix(length, theta):
    """Monodromy matrix on the 3^length chain (length <= 8): a (3, 3)
    object array of sparse blocks T_ab."""
    if length < 1:
        raise ValueError("length must be positive")
    if length > 8:
        raise ValueError("3^L transfer matrix limited to L <= 8")
    t = t_site(theta)
    ts = [[sp.csr_matrix(t[a, b]) for b in range(3)] for a in range(3)]
    blocks = np.empty((3, 3), dtype=object)
    for a in range(3):
        for b in range(3):
            blocks[a, b] = ts[a][b]
    # the newest site enters as the most significant kron factor, so site 0
    # carries the most significant trit, matching the lattice packing
    for _ in range(length - 1):
        new = np.empty((3, 3), dtype=object)
        for a in range(3):
            for b in range(3):
                acc = None
                for c in range(3):
                    term = sp.kron(ts[c][b], blocks[a, c], format="csr")
                    acc = term if acc is None else acc + term
                new[a, b] = acc
        blocks = new
    return blocks


def transfer_trace(length, theta):
    """tau(theta) = sum_a T_aa as a sparse matrix."""
    blocks = build_transfer_matrix(length, theta)
    return (blocks[0, 0] + blocks[1, 1] + blocks[2, 2]).tocsr()


def _invert_tau0(tau0):
    """tau(0) is the one-site translation: a permutation, inverted exactly
    by its transpose."""
    dense = np.asarray(tau0.todense())
    is_perm = (
        np.all((np.abs(dense) < 1e-12) | (np.abs(dense - 1) < 1e-12))
        and np.all(np.abs(dense.sum(axis=0) - 1) < 1e-12)
        and np.all(np.abs(dense.sum(axis=1) - 1) < 1e-12)
    )
    if not is_perm:
        raise ValueError("tau(0) is not a permutation matrix")
    return np.round(dense.real).T.astype(float)


def hamiltonian_from_transfer(length):
    """d(log tau)/dtheta at theta = 0 as a dense matrix (length <= 6).

    The R-matrix entries are e^theta, 2 sinh theta and e^-theta, so tau is a
    Laurent polynomial of degree <= L in e^theta with real coefficients, and
    tau'(0) = 2 Re sum_{m=1..L} w_m tau(2 pi i m / N) exactly, with N = 2L + 1
    and w_m = (1/N) sum_{|n| <= L} n e^{-2 pi i m n / N}.  tau(0) is inverted
    by permutation transpose (it is the translation operator).
    """
    if length > 6:
        raise ValueError("dense logarithmic derivative limited to L <= 6")
    n = np.arange(-length, length + 1)
    angles = 2.0 * np.pi * np.arange(1, length + 1) / len(n)
    dtau = sum(np.mean(n * np.exp(-1j * a * n)) * transfer_trace(length, 1j * a)
               for a in angles)
    return 2.0 * dtau.real.toarray() @ _invert_tau0(transfer_trace(length, 0.0))


def transfer_hamiltonian_check(length):
    """Compare d(log tau)/dtheta|_0 with the totally asymmetric generator.

    With K the logarithmic derivative, (length * Id - K) / 2 equals the
    generator entrywise: the derivative carries scale -2 and offset
    length relative to the master-equation convention.  Returns the
    max-norm discrepancy together with that affine convention.
    """
    K = hamiltonian_from_transfer(length)
    H = build_hamiltonian_tasep(length).to_dense()
    recovered = (length * np.eye(3 ** length) - K) / 2.0
    discrepancy = float(np.max(np.abs(recovered - H)))
    return {
        "length": length,
        "discrepancy": discrepancy,
        "scale": -0.5,
        "offset": length / 2.0,
    }
