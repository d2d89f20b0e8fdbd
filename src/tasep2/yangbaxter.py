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

The monodromy matrix is one sparse product of the L site vertices on the
lattice's packed codes; no matrix here is dense.  tau(0) is checked against
the lattice's one-site translation, whose permutation then inverts it.
`hamiltonian_from_transfer` returns the generator itself, L/2 - (1/2)
d(log tau)/dtheta at theta = 0, which `transfer_hamiltonian_check` compares
with the lattice's.
"""

import numpy as np
import scipy.sparse as sp

from .lattice import build_hamiltonian_tasep, site_weights, translate_packed


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
    eye = np.identity(3)
    r12 = np.kron(_r_operator(theta1 - theta2), eye)
    r23 = np.kron(eye, _r_operator(theta2 - theta3))
    # R_13 is R_12 with the factors 2 and 3 swapped on both sides
    r13 = (np.kron(_r_operator(theta1 - theta3), eye)
           .reshape(3, 3, 3, 3, 3, 3).transpose(0, 2, 1, 3, 5, 4)
           .reshape(27, 27))
    return float(np.max(np.abs(r12 @ r13 @ r23 - r23 @ r13 @ r12)))


def t_site(theta):
    """Site vertex blocks t[a, b][i, j] = R^{ib}_{aj}(theta)."""
    return np.einsum("ibaj->abij", r_tensor(theta))


def _site_vertex(length, site, t):
    """M_site = sum_ab |a><b| (x) t_ab on aux (x) chain, the aux state as
    the most significant index: t_ab[i, j] takes the site's trit j to i."""
    n, weight = 3 ** length, site_weights(length)[site]
    # the codes stably sorted by their trit at the site, n/3 per trit
    by_trit = np.argsort(np.arange(n) // weight % 3, kind="stable")
    a, b, i, j = np.nonzero(t)
    x = by_trit.reshape(3, -1)[j]  # one row of codes per nonzero entry of t
    rows = (a[:, None] * n + x + ((i - j) * weight)[:, None]).ravel()
    cols = (b[:, None] * n + x).ravel()
    vals = np.repeat(t[a, b, i, j], x.shape[1])
    return sp.csr_matrix((vals, (rows, cols)), shape=(3 * n, 3 * n))


def build_transfer_matrix(length, theta):
    """Monodromy matrix M_{L-1} ... M_0 on aux (x) chain (1 <= length <= 8),
    one sparse matrix whose (a, b) block of size 3^length is T_ab."""
    if not 1 <= length <= 8:
        raise ValueError("3^L transfer matrix needs 1 <= L <= 8")
    t = t_site(theta)
    mono = _site_vertex(length, length - 1, t)
    for site in range(length - 2, -1, -1):
        mono = mono @ _site_vertex(length, site, t)
    return mono


def transfer_trace(length, theta):
    """tau(theta) = sum_a T_aa as a sparse matrix."""
    mono, n = build_transfer_matrix(length, theta), 3 ** length
    return (mono[:n, :n] + mono[n:2 * n, n:2 * n]
            + mono[2 * n:, 2 * n:]).tocsr()


def hamiltonian_from_transfer(length):
    """The generator recovered from the transfer matrix as a sparse matrix,
    L/2 - (1/2) d(log tau)/dtheta at theta = 0 (2 <= length <= 8).

    The R-matrix entries are e^theta, 2 sinh theta and e^-theta, so tau is a
    Laurent polynomial of degree <= L in e^theta with real coefficients, and
    tau'(0) = 2 Re sum_{m=1..L} w_m tau(2 pi i m / N) exactly, with N = 2L + 1
    and w_m = (1/N) sum_{|n| <= L} n e^{-2 pi i m n / N}.  tau(0) must equal,
    entry for entry, the transpose of the lattice's one-site translation P,
    so P is its inverse and the generator is L/2 - Re(sum_m w_m tau_m) P.
    """
    if length < 2:
        raise ValueError("need at least two sites")
    codes = np.arange(3 ** length)
    shift = sp.csr_matrix((np.ones(len(codes)),
                           (translate_packed(codes, length), codes)))
    if (transfer_trace(length, 0.0) != shift.T).nnz:
        raise ValueError("tau(0) is not the one-site translation")
    n = np.arange(-length, length + 1)
    angles = 2.0 * np.pi * np.arange(1, length + 1) / len(n)
    half_dtau = sum(np.mean(n * np.exp(-1j * a * n))
                    * transfer_trace(length, 1j * a) for a in angles)
    return length / 2.0 * sp.identity(len(codes)) - half_dtau.real @ shift


def transfer_hamiltonian_check(length):
    """Max-norm discrepancy between the generator recovered from the
    transfer matrix and the lattice's totally asymmetric generator."""
    H = build_hamiltonian_tasep(length).to_csr()
    return {"length": length, "discrepancy": float(
        abs(hamiltonian_from_transfer(length) - H).max())}
