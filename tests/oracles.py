"""Independent brute-force references used as oracles by the test suite.

Everything here is deliberately written against the process definition with
plain dict/itertools code, sharing nothing with the package's packed-integer
kernels, so the two routes check each other.
"""

import itertools

import mpmath as mp
import numpy as np
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment

from tasep2.bethe import _solve_gap_s
from tasep2.lattice import orbit_table

A, B, V = 0, 1, 2


def ring_states(length, n_a=None, n_b=None):
    """All configurations (optionally with fixed counts), ascending packed."""
    out = []
    for c in itertools.product((A, B, V), repeat=length):
        if n_a is not None and c.count(A) != n_a:
            continue
        if n_b is not None and c.count(B) != n_b:
            continue
        out.append(c)
    out.sort()  # lexicographic = ascending big-endian packed order
    return out


def moves(config):
    """(target, rate) pairs for unit right rate, zero left rate."""
    length = len(config)
    out = []
    for j in range(length):
        jn = (j + 1) % length
        g, d = config[j], config[jn]
        if g < d:
            t = list(config)
            t[j], t[jn] = d, g
            out.append((tuple(t), 1.0))
    return out


def generator_matrix(states, move_fn):
    """Dense column-convention generator over an explicit state list."""
    index = {c: i for i, c in enumerate(states)}
    mat = np.zeros((len(states), len(states)))
    for c, i in index.items():
        for target, rate in move_fn(c):
            mat[i, i] += rate
            mat[index[target], i] -= rate
    return mat


def sector_matrix(length, n_a, n_b):
    return generator_matrix(ring_states(length, n_a, n_b), moves)


def multiset_distance(a, b):
    """Largest |a_i - b_j| over the best pairing of every a_i with a distinct
    b_j (inf if a is longer): small iff a is, up to that distance, a
    sub-multiset of b, and equal to b as a multiset when the lengths agree."""
    a, b = np.asarray(a), np.asarray(b)
    if len(a) > len(b):
        return np.inf
    if len(a) == 0:
        return 0.0
    cost = np.abs(a[:, None] - b[None, :]).astype(float)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def bethe_residual_looped(Z, Y, length, I, J):
    """Log-form nested Bethe residual, one scalar logarithm at a time:

        F_k = L ln(Z_k/(Z_k-1)) - sum_{s != k} ln(Z_k/Z_s) - i pi (p-1)
              - sum_j ln(Y_j/(Y_j - Z_k)) - 2 pi i I_k,
        F_{p+j} = sum_k ln(Y_j/(Y_j - Z_k)) - sum_{n != j} ln(Y_j/Y_n)
                  - i pi (r-1) - 2 pi i J_j.
    """
    p, r = len(Z), len(Y)
    F = np.empty(p + r, dtype=complex)
    for k in range(p):
        s = (length * np.log(Z[k] / (Z[k] - 1.0))
             - 1j * np.pi * (p - 1) - 2j * np.pi * I[k])
        for l in range(p):
            if l != k:
                s -= np.log(Z[k] / Z[l])
        for j in range(r):
            s -= np.log(Y[j] / (Y[j] - Z[k]))
        F[k] = s
    for j in range(r):
        s = -1j * np.pi * (r - 1) - 2j * np.pi * J[j]
        for k in range(p):
            s += np.log(Y[j] / (Y[j] - Z[k]))
        for n in range(r):
            if n != j:
                s -= np.log(Y[j] / Y[n])
        F[p + j] = s
    return F


def offdiag_log_ratios(X):
    """Matrix ln(X_a / X_b) with a zero diagonal."""
    D = np.log(X[:, None] / X)
    D.ravel()[::len(X) + 1] = 0.0
    return D


def bethe_residual_matrix(Z, Y, length, K=None):
    """Log-form nested Bethe residual and its integers K = (I, J), with each
    log-ratio sum over s != k and n != j the row sum of the p x p (r x r)
    `offdiag_log_ratios` matrix, added in extended precision.  With K = None
    the integers are re-synced: K = round(Im F0 / 2 pi) for F0 at K = 0."""
    ext = np.clongdouble
    pi = 4 * np.arctan(np.longdouble(1))
    p, r = len(Z), len(Y)
    Ze = Z.astype(ext)
    F = (length * np.log(Ze / (Ze - 1))
         - offdiag_log_ratios(Z).sum(axis=1, dtype=ext))
    half_turns = p - 1
    if r:
        W = np.log(Y / (Y - Z[:, None]))
        F -= W.sum(axis=1, dtype=ext)
        F = np.concatenate((F, W.sum(axis=0, dtype=ext)
                            - offdiag_log_ratios(Y).sum(axis=1, dtype=ext)))
        half_turns = np.repeat((p - 1, r - 1), (p, r))
    if K is None:
        K = np.rint((F.imag / pi - half_turns) / 2).astype(int)
    F.imag -= pi * (half_turns + 2 * K)
    return F.astype(complex), K


def counting_values_looped(Z, length):
    """-i (ln(Z_j/(Z_j-1)) + sum_{l != j} ln(Z_l/Z_j) / L) for each root."""
    p = len(Z)
    out = np.empty(p, dtype=complex)
    for j in range(p):
        g = np.log(Z[j] / (Z[j] - 1.0))
        s = sum(np.log(Z[l] / Z[j]) for l in range(p) if l != j)
        out[j] = -1j * (g + s / length)
    return out


def counting_check(Z, length):
    """(nearest quantum number, |residual|) of L Y_L(Z_j) / 2 pi at each
    root; the numbers are integers for odd p and half-integers for even p."""
    half = (len(Z) - 1) % 2 / 2.0
    out = []
    for v in counting_values_looped(Z, length) * length / (2.0 * np.pi):
        n = round(v.real - half) + half
        out.append((n, abs(v - n)))
    return out


def gap_quantum_numbers(p):
    """Counting quantum numbers of the gap state: the symmetric consecutive
    block with the top entry pushed out by one."""
    return [j - (p - 1) / 2.0 + (j == p - 1) for j in range(p)]


def gap_branch_integers(p):
    """Branch integers I = quantum number - (p-1)/2 of the gap state."""
    return [int(n - (p - 1) / 2.0) for n in gap_quantum_numbers(p)]


def product_form_mismatch_looped(Z, Y, length):
    """Max scaled |LHS - RHS| of the exponentiated nested Bethe equations."""
    p, r = len(Z), len(Y)
    worst = 0.0
    for k in range(p):
        lhs = (Z[k] / (Z[k] - 1.0)) ** length
        rhs = np.prod([-Z[k] / Z[s] for s in range(p) if s != k] or [1.0])
        rhs *= np.prod([Y[j] / (Y[j] - Z[k]) for j in range(r)] or [1.0])
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    for j in range(r):
        lhs = np.prod([Y[j] / (Y[j] - Z[k]) for k in range(p)] or [1.0])
        rhs = np.prod([-Y[j] / Y[n] for n in range(r) if n != j] or [1.0])
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    return worst


def energy_raw(Z, length):
    """The paper's raw Bethe energy E_raw = L + sum_k 2 Z_k/(Z_k - 1)."""
    return length + sum(2.0 * z / (z - 1.0) for z in Z)


def energy_via_raw(Z, length):
    """Generator eigenvalue by the paper's route, -(E_raw - L - 2p)/2."""
    return -(energy_raw(Z, length) - length - 2 * len(Z)) / 2.0


def monodromy_blocks(t, length):
    """Dense monodromy blocks T[a, b] (each 3^L x 3^L) of the site vertex
    t[a, b][i, j], by the Kronecker recursion T <- T t: every new site
    enters as the most significant Kronecker factor, so the first site is
    the last of the ring and the final one, site 0, holds the most
    significant trit."""
    blocks = t.copy()
    for _ in range(length - 1):
        blocks = np.array([[sum(np.kron(t[c, b], blocks[a, c])
                                for c in range(3))
                            for b in range(3)] for a in range(3)])
    return blocks


def momentum_block_coo(gen, k):
    """Momentum block k of a sector generator with the orbit fold done by
    scipy's `coo_array` (`sum_duplicates`, then `eliminate_zeros`), on the
    orbit table of `tasep2.lattice`: a reference for the fold alone."""
    length, packs = gen.length, gen.packs
    rep, shift, period = orbit_table(length, packs)
    is_rep = rep == np.arange(len(packs))
    on_rep = is_rep[gen.cols]
    src, dst = gen.cols[on_rep], gen.rows[on_rep]
    vals = gen.vals[on_rep] * np.sqrt(period[src] / period[dst])
    keep = is_rep & ((k * period) % length == 0)
    rep_rows = np.flatnonzero(keep)
    index = np.full(len(packs), -1, dtype=np.int64)
    index[rep_rows] = np.arange(len(rep_rows))
    phases = np.array([np.exp(2j * np.pi * k / length) ** s
                       for s in range(length)])
    if 2 * k % length == 0:
        phases = phases.real.round()
    sel = keep[src] & keep[rep[dst]]
    coo = sp.coo_array((vals[sel] * phases[shift[dst][sel]],
                        (index[rep[dst][sel]], index[src[sel]])),
                       shape=(len(rep_rows), len(rep_rows)))
    coo.sum_duplicates()
    coo.eliminate_zeros()
    return coo.row, coo.col, coo.data


def _cubic_root_mp(s, c, tol):
    """Newton on s^2 (s - 1) = c from s until the step is below tol |s|."""
    for _ in range(100):
        ds = (s * s * (s - 1) - c) / (s * (3 * s - 2))
        s -= ds
        if abs(ds) <= tol * abs(s):
            return s
    raise ArithmeticError(f"cubic Newton did not converge at c = {c}")


def exact_mp(x):
    """The exact mpmath value of a float or long double, real or complex."""
    def part(v):
        num, den = v.as_integer_ratio()
        return mp.mpf(num) / den  # den is a power of two: exact at 128 bits

    with mp.workprec(128):
        if np.iscomplexobj(x):
            return mp.mpc(part(x.real), part(x.imag))
        return part(x)


def gap_energy_mp(length, dps=30):
    """Gap-state energy E = p - sum_k s_k to `dps` digits (an mpmath mpc).

    The labels are those of `tasep2.bethe._solve_gap_s`: the largest root of
    each cubic s^2 (s - 1) = beta exp(2 pi i m / p), m = j - (p-1)/2 for
    j = 0..p-2, then the middle root of cubic j = 0; each s_k starts from
    its double root there.  Newton in u = ln beta solves
    g(u) = p u + sum_k ln(s_k / (s_k - 1)) = 0 (mod 2 pi i), with
    g'(u) = p - sum_k 1/(3 s_k - 2), and every cubic is brought to working
    precision by its own Newton before each step in u.
    """
    p = length // 3
    (start,), _ = _solve_gap_s([length])
    with mp.workdps(dps + 10):
        tol = mp.mpf(10) ** -(dps + 5)
        phase = [mp.expjpi(mp.mpf(2 * j - p + 1) / p)
                 for j in [*range(p - 1), 0]]
        s = [mp.mpc(complex(x)) for x in start]
        u = mp.log(s[0] ** 2 * (s[0] - 1) / phase[0])
        for _ in range(50):
            beta = mp.exp(u)
            s = [_cubic_root_mp(x, beta * w, tol) for x, w in zip(s, phase)]
            g = p * u + mp.fsum(mp.log(x / (x - 1)) for x in s)
            turns = mp.nint(g.imag / (2 * mp.pi))
            du = (g - 2j * mp.pi * turns) / (
                p - mp.fsum(1 / (3 * x - 2) for x in s))
            u -= du
            if abs(du) <= tol:
                energy = p - mp.fsum(s)
                with mp.workdps(dps):
                    return +energy
    raise ArithmeticError(f"L={length}: no convergence in ln beta")
