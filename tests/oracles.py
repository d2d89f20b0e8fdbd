"""Independent brute-force references used as oracles by the test suite.

Everything here is deliberately written against the process definition with
plain dict/itertools code, sharing nothing with the package's packed-integer
kernels, so the two routes check each other.
"""

import itertools

import numpy as np
from scipy.optimize import linear_sum_assignment

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
    cost = np.abs(a[:, None] - b[None, :])
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


def counting_values_looped(Z, length):
    """-i (ln(Z_j/(Z_j-1)) + sum_{l != j} ln(Z_l/Z_j) / L) for each root."""
    p = len(Z)
    out = np.empty(p, dtype=complex)
    for j in range(p):
        g = np.log(Z[j] / (Z[j] - 1.0))
        s = sum(np.log(Z[l] / Z[j]) for l in range(p) if l != j)
        out[j] = -1j * (g + s / length)
    return out


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
