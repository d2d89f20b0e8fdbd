"""Finite-size scaling: local exponents and Bulirsch-Stoer extrapolation.

The gap closes as Re(E_1) = const / L^z; adjacent sizes give local exponents

    Log(DE(L) / DE(L+3)) / Log(L / (L+3))   ->   -z,

and the sequence of local exponents is accelerated with the Bulirsch-Stoer
tableau

    T[m, -1] = 0,     T[m, 0] = x_m,
    T[m, k+1] = T[m+1, k] + (T[m+1, k] - T[m, k]) *
        [ (L_m / L_{m+k+1})^(-omega) *
          (1 - (T[m+1, k] - T[m, k]) / (T[m+1, k] - T[m+1, k-1])) - 1 ]^(-1)

with correction exponent omega.  The Delta-correction denominator uses
T[m+1, k-1] (same column row below); this is the variant that is exact on
a + b / L^omega by the second column and reproduces the known -3/2 limit
from the ten-entry exponent table.  The pipeline's tableau is at omega = 1.
`bst_scan` picks omega by the smallest error estimate, a choice roundoff in
the gaps can flip; no pipeline step calls it.
"""

from dataclasses import dataclass, field

import numpy as np

from . import bethe

OMEGA_SCAN = (0.5, 1.0, 1.5, 2.0)  # for `bst_scan` alone (its docstring)


def local_exponent(series):
    """(L, extrapolant) for each adjacent pair of the (L, gap) pairs;
    values sit near -z.  Each is taken in extended precision, which keeps
    the digits of extended gaps, and rounded to a float."""
    out = []
    series = list(series)
    by_l = dict(series)
    for l, g in series:
        if l + 3 not in by_l:
            continue
        ratio = np.longdouble(g) / np.longdouble(by_l[l + 3])
        step = np.longdouble(l) / (l + 3)
        out.append((l, float(np.log(ratio) / np.log(step))))
    if not out:
        raise ValueError("series has no adjacent (L, L+3) pairs")
    return out


@dataclass
class BstTableau:
    omega: float
    table: list = field(repr=False)  # table[k] = column k, length n - k
    limit: float = np.nan
    error_estimate: float = np.nan
    truncated: bool = False


def bst_extrapolate(values, omega):
    """Bulirsch-Stoer tableau for a list of (L, value) pairs.

    Accepts two or more entries (the contract tolerances presume >= 4).
    Each column is computed as one numpy expression.  An entry passes
    T[m+1, k] through unchanged at a converged corner (|d| <= 1e-14 scale)
    or an infinite denominator (dd == 0).  A near-zero correction
    denominator anywhere else in a column truncates the tableau at the
    previous column and sets the `truncated` flag.
    """
    values = list(values)
    if len(values) < 2:
        raise ValueError("need at least two entries to extrapolate")
    if omega <= 0:
        raise ValueError("omega must be positive")
    sizes = [float(l) for l, _ in values]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    n = len(sizes)
    table = [np.array([float(v) for _, v in values])]
    below = np.zeros(n)
    truncated = False
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n - 1):
            prev = table[-1]
            d = prev[1:] - prev[:-1]
            dd = prev[1:] - below[1:len(prev)]
            mag = np.maximum(np.abs(prev), 1.0)
            scale = np.maximum(mag[1:], mag[:-1])
            keep = (np.abs(d) <= 1e-14 * scale) | (dd == 0.0)
            # scalar powers: numpy's array power can differ from libm's pow
            # in the last bit, and the tableau amplifies that difference
            ratio = np.array([(a / b) ** (-omega)
                              for a, b in zip(sizes, sizes[k + 1:])])
            den = ratio * (1.0 - d / dd) - 1.0
            if np.any(~keep & (np.abs(den) < 1e-14)):
                truncated = True
                break
            below = prev
            table.append(np.where(keep, prev[1:], prev[1:] + d / den))
    table = [col.tolist() for col in table]
    limit = table[-1][0]
    if len(table) >= 2:
        neighbor = table[-2][1] if len(table[-2]) > 1 else table[-2][0]
        error = 2.0 * abs(table[-1][0] - neighbor)
    else:
        error = np.inf
    return BstTableau(omega=omega, table=table, limit=limit,
                      error_estimate=error, truncated=truncated)


def bst_scan(values):
    """Tableau with the smallest error estimate over the omegas of
    `OMEGA_SCAN`; kept since the benchmark's `bethe_chain` check calls it
    and its tracer wraps it by name."""
    best = None
    for omega in OMEGA_SCAN:
        tab = bst_extrapolate(values, omega)
        if best is None or tab.error_estimate < best.error_estimate:
            best = tab
    return best


def run_scaling_study(l_min, l_max):
    """Full pipeline: Bethe gap chain, local exponents, BST extrapolation.

    `l_min` < `l_max` label the local exponents, so the gap chain extends to
    l_max + 3.  The tableau is at omega = 1: the local exponents approach
    -z with 1/L corrections.  Returns series (the (L, Re gap) pairs),
    extrapolants, tableau, z_estimate and error.
    """
    if l_min % 3 or l_max % 3 or not 6 <= l_min < l_max:
        raise ValueError("need multiples of 3 with 6 <= l_min < l_max")
    chain = bethe.solve_gap_chain(l_max + 3)
    series = [(l, bethe.energy_from_roots(chain[l]).real)
              for l in range(l_min, l_max + 4, 3)]
    extrapolants = local_exponent(series)
    tableau = bst_extrapolate(extrapolants, 1.0)
    return {
        "series": series,
        "extrapolants": extrapolants,
        "tableau": tableau,
        "z_estimate": -tableau.limit,
        "error": tableau.error_estimate,
    }
