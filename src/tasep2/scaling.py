"""Finite-size scaling: local exponents and Bulirsch-Stoer extrapolation.

The gap closes as Re(E_1) = const / L^z; adjacent sizes give local exponents

    Log(DE(L) / DE(L+3)) / Log(L / (L+3))   ->   -z,

and the sequence of local exponents is accelerated with the Bulirsch-Stoer
tableau

    T[m, -1] = 0,     T[m, 0] = x_m,
    T[m, k+1] = T[m+1, k] + (T[m+1, k] - T[m, k]) *
        [ (L_m / L_{m+k+1})^(-omega) *
          (1 - (T[m+1, k] - T[m, k]) / (T[m+1, k] - T[m+1, k-1])) - 1 ]^(-1)

with free exponent parameter omega.  The Delta-correction denominator uses
T[m+1, k-1] (same column row below); this is the variant that is exact on
a + b / L^omega by the second column and reproduces the known -3/2 limit
from the ten-entry exponent table.
"""

from dataclasses import dataclass, field

import numpy as np

from . import bethe

OMEGA_SCAN = (0.5, 1.0, 1.5, 2.0)


@dataclass
class GapSeries:
    """Ordered (L, Re gap) pairs for the first excited state."""

    entries: list

    def __post_init__(self):
        ls = [l for l, _ in self.entries]
        gaps = [g for _, g in self.entries]
        if any(l % 3 for l in ls):
            raise ValueError("sizes must be multiples of 3")
        if any(b <= a for a, b in zip(ls, ls[1:])):
            raise ValueError("sizes must be strictly increasing")
        if any(g <= 0 for g in gaps):
            raise ValueError("gaps must be positive")
        if any(b >= a for a, b in zip(gaps, gaps[1:])):
            raise ValueError("gaps must decrease with size")

    def write_csv(self, stream):
        stream.write("L,gap_re\n")
        for l, g in self.entries:
            stream.write(f"{l},{g:.17g}\n")


def local_exponent(series):
    """(L, extrapolant) for each adjacent pair; values sit near -z."""
    out = []
    entries = series.entries if isinstance(series, GapSeries) else list(series)
    by_l = dict(entries)
    for l, g in entries:
        if l + 3 not in by_l:
            continue
        out.append((l, np.log(g / by_l[l + 3]) / np.log(l / (l + 3.0))))
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
    Near-zero correction denominators truncate the tableau at the previous
    column and set the `truncated` flag.
    """
    values = list(values)
    if len(values) < 2:
        raise ValueError("need at least two entries to extrapolate")
    if omega <= 0:
        raise ValueError("omega must be positive")
    sizes = np.array([float(l) for l, _ in values])
    if np.any(sizes[1:] <= sizes[:-1]):
        raise ValueError("sizes must be strictly increasing")
    col0 = [float(v) for _, v in values]
    n = len(col0)
    table = [col0]
    prev_minus1 = [0.0] * (n + 1)
    truncated = False
    for k in range(n - 1):
        prev = table[-1]
        below = table[-2] if len(table) >= 2 else prev_minus1
        col = []
        for m in range(len(prev) - 1):
            d = prev[m + 1] - prev[m]
            dd = prev[m + 1] - below[m + 1]
            scale = max(abs(prev[m + 1]), abs(prev[m]), 1.0)
            if abs(d) <= 1e-14 * scale:
                col.append(prev[m + 1])     # converged corner: pass through
                continue
            if dd == 0.0:
                col.append(prev[m + 1])     # infinite denominator: no change
                continue
            ratio = (sizes[m] / sizes[m + k + 1]) ** (-omega)
            den = ratio * (1.0 - d / dd) - 1.0
            if abs(den) < 1e-14:
                truncated = True
                break
            col.append(prev[m + 1] + d / den)
        else:
            table.append(col)
            continue
        break
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
    `OMEGA_SCAN`."""
    best = None
    for omega in OMEGA_SCAN:
        tab = bst_extrapolate(values, omega)
        if best is None or tab.error_estimate < best.error_estimate:
            best = tab
    return best


def run_scaling_study(l_min=6, l_max=33, omega=None):
    """Full pipeline: Bethe gap chain, local exponents, BST extrapolation.

    `l_min`..`l_max` label the local exponents, so the gap chain extends to
    l_max + 3.  With omega None the scan picks the tableau with the smallest
    error estimate.  Returns series, extrapolants, tableau, z_estimate and
    error.
    """
    if l_min % 3 or l_max % 3 or not 6 <= l_min <= l_max:
        raise ValueError("need multiples of 3 with 6 <= l_min <= l_max")
    chain = bethe.solve_gap_chain(l_max + 3)
    series = GapSeries([(l, bethe.energy_from_roots(chain[l]).real)
                        for l in range(l_min, l_max + 4, 3)])
    extrapolants = local_exponent(series)
    tableau = (bst_scan(extrapolants) if omega is None
               else bst_extrapolate(extrapolants, omega))
    return {
        "series": series,
        "extrapolants": extrapolants,
        "tableau": tableau,
        "z_estimate": -tableau.limit,
        "error": tableau.error_estimate,
    }
