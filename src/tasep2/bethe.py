"""Nested Bethe equations of the ring process and their Newton solver.

Unknowns are the transformed roots Z_k = exp(2 lambda_k) (first level,
k = 1..p) and Y_j = exp(2 Lambda_j) (second level, j = 1..r).  The coupled
product-form equations

    (Z_k/(Z_k-1))^L = prod_{s != k} (-Z_k/Z_s) * prod_j Y_j/(Y_j - Z_k)
    prod_k Y_j/(Y_j - Z_k) = prod_{n != j} (-Y_j/Y_n)

are solved in logarithmic form with explicit branch integers,

    L ln(Z_k/(Z_k-1)) - sum_{s != k} ln(Z_k/Z_s) - i pi (p-1)
        - sum_j ln(Y_j/(Y_j - Z_k)) - 2 pi i I_k = 0,

and the analogous second line with integers J_j.  One damped Newton core
(`_newton`) with the analytic Jacobian solves every system with fixed
integers; given none, it takes them from the principal logarithms at its
start point: one principal-log residual F0 gives I = round(Im F0 / 2 pi).

An A particle treats B particles and vacancies alike (A0 -> 0A, AB -> BA),
so the A positions alone form a one-species TASEP; AB -> BA leaves the
occupancy unchanged, so the occupied sites (A or B) form one too.  Both are
exact lumpings (the projection property; Ferrari & Martin, Ann. Probab. 35,
807 (2007)): every eigenvalue of the sectors (L, L/3, 0) and (L, 2L/3, 0)
is one of (L, L/3, L/3).  Their Bethe states are the r = 0 states, whose
equations are those of the one-species TASEP; the gap state is one of them.
At L = 6 they are the C(6, 2) = 15 states labelled by the pairs of distinct
integers from {-3..2}.

The gap state (n_A = n_B = L/3, p = L/3, r = 0) has no second-level roots,
so with s = Z/(Z-1) every root solves a cubic that shares one complex scalar
beta with all the others (Gwa & Spohn, PRA 46, 844 (1992); Golinelli &
Mallick, J. Phys. A 37, 3321 (2004)):

    s^2 (s - 1) = beta exp(2 pi i m / p),     beta^p prod_k Z_k = 1.

With the half-integer labels m = j - (p-1)/2, j = 0..p-2, the gap state
takes the largest-modulus root of each cubic and the middle-modulus root of
cubic j = 0.  Every size is independent: one vectorized Newton in ln beta,
one beta per size, solves the sizes of a chain in blocks of consecutive
sizes with at most GAP_BLOCK_ROOTS roots, from beta = 4/27 (its large-L
limit, where cubic j = 0 reaches its branch point), so the batch's working
set does not grow with the chain; `continue_in_L` solves L and L + 3 the
same way.  The double iteration stops at |du| <= 1e-7, and one step in
extended precision ends it: two cubic Newton steps, one ln beta step and a
last cubic step.  The roots keep Z = s/(s - 1) in extended precision, so
the energy sums them at that precision.  No `_newton` runs: one residual
call per block gives each size its branch integers (from the principal
logarithms) and its residual, which must be below the roundoff floor
eps * (L + p) * max(max|ln s|, 2 max|ln|Z|| + pi) of its log sums (O(p));
to L = 1,203 it is at most 4e-16.  A gap state must have Re gap > 0, and each
size of a chain a local gap exponent in (-1.9, -1.3) against the size
before it.

The residual is O(p log p).  A Newton step is O(p) for r = 0, where the
Jacobian is a diagonal plus a rank-one term (Sherman-Morrison), and an LU
solve of the dense (p + r)^2 Jacobian for r > 0.  With principal logs,
theta = Arg X in (-pi, pi],

    sum_{l != k} Ln(X_k/X_l) = p Ln X_k - sum_l Ln X_l - 2 pi i (n+_k - n-_k),

n+_k and n-_k counting the l with theta_k - theta_l > pi and <= -pi (one
`searchsorted` on the sorted angles).  Rows add terms up to ~L before they
cancel, so the logs and row sums are carried in extended precision where the
platform has it.  A Newton solve converges at a max-norm residual <=
SOLVER_TOL = 1e-13, and a line search that cannot lower the residual fails
it.

The one pole rule: a root on a pole (Z = 0, Z = 1, Y = 0 or Y_j = Z_k) makes
a residual row infinite or NaN, and the residual raises `SingularRootError`.
Coinciding roots leave it finite; `solve_bethe` rejects them after a solve.

The generator eigenvalue of any root set is E_gen = p - sum_k Z_k/(Z_k - 1)
= -sum_k 1/(Z_k - 1) (`energy_from_roots`), summed in the second form, which
has no p to cancel, in extended precision and returned at that precision; at
the gap state it is p - sum_k s_k.  In the paper's variables
E_raw = L + sum_k 2 Z_k/(Z_k - 1), it is E_gen = -e/2 with e = E_raw - L - 2p.
`calibrate_energy_map` re-derives that map, (sign, scale, offset) =
(-1, 1/2, 0), from exact spectra at L = 6 and 9.
"""

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .lattice import Sector, build_hamiltonian_tasep
from .spectra import dense_spectrum

SOLVER_TOL = 1e-13
MULTISTART_RADII = (0.5, 1.0, 2.0)

logger = logging.getLogger(__name__)


class BetheError(RuntimeError):
    """A root system failed to solve; `chain` holds the gap-branch root sets
    that converged before the failure when raised by `solve_gap_chain`."""

    chain = None


class SingularRootError(BetheError):
    """A residual row is not finite: a root on a pole (module docstring)."""


class NewtonDivergenceError(BetheError):
    pass


# ---------------------------------------------------------------------------
# root-set container

@dataclass
class BetheRootSet:
    """A solved root set, Z and Y as the solver returned them (sorted by
    Arg Z); the gap state's Z are extended precision (`_EXT`)."""

    length: int
    big_z: np.ndarray
    big_y: np.ndarray
    branch_integers: np.ndarray
    second_integers: np.ndarray
    residual_norm: float = np.nan

    @property
    def p(self):
        return len(self.big_z)

    @property
    def r(self):
        return len(self.big_y)

    @classmethod
    def from_big_z(cls, length, big_z, big_y, branch_integers,
                   second_integers, residual_norm):
        order = np.argsort(np.angle(big_z))
        return cls(length, big_z[order], big_y, branch_integers[order],
                   second_integers, residual_norm)


# ---------------------------------------------------------------------------
# residuals

_EXT = np.clongdouble  # x87 long double on x86; see the module docstring
_PI_EXT = 4 * np.arctan(np.longdouble(1))
_MINUS_PLUS_PI = np.array([[-_PI_EXT], [_PI_EXT]])


def _log_ratio_row_sums(X, sizes):
    """sum_{l != k} Ln(X_k / X_l) for every k in extended precision, by the
    sorted-angle identity of the module docstring; the angles are those of
    the extended-precision logs, so wrap counts and logs agree.  With
    `sizes` not None, X holds sizes[i] consecutive roots of the i-th of
    several systems and l runs over the system of k: the angles are sorted
    as complex keys (system, angle), so each system counts only its own."""
    log_x = np.log(X.astype(_EXT))
    key, shift = log_x.imag, _MINUS_PLUS_PI
    if sizes is None:
        p, first, total = len(X), 0, log_x.sum()
    else:
        own = np.repeat(np.arange(len(sizes)), sizes)
        starts = np.cumsum(sizes) - sizes
        p, first = sizes[own], starts[own]
        total = np.add.reduceat(log_x, starts)[own]
        key, shift = own + 1j * key, 1j * shift
    at = np.searchsorted(np.sort(key), key + shift)  # n+, p - n-
    sums = p * log_x - total
    sums.imag -= 2 * _PI_EXT * (at[0] + at[1] - 2 * first - p)
    return sums


def _log_residual(Z, Y, length, K=None):
    """Log-form residual and its branch integers K = (I, J).

    With K = None the integers are re-synced to the principal logarithms:
    K = round(Im F0 / 2 pi) for the residual F0 taken with K = 0.  The
    log-ratio sums are `_log_ratio_row_sums`; the p x r terms
    ln(Y_j / (Y_j - Z_k)) are summed in extended precision.  A row that is
    not finite raises `SingularRootError`, before any re-sync.
    """
    return _log_residuals(Z, Y, length, None, K)


def _log_residuals(Z, Y, length, sizes, K):
    """`_log_residual`; with `sizes` not None (and no Y), that of several
    r = 0 systems at once: Z holds sizes[i] roots of length[i] for the
    i-th, one system after another, and each row is that of its own."""
    p, r = len(Z), len(Y)
    half_turns = p - 1  # the -i pi (p - 1) of a first-level row
    if sizes is not None:
        length = np.repeat(length, sizes)
        half_turns = np.repeat(sizes - 1, sizes)
    with np.errstate(divide="ignore", invalid="ignore"):
        Ze = Z.astype(_EXT)
        F = length * np.log(Ze / (Ze - 1)) - _log_ratio_row_sums(Z, sizes)
        if r:
            W = np.log(Y / (Y - Z[:, None]))  # W[k, j] = ln(Y_j/(Y_j - Z_k))
            F -= W.sum(axis=1, dtype=_EXT)
            F = np.concatenate((F, W.sum(axis=0, dtype=_EXT)
                                - _log_ratio_row_sums(Y, None)))
            half_turns = np.repeat((p - 1, r - 1), (p, r))
    bad = np.flatnonzero(~np.isfinite(F))
    if len(bad):
        row = f"Z_{bad[0]}" if bad[0] < p else f"Y_{bad[0] - p}"
        raise SingularRootError(f"residual row {row} is not finite: a root "
                                "on a pole")
    if K is None:
        K = np.rint((F.imag / _PI_EXT - half_turns) / 2).astype(int)
    F.imag -= _PI_EXT * (half_turns + 2 * K)
    return F.astype(complex), K


def _jacobian(Z, Y, length):
    p, r = len(Z), len(Y)
    Jm = np.empty((p + r, p + r), dtype=complex)
    inv_z = 1.0 / Z
    Jm[:p, :p] = inv_z  # dF_k/dZ_l = 1/Z_l off the diagonal
    diag = -length / (Z * (Z - 1.0)) - (p - 1) * inv_z
    if r:
        inv_y = 1.0 / Y
        G = 1.0 / (Y - Z[:, None])  # G[k, j] = 1/(Y_j - Z_k)
        diag -= G.sum(axis=1)
        Jm[:p, p:] = G - inv_y
        Jm[p:, :p] = G.T
        Jm[p:, p:] = inv_y
        np.fill_diagonal(Jm[p:, p:], (p - r + 1) * inv_y - G.sum(axis=0))
    np.fill_diagonal(Jm[:p, :p], diag)
    return Jm


def _newton_step(Z, Y, length, F):
    """The Newton step -J^-1 F.  For r = 0, J = diag(d) + 1 (1/Z)^T with
    d = -L/(Z (Z - 1)) - p/Z, solved by Sherman-Morrison in O(p); a zero
    entry of d, or a denominator 1 + (1/Z) . d^-1 that is zero or not
    finite, is a singular Jacobian.  For r > 0, LU on `_jacobian`."""
    if len(Y):
        try:
            return np.linalg.solve(_jacobian(Z, Y, length), -F)
        except np.linalg.LinAlgError as exc:
            raise NewtonDivergenceError(f"singular Jacobian: {exc}") from exc
    with np.errstate(all="ignore"):  # the guard below reports a singularity
        inv_z = 1.0 / Z
        d = -length / (Z * (Z - 1.0)) - len(Z) * inv_z
        w = 1.0 / d
        denom = 1.0 + inv_z @ w
        if not d.all() or denom == 0 or not np.isfinite(denom):
            raise NewtonDivergenceError("singular Jacobian: a zero of d or "
                                        f"a denominator {denom}")
        step = -F / d
        return step - w * ((inv_z @ step) / denom)


def bethe_residual(roots):
    """Log-form residual vector (p + r entries) at the stored roots."""
    K = np.concatenate((roots.branch_integers, roots.second_integers))
    return _log_residual(roots.big_z, roots.big_y, roots.length, K)[0]


# ---------------------------------------------------------------------------
# Newton solver

def _newton(Z0, Y0, length, K=None):
    """Damped Newton on the log-form system; the one solver of this module.

    The branch integers K = (I, J) stay fixed; with K = None they are taken
    from the principal logarithms at the start point (see `_log_residual`).

    Newton steps (`_newton_step`: O(p) for r = 0, LU for r > 0) run while
    the max-norm residual is above SOLVER_TOL, at most 200 of them, each
    halved up to 9 times until the residual falls.  A singular Jacobian, or
    a line search that cannot lower the residual, raises
    `NewtonDivergenceError`.  A converged solve logs L, p, its Newton
    steps, their line-search halvings and the final residual at DEBUG.
    Returns (Z, Y, K, residual_norm) or raises a `BetheError`.
    """
    Z, Y = np.array(Z0, dtype=complex), np.array(Y0, dtype=complex)
    p = len(Z)
    F, K = _log_residual(Z, Y, length, K)
    nrm = float(np.abs(F).max())
    steps = halvings = 0
    while nrm > SOLVER_TOL:
        if steps == 200:
            raise NewtonDivergenceError(
                f"iteration budget exhausted at residual {nrm:.3e}")
        step = _newton_step(Z, Y, length, F)
        for t in range(10):
            lam = 0.5 ** t
            Zn, Yn = Z + lam * step[:p], Y + lam * step[p:]
            try:
                Fn = _log_residual(Zn, Yn, length, K)[0]
            except SingularRootError:
                continue
            nrm_n = float(np.abs(Fn).max())
            if nrm_n < nrm:
                Z, Y, F, nrm = Zn, Yn, Fn, nrm_n
                steps, halvings = steps + 1, halvings + t
                break
        else:
            raise NewtonDivergenceError(
                f"line search stalled at residual {nrm:.3e}")
    logger.debug("L=%s, p=%d: Newton solve in %d steps, %d halvings, "
                 "residual %.3e", length, p, steps, halvings, nrm)
    return Z, Y, K, nrm


def _multistart_seeds(p, r, seed):
    rng = np.random.default_rng(seed)
    seeds = []
    for rad in MULTISTART_RADII:
        for m in range(6):
            args = 2.0 * np.pi * (np.arange(p) + 0.3 * m + 0.15) / p
            Z0 = rad * np.exp(1j * args) * (1.0 + 0.05 * rng.standard_normal(p))
            Y0 = (2.5 * rad * np.exp(2j * np.pi * (np.arange(r) + 0.4) / r)
                  * (1.0 + 0.05 * rng.standard_normal(r)) if r else
                  np.zeros(0, complex))
            seeds.append((Z0, Y0))
    return seeds


def solve_bethe(length, *, branch_integers, second_integers=None,
                seed_roots=None, seed=0):
    """Solve the nested system for given branch integers; the root counts
    p and r are the lengths of the integer vectors.

    Deterministic in (branch_integers, seed).  Without seed_roots a seeded
    multistart over circles of radius 0.5, 1, 2 is used (small systems).
    """
    I = np.asarray(branch_integers, dtype=int)
    J = np.asarray(() if second_integers is None else second_integers, int)
    p, r, K = len(I), len(J), np.concatenate((I, J))
    if p < 1:
        raise ValueError("need at least one first-level root")
    if seed_roots is not None:
        if (seed_roots.p, seed_roots.r) != (p, r):
            raise ValueError(
                f"seed roots have (p, r) = ({seed_roots.p}, {seed_roots.r}),"
                f" the integers ask for ({p}, {r})")
        attempts = [(seed_roots.big_z, seed_roots.big_y)]
    else:
        if length > 9 and p > 3:
            raise ValueError("multistart bootstrap is limited to small systems;"
                             " provide seed_roots")
        attempts = _multistart_seeds(p, r, seed)
    last_exc = None
    for Z0, Y0 in attempts:
        try:
            Z, Y, _, res = _newton(Z0, Y0, length, K)
        except BetheError as exc:
            last_exc = exc
            continue
        if len(Z) > 1:
            sep = np.abs(Z[:, None] - Z[None, :]) + np.eye(len(Z))
            if sep.min() < 1e-8 * max(1.0, float(np.max(np.abs(Z)))):
                last_exc = SingularRootError(
                    "converged to coinciding roots (vanishing state)")
                continue
        return BetheRootSet.from_big_z(length, Z, Y, I, J, residual_norm=res)
    raise NewtonDivergenceError(
        f"no converged solution for L={length}, p={p}, r={r}, I={I.tolist()}"
        f" (last failure: {last_exc})"
    )


# ---------------------------------------------------------------------------
# energies

def energy_from_roots(roots):
    """Generator eigenvalue E_gen = -sum_k 1/(Z_k - 1) of a root set, summed
    in extended precision and returned as an `_EXT` scalar, so a gap keeps
    the digits of extended roots (module docstring)."""
    z_minus_one = roots.big_z - _EXT(1)
    if (abs(z_minus_one.astype(complex)) < 1e-14).any():
        raise SingularRootError("Z = 1 pole in the energy sum")
    return -(1 / z_minus_one).sum()


@dataclass(frozen=True)
class EnergyMap:
    """Affine map E_gen = sign * scale * e + offset from the reduced Bethe
    energy e = E_raw - L - 2p, with E_raw = L + sum_k 2 Z_k/(Z_k - 1)."""

    sign: int
    scale: float
    offset: complex


def calibrate_energy_map(length, seed=0):
    """Fix (sign, scale, offset) by matching Bethe states to exact spectra.

    Solves the p = length/3, r = 0 system for a set of branch integers plus
    the trivial p = 0 state, takes each reduced energy e = E_raw - L - 2p =
    -2 `energy_from_roots`, then tests the finite menu sign in {+1, -1},
    scale in {1, 1/2} against the equal-density sector spectrum.  Exactly one
    assignment may survive; anything else raises.  At L = 6 the integer
    pairs drawn from {-3..2} label the 15 r = 0 states (module docstring).
    """
    if length not in (6, 9):
        raise ValueError("calibration needs length 6 or 9 (dense spectra)")
    p = length // 3
    evs = dense_spectrum(
        build_hamiltonian_tasep(length, Sector(length, p, p))).eigenvalues

    reduced = [complex(0.0)]  # p = 0 reference state, e = E_raw - L - 0 = 0
    if p == 2:
        pairs = itertools.combinations(range(-3, 3), 2)
    else:
        pairs = [(-2, -1, 1), (-3, -1, 0), (-2, 0, 1), (-1, 0, 1)]
    for I in pairs:
        try:
            roots = solve_bethe(length, branch_integers=I, seed=seed)
        except BetheError:
            continue
        e = -2.0 * energy_from_roots(roots)
        if all(abs(e - x) > 1e-8 for x in reduced):
            reduced.append(e)
    if len(reduced) < 3:
        raise BetheError("calibration found fewer than two Bethe states")

    survivors = []
    for sign in (+1, -1):
        for scale in (1.0, 0.5):
            # offset 0 from the p = 0 state (steady state, eigenvalue 0)
            mapped = [sign * scale * e for e in reduced]
            if all(np.min(np.abs(evs - m)) <= 1e-9 for m in mapped):
                survivors.append(EnergyMap(sign, scale, 0.0))
    if not survivors:
        raise BetheError("no (sign, scale, offset) maps Bethe energies onto "
                         "the exact spectrum")
    if len(survivors) > 1:
        raise BetheError(f"ambiguous calibration: {survivors}")
    return survivors[0]


# ---------------------------------------------------------------------------
# gap state: the one-scalar cubic reduction

GAP_BETA_SEED = 4.0 / 27.0  # beta's large-L limit
# Cubic roots per batched ln beta solve of a chain.  It bounds the batch's
# working set, and keeps its arrays under the 256 KiB from which numpy
# reuses temporaries in place (an in-place complex product can round
# differently), so each size gets the roots of its one-size solve.
GAP_BLOCK_ROOTS = 2048
_CUBE_UNITY = np.exp(2j * np.pi / 3.0 * np.arange(3))[:, None]


def _cubic_step(s, c):
    """One Newton step on each cubic s^2 (s - 1) = c, in the precision of s."""
    return s - (s * s * (s - 1.0) - c) / (s * (3.0 * s - 2.0))


def _gap_s(c, middle):
    """s = Z/(Z-1) solving s^2 (s - 1) = c for every entry of c: the
    largest-modulus root, or where `middle` is true the middle-modulus one.

    All cubics are solved at once by Cardano's formula: s = t + 1/3 gives
    t^3 - t/3 - (2/27 + c) = 0, whose roots are t = w u + 1/(9 w u) over the
    cube roots of unity w, with u^3 = 1/27 + c/2 +- sqrt(c (4 + 27 c) / 108).
    The sign that gives the larger |u^3| avoids cancellation.
    """
    half_q = 1.0 / 27.0 + 0.5 * c
    root_disc = np.sqrt(c * (4.0 + 27.0 * c) / 108.0)
    plus, minus = half_q + root_disc, half_q - root_disc
    cube = np.where(np.abs(plus) >= np.abs(minus), plus, minus)
    # the principal cube root in polar form; complex ** costs three times as
    # much, and the Newton step below takes either to roundoff
    u = np.cbrt(np.abs(cube)) * np.exp(1j / 3.0 * np.angle(cube)) * _CUBE_UNITY
    s = u + 1.0 / (9.0 * u) + 1.0 / 3.0  # s[w, n]: the three roots of cubic n
    modulus = np.abs(s)
    pick = modulus.argmax(axis=0)
    mid = np.flatnonzero(middle)
    pick[mid] = 3 - pick[mid] - modulus[:, mid].argmin(axis=0)
    s = np.take_along_axis(s, pick[None], axis=0)[0]
    # one Newton step on each cubic takes the closed-form error to roundoff
    return _cubic_step(s, c)


def _ln_beta_step(u, s, p, starts):
    """Newton step du = g / g' of each size, in the precision of u and s,
    over the p roots from `starts`: g'(u) = p - sum_k 1/(3 s_k - 2), and
    g(u) = Ln prod_k beta Z_k, the principal log of beta^p prod_k Z_k, as
    sum_k ln|beta Z_k| plus i times the angle of the product of the unit
    phases.  A sum p u + sum_k ln Z_k would carry Im g ~ 2 pi n, whose
    rounding is ~n eps, and a plain product over- or underflows at large p.
    """
    t = np.repeat(np.exp(u), p) * s / (s - 1.0)  # beta Z_k
    r = np.abs(t)
    g = (np.add.reduceat(np.log(r), starts)
         + 1j * np.angle(np.multiply.reduceat(t / r, starts)))
    return g / (p - np.add.reduceat(1.0 / (3.0 * s - 2.0), starts))


def _solve_gap_s(lengths):
    """The s_k of the gap state at every size in `lengths` at once, in
    extended precision, by Newton in u = ln beta, one u per size, from
    beta = GAP_BETA_SEED.

    Size L has p = L/3 roots: the largest-modulus root of each cubic
    j = 0..p-2, s^2 (s - 1) = beta exp(2 pi i m / p) with the half-integer
    label m = j - (p-1)/2, then the middle-modulus root of cubic j = 0.  The
    roots of the given sizes are solved in one `_gap_s` call per iteration,
    so the working set grows with their root count sum L/3 (`_gap_blocks`
    passes at most GAP_BLOCK_ROOTS, or one size).  They solve every
    equation once beta^p prod_k Z_k = 1, i.e. g(u) = 0 (`_ln_beta_step`).
    The double iteration freezes a size, and its roots at the u before the
    last step, once |du| <= 1e-7 (after four steps to L = 90,000; from
    L = 27,000 a third |du| falls below 1e-6, which left the extended |du|
    at 2.7e-10).  Then one step in `_EXT` finishes every size: two cubic
    Newton steps at its u, one ln beta step and one last cubic step.  The
    double iterations and the |du| of the extended step are logged at
    DEBUG, with L, after one DEBUG record of the first and last L and the
    root count.  Returns the s of each size (`_EXT`) and that |du|, which
    is above 1e-12 where the iteration did not converge.
    """
    p = np.asarray(lengths) // 3
    starts = np.cumsum(p) - p
    size = np.repeat(np.arange(len(p)), p)  # the size of each root
    j = np.arange(len(size)) - starts[size]
    logger.debug("L=%s..%s: one block of %d cubic roots", lengths[0],
                 lengths[-1], len(size))
    middle = j == p[size] - 1  # the last root of a size: cubic j = 0 again
    j[middle] = 0
    # the phase exp(i pi t / p), t = 2m, as -exp(i pi (t -+ p) / p) where
    # |t| > p/2 (an angle of at most pi/2 rounds less), from cos + i sin
    # (a complex exp is slower) of each size's pi k / p, k = 0..p/2, taken
    # once and read at k = |t| (cos is even and sin odd, bit for bit)
    turns = 2 * j - p[size] + 1
    flip = 2 * np.abs(turns) > p[size]
    turns -= np.sign(turns) * p[size] * flip
    half = p // 2 + 1
    first = np.cumsum(half) - half
    angle = _PI_EXT * (np.arange(half.sum()) - np.repeat(first, half))
    angle /= np.repeat(p, half)
    at = first[size] + np.abs(turns)
    phase = np.empty(len(size), _EXT)
    phase.real = np.cos(angle)[at]
    phase.imag = np.sin(angle)[at] * np.sign(turns)
    phase[flip] *= -1
    phase_double = phase.astype(complex)
    u = np.full(len(p), np.log(complex(GAP_BETA_SEED)))
    s = np.zeros(len(size), complex)
    iterations = np.zeros(len(p), dtype=int)  # 0 until the size is frozen
    for it in range(1, 51):
        running = iterations == 0
        s = np.where(running[size],
                     _gap_s(np.exp(u)[size] * phase_double, middle), s)
        du = _ln_beta_step(u, s, p, starts)
        u[running] -= du[running]
        iterations[running & (np.abs(du) <= 1e-7)] = it
        if iterations.all():
            break
    u, s = u.astype(_EXT), s.astype(_EXT)
    c = np.exp(u)[size] * phase
    s = _cubic_step(_cubic_step(s, c), c)
    du = _ln_beta_step(u, s, p, starts)
    s = _cubic_step(s, np.exp(u - du)[size] * phase)
    step = np.abs(du).astype(float)
    for length, n, last in zip(lengths, iterations, step):
        if n:
            logger.debug("L=%s: ln beta in %d double iterations, extended "
                         "|du| %.3e", length, n, last)
    return [s[a:a + n] for a, n in zip(starts, p)], step


def _gap_blocks(lengths):
    """Gap-state root sets at the increasing `lengths`, in order.

    Consecutive sizes holding at most GAP_BLOCK_ROOTS roots (or a single
    size) form a block, solved only when the caller reaches it by one
    `_solve_gap_s` call and one `_log_residuals` call over its sizes: Z =
    s/(s - 1) stays `_EXT`, and I and the residual come from that call.  A
    size raises `NewtonDivergenceError` when its extended ln beta step is
    above 1e-12, or its residual above the roundoff floor of its log sums,
    eps (L + p) max(max|ln s|, 2 max|ln|Z|| + pi).
    """
    block = []
    for length in lengths:
        if block and (sum(block) + length) // 3 > GAP_BLOCK_ROOTS:
            yield from _gap_block(block)
            block = []
        block.append(length)
    if block:
        yield from _gap_block(block)


def _gap_block(lengths):
    """The root sets of one block of `_gap_blocks`, in order."""
    s, step = _solve_gap_s(lengths)
    failed = next((i for i, x in enumerate(step) if not x <= 1e-12), None)
    solved = np.asarray(lengths[:failed])  # the sizes before a failure
    if len(solved):
        p = solved // 3
        starts = np.cumsum(p) - p
        s = np.concatenate(s[:len(solved)])
        Z = s / (s - 1)
        F, I = _log_residuals(Z, Z[:0], solved, p, None)
        residual = np.maximum.reduceat(np.abs(F), starts)
        z = Z.astype(complex)
        terms = np.maximum(np.abs(np.log(s.astype(complex))),
                           2 * np.abs(np.log(np.abs(z))) + np.pi)
        floor = (np.finfo(float).eps * (solved + p)
                 * np.maximum.reduceat(terms, starts))
        # each size's roots in Arg Z order (double angles: the roots differ)
        order = np.lexsort((np.angle(z), np.repeat(np.arange(len(p)), p)))
        for length, a, b, res, low in zip(solved.tolist(), starts, starts + p,
                                          residual.tolist(), floor.tolist()):
            if not res <= low:
                raise NewtonDivergenceError(
                    f"L={length}: residual {res:.3e} above its roundoff "
                    f"floor {low:.3e}")
            own = order[a:b]
            yield BetheRootSet(length, Z[own], np.zeros(0, complex), I[own],
                               np.zeros(0, int), res)
    if failed is not None:
        raise NewtonDivergenceError(
            f"L={lengths[failed]}: no convergence in ln beta "
            f"(last step {step[failed]:.3e})")


def _gap_chain(lengths):
    """Gap-state root sets at the increasing `lengths` from the scalar seed
    GAP_BETA_SEED, as `_gap_blocks` solves them.

    Each state must have Re gap > 0 and, from the second size on, a local
    gap exponent in (-1.9, -1.3) against the size before it.  A failing
    size raises its `BetheError` with the root sets of the smaller sizes
    attached as `exc.chain`, and no later block is solved.
    """
    chain, prev = {}, None
    try:
        for roots in _gap_blocks(lengths):
            length, gap = roots.length, energy_from_roots(roots).real
            if gap <= 0:
                raise NewtonDivergenceError(
                    f"L={length}: state has nonpositive gap")
            if prev is not None:
                ext = np.log(prev[1] / gap) / np.log(prev[0] / length)
                if not -1.9 < ext < -1.3:
                    raise NewtonDivergenceError(
                        f"L={length}: continued state off the gap branch "
                        f"(local exponent {ext:.3f})")
            chain[length], prev = roots, (length, gap)
    except BetheError as exc:
        exc.chain = chain
        raise
    return chain


def continue_in_L(roots):
    """One step L -> L+3 along the gap branch (p -> p+1), read from the
    length L of `roots` alone: `_gap_chain` solves L and L+3, so the result
    is `solve_gap_state(L + 3)` bit for bit, its local gap exponent checked
    against the gap state of L.  Public only for the `bethe.step` span of
    the benchmark's tracer.
    """
    length = roots.length
    return _gap_chain([length, length + 3])[length + 3]


def solve_gap_chain(max_length):
    """Gap-branch root sets for every L in 6, 9, ..., max_length, all
    seeded from beta = 4/27 (see `_gap_chain`).

    A failing size raises its `BetheError` with the converged prefix
    attached as `exc.chain`.
    """
    if max_length < 6 or max_length % 3:
        raise ValueError("max_length must be a multiple of 3, at least 6")
    return _gap_chain(range(6, max_length + 1, 3))


def solve_gap_state(length):
    """Root set of the slowest relaxation mode in the equal-density sector,
    solved directly from the branch-point seed beta = 4/27."""
    if length < 6 or length % 3:
        raise ValueError("length must be a multiple of 3, at least 6")
    return _gap_chain([length])[length]
