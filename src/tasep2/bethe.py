"""Nested Bethe equations of the ring process and their Newton solver.

Unknowns are the transformed roots Z_k = exp(2 lambda_k) (first level,
k = 1..p) and Y_j = exp(2 Lambda_j) (second level, j = 1..r).  The coupled
product-form equations

    (Z_k/(Z_k-1))^L = prod_{s != k} (-Z_k/Z_s) * prod_j Y_j/(Y_j - Z_k)
    prod_k Y_j/(Y_j - Z_k) = prod_{n != j} (-Y_j/Y_n)

are solved in logarithmic form with explicit branch integers,

    L ln(Z_k/(Z_k-1)) - sum_{s != k} ln(Z_k/Z_s) - i pi (p-1)
        - sum_j ln(Y_j/(Y_j - Z_k)) - 2 pi i I_k = 0,

and the analogous second line with integers J_j.  Newton iteration uses the
analytic Jacobian; for curve continuation the integers are re-synced to the
principal logarithms at each iterate (the exponentiated system is invariant
under that bookkeeping, which removes branch-cut stalls).

A sector-reduced excitation energy e = E_raw - L - 2p with
E_raw = L + sum_k 2 Z_k/(Z_k - 1) maps onto generator eigenvalues through an
affine calibration; empirically E_gen = -e/2 (sign -1, scale 1/2, offset 0),
verified against exact diagonalization at L = 6 and 9.
"""

import json
from dataclasses import dataclass

import numpy as np

from .lattice import Sector, build_hamiltonian_tasep
from .spectra import dense_spectrum

SOLVER_TOL = 1e-13
MULTISTART_RADII = (0.5, 1.0, 2.0)


class BetheError(RuntimeError):
    """A root system failed to solve; `chain` holds the gap-branch root sets
    that converged before the failure when raised by `solve_gap_chain`."""

    chain = None


class SingularRootError(BetheError):
    """A root hit a pole of the equations (Z=0, Z=1, collision, Y=Z)."""


class NewtonDivergenceError(BetheError):
    pass


# ---------------------------------------------------------------------------
# root-set container

@dataclass
class BetheRootSet:
    length: int
    p: int
    r: int
    lam: np.ndarray
    Lam: np.ndarray
    branch_integers: np.ndarray
    second_integers: np.ndarray
    residual_norm: float = np.nan

    @property
    def z(self):
        return np.exp(self.lam)

    @property
    def big_z(self):
        return np.exp(2.0 * self.lam)

    @property
    def y(self):
        return np.exp(self.Lam)

    @property
    def big_y(self):
        return np.exp(2.0 * self.Lam)

    @classmethod
    def from_big_z(cls, length, big_z, big_y, branch_integers,
                   second_integers=None, residual_norm=np.nan):
        big_z = np.asarray(big_z, dtype=complex)
        big_y = np.asarray(big_y, dtype=complex)
        order = np.argsort(np.angle(big_z))
        big_z = big_z[order]
        I = np.asarray(branch_integers, dtype=int)[order]
        J = (np.zeros(0, dtype=int) if second_integers is None
             else np.asarray(second_integers, dtype=int))
        return cls(
            length=length, p=len(big_z), r=len(big_y),
            lam=0.5 * np.log(big_z), Lam=0.5 * np.log(big_y),
            branch_integers=I, second_integers=J,
            residual_norm=residual_norm,
        )

    def to_json_dict(self):
        e = energy_raw(self)
        return {
            "L": self.length, "p": self.p, "r": self.r,
            "I": [int(i) for i in self.branch_integers],
            "J": [int(j) for j in self.second_integers],
            "lambda": [[x.real, x.imag] for x in self.lam],
            "Lambda": [[x.real, x.imag] for x in self.Lam],
            "energy_raw": [e.real, e.imag],
            "residual_norm": self.residual_norm,
        }

    @classmethod
    def from_json_dict(cls, d):
        lam = np.array([complex(a, b) for a, b in d["lambda"]], dtype=complex)
        Lam = np.array([complex(a, b) for a, b in d["Lambda"]], dtype=complex)
        return cls(
            length=d["L"], p=d["p"], r=d["r"], lam=lam, Lam=Lam,
            branch_integers=np.asarray(d["I"], dtype=int),
            second_integers=np.asarray(d["J"], dtype=int),
            residual_norm=d.get("residual_norm", np.nan),
        )

    def write_json(self, stream):
        json.dump(self.to_json_dict(), stream, indent=2)
        stream.write("\n")

    def write_curve_csv(self, stream, plane="big_z"):
        """`re,im` per line for the requested root plane (big_z or lambda)."""
        roots = self.big_z if plane == "big_z" else self.lam
        for x in roots:
            stream.write(f"{x.real:.17g},{x.imag:.17g}\n")


# ---------------------------------------------------------------------------
# residuals

def _check_args(Z, Y):
    if len(Z) == 0:
        return
    if np.min(np.abs(Z)) < 1e-14:
        raise SingularRootError("a first-level root hit Z = 0")
    if np.min(np.abs(Z - 1.0)) < 1e-14:
        k = int(np.argmin(np.abs(Z - 1.0)))
        raise SingularRootError(f"root Z_{k} hit the pole Z = 1")
    if len(Z) > 1:
        diff = np.abs(Z[:, None] - Z[None, :]) + np.eye(len(Z))
        if diff.min() < 1e-14:
            a, b = np.unravel_index(np.argmin(diff), diff.shape)
            raise SingularRootError(f"coinciding roots Z_{a} = Z_{b}")
    if len(Y) and len(Z):
        if np.min(np.abs(Y[:, None] - Z[None, :])) < 1e-14:
            raise SingularRootError("second-level root collided with Z")
    if len(Y) > 1:
        diff = np.abs(Y[:, None] - Y[None, :]) + np.eye(len(Y))
        if diff.min() < 1e-14:
            raise SingularRootError("coinciding second-level roots")


def _residual(Z, Y, length, I, J):
    p, r = len(Z), len(Y)
    _check_args(Z, Y)
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


def _jacobian(Z, Y, length):
    p, r = len(Z), len(Y)
    J = np.zeros((p + r, p + r), dtype=complex)
    for k in range(p):
        J[k, k] = -length / (Z[k] * (Z[k] - 1.0)) - (p - 1) / Z[k]
        for l in range(p):
            if l != k:
                J[k, l] = 1.0 / Z[l]
        for j in range(r):
            J[k, k] -= 1.0 / (Y[j] - Z[k])
            J[k, p + j] = -(1.0 / Y[j] - 1.0 / (Y[j] - Z[k]))
    for j in range(r):
        J[p + j, p + j] -= (r - 1) / Y[j]
        for k in range(p):
            J[p + j, p + j] += 1.0 / Y[j] - 1.0 / (Y[j] - Z[k])
            J[p + j, k] = 1.0 / (Y[j] - Z[k])
        for n in range(r):
            if n != j:
                J[p + j, p + n] = 1.0 / Y[n]
    return J


def bethe_residual(roots):
    """Log-form residual vector (p + r entries) at the stored roots."""
    return _residual(roots.big_z, roots.big_y, roots.length,
                     roots.branch_integers, roots.second_integers)


def product_form_mismatch(roots):
    """Max |LHS - RHS| of the exponentiated (product-form) equations."""
    Z, Y, L = roots.big_z, roots.big_y, roots.length
    p, r = len(Z), len(Y)
    worst = 0.0
    for k in range(p):
        lhs = (Z[k] / (Z[k] - 1.0)) ** L
        rhs = np.prod([-Z[k] / Z[s] for s in range(p) if s != k] or [1.0])
        rhs *= np.prod([Y[j] / (Y[j] - Z[k]) for j in range(r)] or [1.0])
        scale = max(abs(lhs), abs(rhs), 1.0)
        worst = max(worst, abs(lhs - rhs) / scale)
    for j in range(r):
        lhs = np.prod([Y[j] / (Y[j] - Z[k]) for k in range(p)] or [1.0])
        rhs = np.prod([-Y[j] / Y[n] for n in range(r) if n != j] or [1.0])
        scale = max(abs(lhs), abs(rhs), 1.0)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


# ---------------------------------------------------------------------------
# Newton solvers

def _newton_fixed(Z0, Y0, length, I, J, tol=SOLVER_TOL, max_iter=200):
    """Damped Newton with fixed branch integers.  Returns (Z, Y) or raises."""
    Z = np.array(Z0, dtype=complex)
    Y = np.array(Y0, dtype=complex)
    for _ in range(max_iter):
        F = _residual(Z, Y, length, I, J)
        nrm = np.max(np.abs(F))
        if nrm <= tol:
            return Z, Y
        try:
            step = np.linalg.solve(_jacobian(Z, Y, length), -F)
        except np.linalg.LinAlgError as exc:
            raise NewtonDivergenceError(f"singular Jacobian: {exc}") from exc
        lam = 1.0
        for _ in range(30):
            Zn = Z + lam * step[:len(Z)]
            Yn = Y + lam * step[len(Z):]
            try:
                Fn = _residual(Zn, Yn, length, I, J)
            except SingularRootError:
                lam *= 0.5
                continue
            if np.max(np.abs(Fn)) < nrm:
                Z, Y = Zn, Yn
                break
            lam *= 0.5
        else:
            raise NewtonDivergenceError(
                f"line search stalled at residual {nrm:.3e}"
            )
    raise NewtonDivergenceError("iteration budget exhausted")


def _resync_integers(Z, Y, length):
    """Integers making the principal-log residual nearest to zero."""
    p, r = len(Z), len(Y)
    F = _residual(Z, Y, length, np.zeros(p, int), np.zeros(r, int))
    return (np.round((F[:p] / (2j * np.pi)).real).astype(int),
            np.round((F[p:] / (2j * np.pi)).real).astype(int))


def _newton_adaptive(Z0, length, tol=SOLVER_TOL, max_iter=300):
    """Branch-adaptive Newton (first level only): integers re-synced each
    step so the iteration can cross logarithm cuts without stalling."""
    Z = np.array(Z0, dtype=complex)
    Y = np.zeros(0, dtype=complex)
    Jv = np.zeros(0, dtype=int)
    for _ in range(max_iter):
        I, _ = _resync_integers(Z, Y, length)
        F = _residual(Z, Y, length, I, Jv)
        nrm = np.max(np.abs(F))
        if nrm <= tol:
            return Z, I
        try:
            step = np.linalg.solve(_jacobian(Z, Y, length), -F)
        except np.linalg.LinAlgError as exc:
            raise NewtonDivergenceError(f"singular Jacobian: {exc}") from exc
        lam, accepted = 1.0, False
        for _ in range(40):
            Zn = Z + lam * step
            try:
                In, _ = _resync_integers(Zn, Y, length)
                Fn = _residual(Zn, Y, length, In, Jv)
            except SingularRootError:
                lam *= 0.5
                continue
            if np.max(np.abs(Fn)) < nrm:
                Z, accepted = Zn, True
                break
            lam *= 0.5
        if not accepted:
            Z = Z + step  # full step to hop off a cut ledge
    I, _ = _resync_integers(Z, Y, length)
    if np.max(np.abs(_residual(Z, Y, length, I, Jv))) <= tol:
        return Z, I
    raise NewtonDivergenceError("adaptive iteration budget exhausted")


def _multistart_seeds(p, r, seed):
    rng = np.random.default_rng(seed)
    seeds = []
    for rad in MULTISTART_RADII:
        for m in range(6):
            args = 2.0 * np.pi * (np.arange(p) + 0.3 * m + 0.15) / max(p, 1)
            Z0 = rad * np.exp(1j * args) * (1.0 + 0.05 * rng.standard_normal(p))
            Y0 = (2.5 * rad * np.exp(2j * np.pi * (np.arange(r) + 0.4) / max(r, 1))
                  * (1.0 + 0.05 * rng.standard_normal(r)) if r else
                  np.zeros(0, complex))
            seeds.append((Z0, Y0))
    return seeds


def solve_bethe(length, p, r=0, branch_integers=None, second_integers=None,
                seed_roots=None, seed=0, tol=SOLVER_TOL):
    """Solve the nested system for given branch integers.

    Deterministic in (branch_integers, seed).  Without seed_roots a seeded
    multistart over circles of radius 0.5, 1, 2 is used (small systems).
    """
    if p < 1:
        raise ValueError("need at least one first-level root")
    if branch_integers is None:
        raise ValueError("branch integers are required")
    I = np.asarray(branch_integers, dtype=int)
    J = np.asarray(second_integers if second_integers is not None else [],
                   dtype=int)
    if len(I) != p or len(J) != r:
        raise ValueError("integer vectors must match root counts")
    attempts = []
    if seed_roots is not None:
        attempts.append((np.asarray(seed_roots.big_z, dtype=complex),
                         np.asarray(seed_roots.big_y, dtype=complex)))
    else:
        if length > 9 and p > 3:
            raise ValueError("multistart bootstrap is limited to small systems;"
                             " provide seed_roots")
        attempts.extend(_multistart_seeds(p, r, seed))
    last_exc = None
    for Z0, Y0 in attempts:
        try:
            Z, Y = _newton_fixed(Z0, Y0, length, I, J, tol=tol)
        except BetheError as exc:
            last_exc = exc
            continue
        if len(Z) > 1:
            sep = np.abs(Z[:, None] - Z[None, :]) + np.eye(len(Z))
            if sep.min() < 1e-8 * max(1.0, float(np.max(np.abs(Z)))):
                last_exc = SingularRootError(
                    "converged to coinciding roots (vanishing state)")
                continue
        res = np.max(np.abs(_residual(Z, Y, length, I, J)))
        return BetheRootSet.from_big_z(length, Z, Y, I, J, residual_norm=res)
    raise NewtonDivergenceError(
        f"no converged solution for L={length}, p={p}, r={r}, I={I.tolist()}"
        f" (last failure: {last_exc})"
    )


# ---------------------------------------------------------------------------
# energies

def energy_raw(roots):
    """E_raw = L + sum_k 2 Z_k / (Z_k - 1)."""
    Z = roots.big_z
    if len(Z) == 0:
        return complex(roots.length)
    if np.min(np.abs(Z - 1.0)) < 1e-14:
        raise SingularRootError("Z = 1 pole in the energy sum")
    return roots.length + np.sum(2.0 * Z / (Z - 1.0))


@dataclass(frozen=True)
class EnergyMap:
    """Affine map from reduced Bethe energies to generator eigenvalues.

    E_gen = sign * scale * (E_raw - L - 2p) + offset.  The reduction by the
    sector constant L + 2p makes the calibrated (sign, scale, offset)
    independent of the system size.
    """

    sign: int
    scale: float
    offset: complex
    calibrated_at: int

    def apply(self, roots):
        reduced = energy_raw(roots) - roots.length - 2.0 * roots.p
        return self.sign * self.scale * reduced + self.offset


DEFAULT_ENERGY_MAP = EnergyMap(sign=-1, scale=0.5, offset=0.0, calibrated_at=6)


def energy_from_roots(roots, energy_map=DEFAULT_ENERGY_MAP):
    """Generator eigenvalue of a converged root set."""
    return energy_map.apply(roots)


def _candidate_integer_pairs(window):
    out = []
    for a in range(-window, window + 1):
        for b in range(a + 1, window + 1):
            out.append((a, b))
    return out


def calibrate_energy_map(length, match_tol=1e-9, window=3, seed=0):
    """Fix (sign, scale, offset) by matching Bethe states to exact spectra.

    Solves the p = length/3, r = 0 system over a window of integer pairs plus
    the trivial p = 0 state, then tests the finite menu sign in {+1, -1},
    scale in {1, 1/2} against the equal-density sector spectrum.  Exactly one
    assignment may survive; anything else raises.
    """
    if length not in (6, 9):
        raise ValueError("calibration needs length 6 or 9 (dense spectra)")
    p = length // 3
    sector = Sector(length, length // 3, length // 3)
    spec = dense_spectrum(build_hamiltonian_tasep(length, sector))
    evs = spec.eigenvalues

    reduced = [complex(0.0)]  # p = 0 reference state, e = E_raw - L - 0 = 0
    states = 0
    if p == 2:
        pairs = _candidate_integer_pairs(window)
    else:
        pairs = [(-2, -1, 1), (-3, -1, 0), (-2, 0, 1), (-1, 0, 1)]
    for I in pairs:
        if len(I) != p:
            continue
        try:
            roots = solve_bethe(length, p, 0, branch_integers=I, seed=seed)
        except BetheError:
            continue
        e = energy_raw(roots) - length - 2.0 * p
        if all(abs(e - x) > 1e-8 for x in reduced):
            reduced.append(e)
            states += 1
    if states < 2:
        raise BetheError("calibration found fewer than two Bethe states")

    survivors = []
    for sign in (+1, -1):
        for scale in (1.0, 0.5):
            # offset from the p = 0 state (steady state, eigenvalue 0)
            offset = 0.0
            mapped = [sign * scale * e + offset for e in reduced]
            if all(np.min(np.abs(evs - m)) <= match_tol for m in mapped):
                survivors.append(EnergyMap(sign, scale, offset, length))
    if not survivors:
        raise BetheError("no (sign, scale, offset) maps Bethe energies onto "
                         "the exact spectrum")
    if len(survivors) > 1:
        raise BetheError(f"ambiguous calibration: {survivors}")
    return survivors[0]


# ---------------------------------------------------------------------------
# counting function

def counting_values(roots):
    """Y_L(Z_j) at the roots, from the consistent kernel K(z_l, z) = ln(z_l/z).

    The kernel printed with the counting function has the reciprocal
    argument; only this orientation makes Y_L real at solutions (the other
    picks up Re ln|Z_j/(Z_j-1)| twice).
    """
    Z, L = roots.big_z, roots.length
    p = len(Z)
    out = np.empty(p, dtype=complex)
    for j in range(p):
        g = np.log(Z[j] / (Z[j] - 1.0))
        s = sum(np.log(Z[l] / Z[j]) for l in range(p) if l != j)
        out[j] = -1j * (g + s / L)
    return out


def counting_check(roots, tol=1e-10):
    """Quantized counting-function values at the roots.

    Returns a list of (j, nearest_quantum_number, residual); quantum numbers
    are integers for odd p and half-integers for even p.  Residuals above
    `tol` flag a branch-cut crossing.  For each entry the nearest value is
    exact up to per-root integer branch shifts of the principal-log sum
    (those leave the residual near zero but can break monotonicity at large
    p).
    """
    vals = counting_values(roots) * roots.length / (2.0 * np.pi)
    half = (roots.p - 1) % 2
    out = []
    for j, v in enumerate(vals):
        scaled = v.real - half / 2.0
        nearest = np.round(scaled) + half / 2.0
        resid = abs(v - nearest)
        out.append((j, float(nearest), float(resid)))
    return out


# ---------------------------------------------------------------------------
# gap-state chain: quantum numbers, seeding, continuation

def gap_quantum_numbers(p):
    """Counting quantum numbers of the slowest excitation: the symmetric
    consecutive block with the top entry pushed out by one."""
    numbers = np.arange(p) - (p - 1) / 2.0
    numbers[-1] += 1.0
    return numbers


def gap_branch_integers(p):
    I = gap_quantum_numbers(p) - (p - 1) / 2.0
    return np.round(I).astype(int)


def _order_curve(Z):
    """Roots ordered along the curve: descending angle of lambda = Log(Z)/2."""
    lam = 0.5 * np.log(Z)
    return Z[np.argsort(-np.angle(lam))]


def _interp_curve(x, lam, xq):
    def one(ys):
        out = np.interp(xq, x, ys)
        deg = min(2, len(x) - 1)
        lo = xq < x[0]
        out[lo] = np.polyval(np.polyfit(x[:deg + 1], ys[:deg + 1], deg), xq[lo])
        hi = xq > x[-1]
        out[hi] = np.polyval(np.polyfit(x[-deg - 1:], ys[-deg - 1:], deg), xq[hi])
        return out
    return one(lam.real) + 1j * one(lam.imag)


def _curve_seed(roots, target_length, earlier=None):
    """Interpolate the lambda curve over scaled quantum numbers; one extra
    root at the target size, Richardson-corrected in 1/L when an earlier
    curve is available."""
    p = roots.p
    p_new = p + 1
    xq = gap_quantum_numbers(p_new) / target_length

    def curve(rs):
        Zs = _order_curve(rs.big_z)
        lam = 0.5 * np.log(Zs)
        x = gap_quantum_numbers(rs.p) / rs.length
        return x, lam

    xA, lamA = curve(roots)
    sA = _interp_curve(xA, lamA, xq)
    if earlier is not None and earlier.p >= 2:
        xB, lamB = curve(earlier)
        sB = _interp_curve(xB, lamB, xq)
        c = ((1.0 / target_length - 1.0 / roots.length)
             / (1.0 / roots.length - 1.0 / earlier.length))
        return np.exp(2.0 * (sA + c * (sA - sB)))
    return np.exp(2.0 * sA)


def _extrapolant_between(e_old, e_new, l_old, l_new):
    return np.log(e_old.real / e_new.real) / np.log(l_old / l_new)


def _solve_adaptive_checked(seed_z, target_length, prev_energy, prev_length,
                            tol=SOLVER_TOL):
    Z, I = _newton_adaptive(seed_z, target_length, tol=tol)
    rs = BetheRootSet.from_big_z(
        target_length, Z, np.zeros(0, complex), I,
        residual_norm=float(np.max(np.abs(_residual(
            Z, np.zeros(0, complex), target_length, I, np.zeros(0, int))))),
    )
    e_new = energy_from_roots(rs)
    if e_new.real <= 0:
        raise NewtonDivergenceError("continued state has nonpositive gap")
    ext = _extrapolant_between(prev_energy, e_new, prev_length, target_length)
    if not -1.9 < ext < -1.3:
        raise NewtonDivergenceError(
            f"continued state off the gap branch (local exponent {ext:.3f})"
        )
    return rs


def continue_in_L(roots, target_length, earlier=None, tol=SOLVER_TOL):
    """One continuation step L -> L+3 along the gap branch (p -> p+1).

    Seeds the larger system from the interpolated root curve and verifies
    the continued state by its local gap exponent.  Falls back to a homotopy
    in the (real-valued) size parameter when the direct solve strays.
    """
    if target_length != roots.length + 3:
        raise ValueError("continuation proceeds in steps of 3")
    prev_e = energy_from_roots(roots)
    try:
        seed = _curve_seed(roots, target_length, earlier)
        return _solve_adaptive_checked(seed, target_length, prev_e,
                                       roots.length, tol=tol)
    except BetheError:
        pass
    try:
        seed = _curve_seed(roots, target_length, None)
        return _solve_adaptive_checked(seed, target_length, prev_e,
                                       roots.length, tol=tol)
    except BetheError:
        pass
    # homotopy: walk the size parameter in unit steps at fixed root count
    z = _curve_seed(roots, target_length - 2, earlier)
    for l_real in (target_length - 2, target_length - 1, target_length):
        z, _ = _newton_adaptive(z, l_real, tol=tol)
    rs = _solve_adaptive_checked(z, target_length, prev_e, roots.length,
                                 tol=tol)
    return rs


def solve_gap_chain(max_length, seed=0, tol=SOLVER_TOL):
    """Gap-branch root sets for every L in 6, 9, ..., max_length.

    A failing step raises its `BetheError` with the converged prefix
    attached as `exc.chain`.
    """
    if max_length < 6 or max_length % 3:
        raise ValueError("max_length must be a multiple of 3, at least 6")
    chain = {}
    try:
        chain[6] = solve_bethe(6, 2, 0, branch_integers=gap_branch_integers(2),
                               seed=seed, tol=tol)
        earlier = None
        length = 6
        while length < max_length:
            nxt = continue_in_L(chain[length], length + 3, earlier=earlier,
                                tol=tol)
            earlier = chain[length]
            length += 3
            chain[length] = nxt
    except BetheError as exc:
        exc.chain = chain
        raise
    return chain


def solve_gap_state(length, seed=0, tol=SOLVER_TOL):
    """Root set of the slowest relaxation mode in the equal-density sector."""
    return solve_gap_chain(length, seed=seed, tol=tol)[length]
