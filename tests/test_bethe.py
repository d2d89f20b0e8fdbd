"""Root solver against the exact-diagonalization oracle and its own
product-form identities."""

import json
import logging
import warnings
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from tasep2 import (
    BetheError,
    BetheRootSet,
    Sector,
    bethe_residual,
    build_hamiltonian_tasep,
    calibrate_energy_map,
    continue_in_L,
    dense_spectrum,
    energy_from_roots,
    krylov_gap,
    project_momentum,
    solve_bethe,
    solve_gap_state,
)
from tasep2 import bethe, cli
from tasep2.bethe import (
    SOLVER_TOL,
    NewtonDivergenceError,
    SingularRootError,
    _gap_s,
    _jacobian,
    _log_residual,
    _newton,
    _newton_step,
    solve_gap_chain,
)

import oracles

GAP_L6 = 0.5264385166464931 + 0.4447718087620659j
GAP_L9 = 0.2714371365594346 + 0.2823612149372689j
GAP_L12_RE = 0.170064984267566


@pytest.fixture(scope="module")
def gap6():
    return solve_bethe(6, branch_integers=oracles.gap_branch_integers(2))


@pytest.fixture(scope="module")
def gap_chain_360():
    return solve_gap_chain(360)


@pytest.fixture(scope="module")
def gap_chain_603():
    return solve_gap_chain(603)


def _generic_point(p, r, seed):
    """p first-level and r second-level roots, and integers, off any
    solution."""
    rng = np.random.default_rng(seed)
    Z = 1.5 * np.exp(2j * np.pi * (np.arange(p) + rng.random(p)) / p)
    Y = 3.0 * np.exp(2j * np.pi * (np.arange(r) + rng.random(r)) / r)
    return Z, Y, rng.integers(-2, 3, p), rng.integers(-1, 2, r)


def test_empty_residual_for_no_roots():
    roots = BetheRootSet(length=6, big_z=np.zeros(0, complex),
                         big_y=np.zeros(0, complex),
                         branch_integers=np.zeros(0, int),
                         second_integers=np.zeros(0, int))
    assert len(bethe_residual(roots)) == 0
    assert cli._roots_payload(roots)["energy_raw"] == [6.0, 0.0]
    assert energy_from_roots(roots) == 0.0


def test_gap_state_l6(gap6):
    assert gap6.residual_norm <= 1e-13
    e = energy_from_roots(gap6)
    assert e.real == pytest.approx(GAP_L6.real, abs=1e-9)
    assert abs(e.imag) == pytest.approx(GAP_L6.imag, abs=1e-9)


def test_product_form_identity(gap6):
    assert oracles.product_form_mismatch_looped(gap6.big_z, gap6.big_y,
                                                6) <= 1e-12


def test_residual_perturbation_window(gap6):
    rng = np.random.default_rng(3)
    Z = gap6.big_z + 1e-4 * np.exp(2j * np.pi * rng.random(2))
    F = _log_residual(Z, np.zeros(0, complex), 6, gap6.branch_integers)[0]
    assert 1e-6 < np.max(np.abs(F)) < 1e-2


def test_singularity_reported():
    roots = BetheRootSet(length=6, big_z=np.array([1.0, np.exp(0.6 + 0.4j)]),
                         big_y=np.zeros(0, complex),
                         branch_integers=np.array([-1, 1]),
                         second_integers=np.zeros(0, int))
    with pytest.raises(SingularRootError, match="Z_0"):
        bethe_residual(roots)


@pytest.mark.parametrize("z, y, row", [
    ([0.0, np.exp(0.6 + 0.4j)], [], "Z_0"),        # Z_0 = 0
    ([np.exp(0.6 + 0.4j), 1.0], [], "Z_1"),        # Z_1 = 1
    ([1.5j, -1.5, 0.5 - 1j], [-1.5], "Z_1"),       # Y_0 = Z_1
    ([1.5j, -1.5, 0.5 - 1j], [2.0, 0.0], "Z_0"),   # Y_1 = 0
])
def test_pole_raises_without_warnings(z, y, row):
    """A root on a pole gives a residual row that is not finite, which
    raises `SingularRootError` naming it; no RuntimeWarning escapes."""
    roots = BetheRootSet(length=9, big_z=np.array(z, complex),
                         big_y=np.array(y, complex),
                         branch_integers=np.zeros(len(z), int),
                         second_integers=np.zeros(len(y), int))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularRootError, match=f"row {row} "):
            bethe_residual(roots)
        with pytest.raises(SingularRootError, match=f"row {row} "):
            _log_residual(roots.big_z, roots.big_y, 9)  # integer re-sync


def test_solver_determinism():
    a = solve_bethe(6, branch_integers=(-1, 1), seed=12)
    b = solve_bethe(6, branch_integers=(-1, 1), seed=12)
    np.testing.assert_array_equal(a.big_z, b.big_z)


def test_resolve_from_own_output_is_fixed_point(gap6):
    again = solve_bethe(6, branch_integers=gap6.branch_integers,
                        seed_roots=gap6)
    assert np.max(np.abs(again.big_z - gap6.big_z)) <= 1e-13


def test_newton_basin_100_perturbations(gap6):
    rng = np.random.default_rng(77)
    for _ in range(100):
        noisy = BetheRootSet.from_big_z(
            6,
            gap6.big_z * (1.0 + 1e-3 * (rng.standard_normal(2)
                                        + 1j * rng.standard_normal(2))),
            np.zeros(0, complex), gap6.branch_integers, np.zeros(0, int),
            np.nan)
        back = solve_bethe(6, branch_integers=gap6.branch_integers,
                           seed_roots=noisy)
        assert np.max(np.abs(np.sort_complex(back.big_z)
                             - np.sort_complex(gap6.big_z))) <= 1e-10


def test_steady_state_is_regular_bethe_state():
    roots = solve_bethe(6, branch_integers=(-1, 0))
    assert abs(oracles.energy_raw(roots.big_z, 6) - 10.0) <= 1e-12  # L + 2p
    assert abs(energy_from_roots(roots)) <= 1e-12


def test_energy_matches_paper_raw_route(gap_chain_360):
    """-sum 1/(Z-1) equals -(E_raw - L - 2p)/2 at the same roots, along
    the gap chain and on a p = 2, r = 1 state, whose energy is the
    eigenvalue (5 - sqrt 5)/2 of the L = 6 sector (n_A, n_B) = (4, 1)."""
    for length, roots in gap_chain_360.items():
        want = oracles.energy_via_raw(roots.big_z, length)
        assert abs(energy_from_roots(roots) - want) <= 1e-13, length
    roots = solve_bethe(6, branch_integers=(-2, 1), second_integers=(0,),
                        seed=1)
    e = energy_from_roots(roots)
    assert abs(e - oracles.energy_via_raw(roots.big_z, 6)) <= 1e-13
    assert abs(e - (5.0 - np.sqrt(5.0)) / 2.0) <= 1e-12


def test_energy_is_the_exact_sum_of_its_roots():
    """-sum 1/(Z-1) summed in extended precision is the exact rational sum
    over the same Z to 1e-14, relative, where p - sum Z/(Z-1) in double lost
    7.8e-13 (L = 99) to 6.6e-11 (L = 600) of Re E to cancellation."""
    for length in (99, 300, 450, 600):
        roots = solve_gap_state(length)
        re, im = Fraction(0), Fraction(0)
        for z in roots.big_z:
            x = Fraction(*z.real.as_integer_ratio()) - 1
            y = Fraction(*z.imag.as_integer_ratio())
            re, im = re - x / (x * x + y * y), im + y / (x * x + y * y)
        exact = complex(float(re), float(im))
        e = energy_from_roots(roots)
        assert abs(e.real - exact.real) <= 1e-14 * abs(exact.real), length
        assert abs(e - exact) <= 1e-14 * abs(exact), length


def test_root_set_keeps_solver_roots(monkeypatch):
    """The stored Z are the solver's own, bit for bit, in Arg order: those
    of the Newton solve, and at the gap state Z = s/(s - 1) of the extended
    stage's roots, kept in extended precision."""
    real_newton, real_gap, returned = bethe._newton, bethe._solve_gap_s, []

    def recorded(*args, **kwargs):
        out = real_newton(*args, **kwargs)
        returned.append(out[0])
        return out

    def recorded_gap(lengths):
        out = real_gap(lengths)
        s = out[0][0]
        returned.append(s / (s - 1))
        return out

    monkeypatch.setattr(bethe, "_newton", recorded)
    monkeypatch.setattr(bethe, "_solve_gap_s", recorded_gap)
    for solve in (lambda: solve_bethe(6, branch_integers=(-1, 1)),
                  lambda: solve_gap_state(99)):
        roots = solve()
        Z = returned[-1]
        np.testing.assert_array_equal(roots.big_z, Z[np.argsort(np.angle(Z))])
    assert roots.big_z.dtype == np.clongdouble


def test_calibration_consistent_across_sizes():
    m6 = calibrate_energy_map(6)
    m9 = calibrate_energy_map(9)
    assert (m6.sign, m6.scale, m6.offset) == (m9.sign, m9.scale, m9.offset)
    assert (m6.sign, m6.scale, m6.offset) == (-1, 0.5, 0.0)


def test_calibration_solves_only_the_fifteen_l6_states(monkeypatch):
    """At L = 6 the r = 0 states are the C(6, 2) = 15 states of the lumped
    one-species TASEP; calibration solves exactly those and none fails."""
    real = bethe.solve_bethe
    calls, failures = [], []

    def counted(*args, **kwargs):
        calls.append(kwargs["branch_integers"])
        try:
            return real(*args, **kwargs)
        except BetheError as exc:
            failures.append(exc)
            raise

    monkeypatch.setattr(bethe, "solve_bethe", counted)
    m = calibrate_energy_map(6)
    assert (m.sign, m.scale, m.offset) == (-1, 0.5, 0.0)
    assert len(calls) == 15
    assert failures == []


def test_lumped_sectors_hold_the_bethe_gap():
    """The A positions alone, and the occupied sites alone, form one-species
    TASEPs (the sectors (L, L/3, 0) and (L, 2L/3, 0)); the k = 1 blocks of
    both reproduce the Bethe gap up to conjugation at L = 15, 18 and 21.
    The whole sectors (15,5,0), (15,10,0) and (18,6,0) have their k = 1
    block's gap, up to conjugation: no other block lies lower."""
    def off(got, want):
        return min(abs(got - want), abs(got - np.conj(want)))

    for length in (15, 18, 21):
        want = energy_from_roots(solve_gap_state(length))
        for n in (length // 3, 2 * length // 3):
            sector = Sector(length, n, 0)
            got = krylov_gap(project_momentum(sector, 1), seed=0).gap
            assert off(got, want) <= 1e-9, (length, n)
            if length == 15 or (length, n) == (18, 6):
                whole = krylov_gap(build_hamiltonian_tasep(length, sector),
                                   seed=0).gap
                assert off(whole, got) <= 1e-12


def test_bethe_matches_ed_l6(gap6, spectrum_l6_equal):
    e = energy_from_roots(gap6)
    assert abs(e.real - spectrum_l6_equal.gap.real) <= 1e-9


def test_counting_roundtrip_l6(gap6):
    checks = oracles.counting_check(gap6.big_z, 6)
    numbers = sorted(n for n, _ in checks)
    np.testing.assert_allclose(numbers, oracles.gap_quantum_numbers(2))
    assert all(resid <= 1e-10 for _, resid in checks)


def test_counting_monotone_at_small_sizes(gap_chain_36):
    """Quantum numbers recovered from the principal-log counting function
    are strictly monotone along the curve at small p; beyond p = 4 the
    per-term branch shifts can reorder them (values stay half-integers)."""
    for length in (6, 9, 12):
        roots = gap_chain_36[length]
        numbers = [n for n, _ in oracles.counting_check(roots.big_z, length)]
        ordered = sorted(numbers)
        assert all(b > a for a, b in zip(ordered, ordered[1:]))
        np.testing.assert_allclose(ordered,
                                   oracles.gap_quantum_numbers(length // 3))


def test_counting_negative_control(gap6):
    rng = np.random.default_rng(9)
    noisy = gap6.big_z * (1 + 0.01 * rng.standard_normal(2))
    checks = oracles.counting_check(noisy, 6)
    assert max(resid for _, resid in checks) > 1e-6


def test_conjugate_partner_state(gap6):
    """The gap eigenvalue is complex, so the root set of one member is not
    self-conjugate; the conjugated roots solve the system with mirrored
    integers and carry the conjugate energy."""
    Zc = np.conj(gap6.big_z)
    from tasep2.bethe import _log_residual
    F, I = _log_residual(Zc, np.zeros(0, complex), 6)
    assert np.max(np.abs(F)) <= 1e-12
    partner = BetheRootSet.from_big_z(6, Zc, np.zeros(0, complex), I,
                                      np.zeros(0, int), np.nan)
    assert energy_from_roots(partner) == pytest.approx(
        np.conj(energy_from_roots(gap6)), abs=1e-12)


@pytest.mark.parametrize("p, r", [(2, 1), (3, 1), (3, 2)])
def test_residual_matches_looped_oracle(p, r):
    Z, Y, I, J = _generic_point(p, r, seed=10 * p + r)
    want = oracles.bethe_residual_looped(Z, Y, 7, I, J)
    got = _log_residual(Z, Y, 7, np.concatenate((I, J)))[0]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_residual_matches_looped_oracle_at_l330(gap_chain_360):
    roots = gap_chain_360[330]
    assert roots.p == 110
    Z, Y = roots.big_z, roots.big_y
    I, J = roots.branch_integers, roots.second_integers
    want = oracles.bethe_residual_looped(Z, Y, 330, I, J)
    got = bethe_residual(roots)
    scale = 330 * np.max(np.abs(np.log(Z / (Z - 1.0))))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale
    # re-synced integers recover the stored ones
    F, K = _log_residual(Z, Y, 330)
    np.testing.assert_array_equal(K, I)
    np.testing.assert_array_equal(F, got)


def _assert_matches_matrix_oracle(Z, Y, length, K, bound):
    """F at fixed integers K, the re-synced integers and the re-synced F
    against the p x p log-ratio matrix oracle."""
    got = _log_residual(Z, Y, length, K)[0]
    want = oracles.bethe_residual_matrix(Z, Y, length, K)[0]
    assert np.max(np.abs(got - want)) <= bound
    F, K_got = _log_residual(Z, Y, length)
    F_want, K_want = oracles.bethe_residual_matrix(Z, Y, length)
    np.testing.assert_array_equal(K_got, K_want)
    assert np.max(np.abs(F - F_want)) <= bound


def test_residual_matches_matrix_oracle_at_l603(gap_chain_603):
    """At the chain's L = 603 root set (p = 201) the sorted-angle row sums
    agree with the p x p matrix sums far below SOLVER_TOL (a row sum taken
    in double instead of extended precision drifts ~7e-14 on this chain)."""
    roots = gap_chain_603[603]
    assert roots.p == 201
    K = np.concatenate((roots.branch_integers, roots.second_integers))
    _assert_matches_matrix_oracle(roots.big_z, roots.big_y, 603, K, 1e-14)


def test_residual_matches_matrix_oracle_with_second_level():
    """A generic p = 40, r = 7 point: the Z-Z, Z-Y and Y-Y blocks, to a few
    ulps of the residual's size."""
    Z, Y, I, J = _generic_point(40, 7, seed=47)
    want = oracles.bethe_residual_matrix(Z, Y, 7, np.concatenate((I, J)))[0]
    bound = 4 * np.finfo(float).eps * np.max(np.abs(want))
    _assert_matches_matrix_oracle(Z, Y, 7, np.concatenate((I, J)), bound)


def test_residual_with_angles_exactly_pi_apart():
    """Roots +-a i, +-b (and +-c i, +-d) have angle differences of exactly pi,
    where the principal log's branch cut decides the wrap count.  Rounding
    in X_k / X_l can put the matrix oracle's term on either side of the cut,
    so one term, and its integer, may differ by 2 pi; the re-synced residual
    does not.  With Ln(-1) = i pi every row's angle sum is exactly pi."""
    Z = np.array([0.7j, -0.7j, 1.3, -1.3])
    Y = np.array([2.5j, -2.5j, 3.0, -3.0])
    for X in (Z, Y):
        np.testing.assert_allclose(
            bethe._log_ratio_row_sums(X, None).imag.astype(float),
            np.pi,
            rtol=0, atol=1e-15)
    for y in (Y[:0], Y):
        F = _log_residual(Z, y, 7)[0]
        want = oracles.bethe_residual_matrix(Z, y, 7)[0]
        bound = 4 * np.finfo(float).eps * np.max(np.abs(want))
        assert np.max(np.abs(F - want)) <= bound


@pytest.mark.parametrize("p, r", [(3, 0), (3, 2)])
def test_jacobian_matches_central_difference(p, r):
    Z, Y, I, J = _generic_point(p, r, seed=p + 5 * r)
    x, K = np.concatenate((Z, Y)), np.concatenate((I, J))
    h = 1e-6
    numeric = np.empty((p + r, p + r), dtype=complex)
    for c in range(p + r):
        e = np.zeros(p + r, dtype=complex)
        e[c] = h
        up, down = x + e, x - e
        numeric[:, c] = (_log_residual(up[:p], up[p:], 7, K)[0]
                         - _log_residual(down[:p], down[p:], 7, K)[0]) / 2 / h
    analytic = _jacobian(Z, Y, 7)
    assert np.max(np.abs(analytic - numeric)) <= 1e-7 * np.max(np.abs(analytic))


def _assert_r0_step_is_dense_solve(Z, length, F):
    """The O(p) Sherman-Morrison step is the LU solve of the dense
    Jacobian, to 1e-12 relative."""
    dense = np.linalg.solve(_jacobian(Z, Z[:0], length), -F)
    step = _newton_step(Z, Z[:0], length, F)
    assert np.max(np.abs(step - dense)) <= 1e-12 * np.max(np.abs(dense))


@pytest.mark.parametrize("length", [30, 150, 330])
def test_r0_step_matches_dense_solve_at_gap_roots(gap_chain_360, length):
    roots = gap_chain_360[length]
    _assert_r0_step_is_dense_solve(roots.big_z, length, bethe_residual(roots))


def test_r0_step_matches_dense_solve_at_multistart_start():
    Z, Y = bethe._multistart_seeds(2, 0, seed=0)[0]
    F = _log_residual(Z, Y, 6, np.array([-1, 0]))[0]
    _assert_r0_step_is_dense_solve(Z, 6, F)


@pytest.mark.parametrize("Z0", [(-2.0, 0.5j), (-6.0, 2.0)],
                         ids=["zero-d", "zero-denominator"])
def test_r0_step_refuses_a_singular_jacobian(Z0):
    """At L = 6, p = 2 the r = 0 Jacobian diag(d) + 1 (1/Z)^T is singular
    where d = -L/(Z (Z - 1)) - p/Z vanishes (Z = 1 - L/p = -2), and where
    the Sherman-Morrison denominator 1 - sum_k (Z_k - 1)/(L + p (Z_k - 1))
    does (1 - 7/8 - 1/8 at Z = (-6, 2), exact in floating point).  Both
    raise `NewtonDivergenceError` and warn nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NewtonDivergenceError, match="singular Jacobian"):
            _newton(np.array(Z0, complex), np.zeros(0, complex), 6,
                    np.array([-1, 0]))


def test_r0_solves_build_no_dense_jacobian(monkeypatch):
    """Every r = 0 solve, the gap chain and the calibration multistart,
    takes the O(p) step."""
    def refuse(*args):
        raise AssertionError("dense Jacobian built for an r = 0 system")

    monkeypatch.setattr(bethe, "_jacobian", refuse)
    assert sorted(solve_gap_chain(99)) == list(range(6, 100, 3))
    m = calibrate_energy_map(6)
    assert (m.sign, m.scale, m.offset) == (-1, 0.5, 0.0)


def test_gap_chain_360(gap_chain_360):
    """Every root set to L=360 meets the solver tolerance."""
    lengths = sorted(gap_chain_360)
    assert lengths == list(range(6, 361, 3))
    for length in lengths:
        assert gap_chain_360[length].residual_norm <= SOLVER_TOL, length
    gaps = [energy_from_roots(gap_chain_360[l]).real for l in lengths]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_gap_chain_603_meets_solver_tol(caplog):
    """The chain to L=603 meets the solver tolerance at every size without
    the roundoff-floor fallback."""
    with caplog.at_level(logging.DEBUG, logger="tasep2.bethe"):
        chain = solve_gap_chain(603)
    assert sorted(chain) == list(range(6, 604, 3))
    for length, roots in chain.items():
        assert roots.residual_norm <= SOLVER_TOL, length
    assert "roundoff floor" not in caplog.text


# Largest relative error of the chain's gap against the 30-digit reference
# over every L in 6..603: 2.9e-12 at L = 195 (median 6.0e-14).
MP_GAP_REL_TOL = 5e-12


def test_gap_chain_matches_30_digit_reference(gap_chain_603):
    """The 30-digit gap energy of `oracles.gap_energy_mp` reproduces the
    branch-cut integral's E(6) in all 20 printed digits, and the chain's
    gap Re E lies within MP_GAP_REL_TOL of it, relative, at a spread of
    sizes to 603 and at the survey's worst size, 195."""
    with mpmath.workdps(30):
        e6 = oracles.gap_energy_mp(6)
        want = mpmath.mpc("0.52643851664649345536", "-0.44477180876206621469")
        assert abs(e6 - want) <= 1e-20
    for length in (6, 33, 99, 195, 201, 300, 603):
        ref = oracles.gap_energy_mp(length).real
        gap = oracles.exact_mp(energy_from_roots(gap_chain_603[length]).real)
        assert abs(gap - ref) <= MP_GAP_REL_TOL * ref, length


# Largest relative error of the chain's extended-precision gap Re E against
# the 30-digit reference over every L in 6..603: 4.0e-15 at L = 579 (median
# 2.1e-16); 5.9e-17 to L = 99.
MP_GAP_EXT_REL_TOL = 1e-14


def test_gap_chain_extended_gap_matches_30_digit_reference(gap_chain_603):
    """The chain's gap Re E, as `energy_from_roots` returns it in extended
    precision, lies within MP_GAP_EXT_REL_TOL of the 30-digit reference,
    relative, at a spread of sizes to 603 and at the survey's worst, 579."""
    with mpmath.workdps(30):
        for length in (6, 33, 99, 195, 300, 579, 603):
            ref = oracles.gap_energy_mp(length).real
            gap = oracles.exact_mp(
                energy_from_roots(gap_chain_603[length]).real)
            assert abs(gap - ref) <= MP_GAP_EXT_REL_TOL * ref, length


def test_gap_chain_residual_below_tolerance_and_floor_to_1203():
    """Every root set to L = 1,203 has a residual below SOLVER_TOL and below
    the O(p) roundoff floor of its log sums,
    eps (L + p) max(max|ln(Z/(Z-1))|, 2 max|ln|Z|| + pi), taken here from
    the stored roots."""
    eps = np.finfo(float).eps
    for length, roots in solve_gap_chain(1203).items():
        Z = roots.big_z.astype(complex)
        floor = eps * (length + roots.p) * max(
            np.abs(np.log(Z / (Z - 1.0))).max(),
            2 * np.abs(np.log(np.abs(Z))).max() + np.pi)
        assert roots.residual_norm <= min(SOLVER_TOL, floor), length


def test_block_residual_matches_per_size_residual(gap_chain_603):
    """The residual and I that the chain takes from one residual call per
    block are those of each root set alone: `bethe_residual` within 1e-15
    of the stored residual, and the re-synced integers identical."""
    for length, roots in gap_chain_603.items():
        alone = np.abs(bethe_residual(roots)).max()
        assert abs(alone - roots.residual_norm) <= 1e-15, length
        _, I = _log_residual(roots.big_z, roots.big_y, length)
        np.testing.assert_array_equal(I, roots.branch_integers)


def test_gap_cubic_roots_match_numpy_roots():
    """Every closed-form root equals the np.roots root of its cubic of the
    same modulus rank (largest, and the middle one of cubic 0) to 1e-14
    relative, and solves its cubic to a few ulps."""
    # exp(-mean_k ln Z_k) of the L = 327 root set of the gap chain
    chain_beta = 0.15298901354215383 + 0.00010980004000412025j
    eps = np.finfo(float).eps
    for p in (2, 3, 10, 109, 200):
        for beta in (4.0 / 27.0, 0.1 + 0.02j, 0.15 - 0.01j, chain_beta):
            c = beta * np.exp(2j * np.pi * (np.arange(p - 1) - (p - 1) / 2) / p)
            by_modulus = [sorted(np.roots([1.0, -1.0, 0.0, -cj]), key=abs)
                          for cj in c]
            ref = np.array([r[2] for r in by_modulus] + [by_modulus[0][1]])
            c = np.append(c, c[0])
            s = _gap_s(c, np.arange(p) == p - 1)
            np.testing.assert_allclose(s, ref, rtol=1e-14, atol=0)
            terms = np.abs(s) ** 3 + np.abs(s) ** 2 + np.abs(c)
            assert np.all(np.abs(s * s * (s - 1.0) - c) <= 4 * eps * terms)


def test_ln_beta_solve_logs_each_size(caplog):
    """One DEBUG record per size: L, the ln beta iterations and the last
    |du|."""
    with caplog.at_level(logging.DEBUG, logger="tasep2.bethe"):
        solve_gap_chain(15)
    records = [r for r in caplog.records if "ln beta" in r.getMessage()]
    assert [r.args[0] for r in records] == [6, 9, 12, 15]
    for rec in records:
        length, iterations, last_step = rec.args
        assert rec.levelno == logging.DEBUG
        assert 1 <= iterations <= 50 and last_step <= 1e-12


def test_gap_chain_logs_each_block(caplog, monkeypatch):
    """One DEBUG record per block of the chain: its first and last L and
    its root count."""
    monkeypatch.setattr(bethe, "GAP_BLOCK_ROOTS", 20)
    with caplog.at_level(logging.DEBUG, logger="tasep2.bethe"):
        solve_gap_chain(36)
    records = [r for r in caplog.records if "block" in r.getMessage()]
    assert [r.args for r in records] == [(6, 18, 20), (21, 24, 15),
                                         (27, 30, 19), (33, 33, 11),
                                         (36, 36, 12)]
    assert all(r.levelno == logging.DEBUG for r in records)


def test_gap_chain_solves_sizes_in_root_bounded_blocks(monkeypatch):
    """`solve_gap_chain` hands `_solve_gap_s` consecutive sizes holding at
    most GAP_BLOCK_ROOTS roots (or a single size), each block but the last
    full, and the calls cover the chain once, in order: the 7,259 roots to
    L = 360 take more than one call."""
    calls = []
    real = bethe._solve_gap_s

    def spy(lengths):
        calls.append(list(lengths))
        return real(lengths)

    monkeypatch.setattr(bethe, "_solve_gap_s", spy)
    solve_gap_chain(360)
    assert [length for block in calls for length in block] == list(
        range(6, 361, 3))
    assert len(calls) > 1
    for block, after in zip(calls, calls[1:] + [None]):
        assert len(block) == 1 or sum(block) // 3 <= bethe.GAP_BLOCK_ROOTS
        if after:
            assert (sum(block) + after[0]) // 3 > bethe.GAP_BLOCK_ROOTS


def _spoil_gap_roots(monkeypatch, spoiled, calls=None):
    """Scale the extended stage's roots of size `spoiled` by 1 + 1e-9, so
    that its residual is far above its roundoff floor; with `calls`, record
    the sizes of each `_solve_gap_s` call."""
    real = bethe._solve_gap_s

    def spoil(lengths):
        if calls is not None:
            calls.append(list(lengths))
        s, step = real(lengths)
        return [x * (1 + 1e-9) if length == spoiled else x
                for length, x in zip(lengths, s)], step

    monkeypatch.setattr(bethe, "_solve_gap_s", spoil)


def test_gap_chain_failure_solves_no_later_block(monkeypatch):
    """A block is solved only when the chain reaches it: a failure at L=27
    leaves the blocks after its own unsolved."""
    monkeypatch.setattr(bethe, "GAP_BLOCK_ROOTS", 20)
    calls = []
    _spoil_gap_roots(monkeypatch, 27, calls)
    with pytest.raises(NewtonDivergenceError,
                       match="L=27: residual .* above its roundoff floor"
                       ) as info:
        solve_gap_chain(60)
    assert calls == [[6, 9, 12, 15, 18], [21, 24], [27, 30]]
    assert sorted(info.value.chain) == list(range(6, 25, 3))


def test_block_roots_do_not_depend_on_chain_length():
    """The root set of a size (Z, I and residual) is bit for bit that of its
    single-size solve in a chain to L = 543.  Its 16,470 roots in one batch
    would make arrays past the 256 KiB at which numpy reuses temporaries in
    place, and an in-place complex product can round differently."""
    lengths = range(6, 544, 3)
    blocked = {roots.length: roots for roots in bethe._gap_blocks(lengths)}
    for length in (27, 42, 300, 543):
        (alone,) = bethe._gap_blocks([length])
        np.testing.assert_array_equal(blocked[length].big_z, alone.big_z)
        np.testing.assert_array_equal(blocked[length].branch_integers,
                                      alone.branch_integers)
        assert blocked[length].residual_norm == alone.residual_norm


def test_newton_logs_each_solve(caplog):
    """One DEBUG record per converged solve: L, p, Newton steps, line-search
    halvings and the final residual, which is the stored one.  The gap
    chain makes no Newton solve."""
    with caplog.at_level(logging.DEBUG, logger="tasep2.bethe"):
        solve_gap_chain(15)
        roots = solve_bethe(6, branch_integers=[-1, 0])
    records = [r for r in caplog.records if "Newton solve" in r.getMessage()]
    assert [r.args[:2] for r in records] == [(6, 2)]
    length, p, steps, halvings, residual = records[0].args
    assert records[0].levelno == logging.DEBUG
    assert steps >= 1  # the multistart needs Newton steps
    assert halvings >= 0 and residual == roots.residual_norm <= SOLVER_TOL
    assert "ln beta" not in records[0].getMessage()


def test_newton_raises_when_the_line_search_stalls(gap6, caplog,
                                                   monkeypatch):
    """An unreachable tolerance ends in `NewtonDivergenceError` once the
    line search cannot lower the residual, and logs no converged solve."""
    Z, Y = gap6.big_z, gap6.big_y
    monkeypatch.setattr(bethe, "SOLVER_TOL", 0.0)
    with caplog.at_level(logging.DEBUG, logger="tasep2.bethe"):
        with pytest.raises(NewtonDivergenceError,
                           match="line search stalled at residual"):
            _newton(Z, Y, 6, np.concatenate((gap6.branch_integers,
                                             gap6.second_integers)))
    assert "Newton solve" not in caplog.text


def test_chain_step_failure_raises_with_prefix(gap_chain_36, monkeypatch):
    """A size whose extended-stage roots fail the residual check is not
    swallowed: it leaves `solve_gap_chain` as a `BetheError` carrying the
    converged prefix, which is the sizes before it in the same block."""
    _spoil_gap_roots(monkeypatch, 15)
    with pytest.raises(BetheError,
                       match="L=15: residual .* above its roundoff floor"
                       ) as info:
        solve_gap_chain(33)
    assert sorted(info.value.chain) == [6, 9, 12]
    for length, roots in info.value.chain.items():
        np.testing.assert_array_equal(roots.big_z, gap_chain_36[length].big_z)


def test_continuation_l9_matches_ed(gap_chain_36, spectrum_l9_equal):
    e = energy_from_roots(gap_chain_36[9])
    assert abs(e.real - spectrum_l9_equal.gap.real) <= 1e-9
    assert abs(abs(e.imag) - abs(spectrum_l9_equal.gap.imag)) <= 1e-9


def test_momentum_block_gaps_match_bethe(spectrum_l9_equal):
    """The gap pair lives in the k=1 and k=L-1 blocks, so the k=1 block
    reproduces the sector gap at L=9 (dense) and the Bethe gap at L=12
    (Arnoldi), up to complex conjugation."""
    def off(got, want):
        return min(abs(got - want), abs(got - np.conj(want)))

    blk = project_momentum(Sector(9, 3, 3), 1)
    assert off(dense_spectrum(blk).gap, spectrum_l9_equal.gap) <= 1e-9
    blk = project_momentum(Sector(12, 4, 4), 1)
    bethe_gap = energy_from_roots(solve_gap_state(12))
    assert off(krylov_gap(blk, seed=0).gap, bethe_gap) <= 1e-9


def test_chain_residuals_and_counts(gap_chain_36):
    for length, roots in gap_chain_36.items():
        assert roots.p == length // 3
        assert roots.r == 0
        assert roots.residual_norm <= 1e-13
        assert oracles.product_form_mismatch_looped(
            roots.big_z, roots.big_y, length) <= 1e-12


def test_chain_energy_known_values(gap_chain_36):
    assert energy_from_roots(gap_chain_36[12]).real == pytest.approx(
        GAP_L12_RE, abs=1e-12)


def test_counting_values_near_half_integers_along_chain(gap_chain_36):
    for length, roots in gap_chain_36.items():
        checks = oracles.counting_check(roots.big_z, length)
        assert all(resid <= 1e-10 for _, resid in checks), length


def test_continuation_prediction_accuracy(gap_chain_36, monkeypatch):
    """The unpolished cubic roots at L=36, from the beta of L=33, lie on
    the polished ones."""
    monkeypatch.setattr(bethe, "GAP_BETA_SEED", np.exp(
        -np.mean(np.log(gap_chain_36[33].big_z))))
    s = bethe._solve_gap_s([36])[0][0]
    lam_cubic = 0.5 * np.log(s / (s - 1.0))
    lam = 0.5 * np.log(gap_chain_36[36].big_z)
    assert oracles.multiset_distance(lam_cubic, lam) < 0.01


def test_decoupled_energy_matches_nested(gap_chain_360):
    """p - sum s_k at the extended stage's cubic roots, solved from
    beta = 4/27, is the nested energy -sum 1/(Z_k - 1) of the root set for
    every L <= 330."""
    lengths = range(6, 331, 3)
    s_all, _ = bethe._solve_gap_s(lengths)
    for length, s in zip(lengths, s_all):
        e = energy_from_roots(gap_chain_360[length])
        assert abs(length // 3 - s.sum() - e) <= 1e-12, length


def test_direct_gap_state_matches_chain(gap_chain_360):
    """Every size of the batched chain is the root set that solving that size
    alone gives, bit for bit: the batched ln beta Newton keeps the sizes
    independent."""
    for length, chained in gap_chain_360.items():
        direct = solve_gap_state(length)
        np.testing.assert_array_equal(direct.big_z, chained.big_z)
        np.testing.assert_array_equal(direct.branch_integers,
                                      chained.branch_integers)
        assert direct.residual_norm == chained.residual_norm, length


def test_gap_state_needs_no_chain(monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("solve_gap_state walked the chain")

    monkeypatch.setattr(bethe, "continue_in_L", no_step)
    roots = solve_gap_state(30)
    assert roots.p == 10 and roots.residual_norm <= SOLVER_TOL


def test_chain_extends_well_beyond_table(gap_chain_36):
    from tasep2.bethe import solve_gap_chain
    chain = solve_gap_chain(48)
    for length in range(6, 37, 3):
        np.testing.assert_allclose(chain[length].big_z,
                                   gap_chain_36[length].big_z, atol=1e-12)
    exts = []
    for length in range(6, 46, 3):
        e0 = energy_from_roots(chain[length]).real
        e1 = energy_from_roots(chain[length + 3]).real
        exts.append(np.log(e0 / e1) / np.log(length / (length + 3.0)))
    # monotone approach toward -1.5 continues past the published table
    assert all(b > a for a, b in zip(exts, exts[1:]))
    assert -1.56 < exts[-1] < -1.5


def test_continue_requires_step_three(gap6):
    """One continuation step goes from L to L + 3 and from p to p + 1, onto
    the state that the chain reaches at L + 3."""
    roots = continue_in_L(gap6)
    assert (roots.length, roots.p) == (9, 3)
    want = energy_from_roots(solve_gap_chain(9)[9])
    assert abs(energy_from_roots(roots) - want) <= 1e-12
    # seeded from beta = 4/27 like every size, it is the direct solve
    direct = solve_gap_state(9)
    np.testing.assert_array_equal(roots.big_z, direct.big_z)
    assert roots.residual_norm == direct.residual_norm


def test_continue_from_each_size_is_the_direct_solve():
    """From the gap state of every L = 6..33, one step is the direct solve
    of L + 3 bit for bit: roots, branch integers and residual."""
    for length in range(6, 34, 3):
        roots = continue_in_L(solve_gap_state(length))
        direct = solve_gap_state(length + 3)
        np.testing.assert_array_equal(roots.big_z, direct.big_z)
        np.testing.assert_array_equal(roots.branch_integers,
                                      direct.branch_integers)
        assert roots.residual_norm == direct.residual_norm, length


def test_continue_refuses_a_state_off_the_gap_branch(monkeypatch):
    """A continued state whose local exponent against the gap state of L
    leaves (-1.9, -1.3) raises, as it does in a chain."""
    gap9 = solve_gap_state(9)
    real = bethe.energy_from_roots

    def scaled(roots):
        e = real(roots)
        return 10.0 * e if roots.length == 12 else e

    monkeypatch.setattr(bethe, "energy_from_roots", scaled)
    with pytest.raises(NewtonDivergenceError,
                       match=r"L=12: continued state off the gap branch"):
        continue_in_L(gap9)


def test_first_level_states_exhaust_no_vacancy_sector():
    """Every eigenvalue of the L=6 sector (n_A, n_B) = (4, 2) — the weight
    space hosting p=2, r=0 states — is reproduced by some Bethe solution
    over a small window of branch integers (completeness at this size)."""
    ref = np.linalg.eigvals(oracles.sector_matrix(6, 4, 2))
    found = []
    for i1 in range(-3, 3):
        for i2 in range(i1 + 1, 4):
            try:
                roots = solve_bethe(6, branch_integers=(i1, i2), seed=2)
            except Exception:
                continue
            e = energy_from_roots(roots)
            if np.min(np.abs(ref - e)) <= 1e-8:
                found.append(e)
    matched = np.zeros(len(ref), dtype=bool)
    for e in found:
        matched[np.argmin(np.abs(ref - e))] = True
    missing = ref[~matched]
    # allow only the steady state to be missing from this scan; it is
    # reproduced by I = (-1, 0), included in the window, so expect none
    assert matched.all(), f"unmatched eigenvalues: {missing}"


def test_second_level_states_match_ed():
    """p=2, r=1 solutions land on eigenvalues of the (n_A, n_B) = (4, 1)
    sector (one vacancy), which hosts the corresponding weight space."""
    ref = np.linalg.eigvals(oracles.sector_matrix(6, 4, 1))
    matched = set()
    for i1 in range(-2, 2):
        for i2 in range(i1 + 1, 3):
            for j1 in (-1, 0, 1):
                try:
                    roots = solve_bethe(6, branch_integers=(i1, i2),
                                        second_integers=(j1,), seed=1)
                except Exception:
                    continue
                assert roots.residual_norm <= 1e-13
                assert oracles.product_form_mismatch_looped(
                    roots.big_z, roots.big_y, 6) <= 1e-12
                e = energy_from_roots(roots)
                if np.min(np.abs(ref - e)) <= 1e-8:
                    matched.add((round(e.real, 8), round(e.imag, 8)))
    assert len(matched) >= 3


def test_solver_error_paths(gap6):
    with pytest.raises(ValueError):
        solve_bethe(6, branch_integers=())
    with pytest.raises(ValueError, match=r"seed roots have \(p, r\) = \(2, 0\)"):
        solve_bethe(6, branch_integers=(-1, 0, 1), seed_roots=gap6)
    with pytest.raises(NewtonDivergenceError):
        # coinciding integers force coinciding roots
        solve_bethe(6, branch_integers=(0, 0), seed=0)
    with pytest.raises(ValueError, match="limited to small systems"):
        solve_bethe(12, branch_integers=(-2, -1, 0, 1))


def test_size_guards():
    """Sizes the gap solvers and the calibration refuse."""
    for max_length in (3, 10):
        with pytest.raises(ValueError, match="multiple of 3, at least 6"):
            solve_gap_chain(max_length)
    for length in (3, 7):
        with pytest.raises(ValueError, match="multiple of 3, at least 6"):
            solve_gap_state(length)
    for length in (3, 12):
        with pytest.raises(ValueError, match="length 6 or 9"):
            calibrate_energy_map(length)


def test_energy_refuses_a_root_at_z_one():
    roots = BetheRootSet(6, np.array([1.0 + 0j, 2.0 + 1j]), np.zeros(0),
                         np.zeros(2, int), np.zeros(0, int))
    with pytest.raises(SingularRootError, match="Z = 1 pole"):
        energy_from_roots(roots)


def test_gap_chain_refuses_unconverged_ln_beta(monkeypatch):
    """A size whose ln beta Newton ends above |du| = 1e-12 raises before its
    polish, with no converged prefix."""
    real = bethe._solve_gap_s

    def stalled(lengths):
        s, step = real(lengths)
        return s, np.full(len(step), 1e-3)

    monkeypatch.setattr(bethe, "_solve_gap_s", stalled)
    with pytest.raises(NewtonDivergenceError,
                       match=r"L=6: no convergence in ln beta") as info:
        solve_gap_chain(12)
    assert info.value.chain == {}


@pytest.mark.parametrize("length, factor, message", [
    (6, -1.0, "L=6: state has nonpositive gap"),
    (9, 10.0, r"L=9: continued state off the gap branch"),
])
def test_gap_chain_refuses_a_state_off_the_gap_branch(monkeypatch, length,
                                                      factor, message):
    """A size whose energy has Re <= 0, or whose local exponent against the
    size before it leaves (-1.9, -1.3), raises with the smaller sizes."""
    real = bethe.energy_from_roots

    def scaled(roots):
        e = real(roots)
        return factor * e if roots.length == length else e

    monkeypatch.setattr(bethe, "energy_from_roots", scaled)
    with pytest.raises(NewtonDivergenceError, match=message) as info:
        solve_gap_chain(12)
    assert sorted(info.value.chain) == list(range(6, length, 3))


@pytest.mark.parametrize("spoil, message", [
    (None, "fewer than two Bethe states"),
    (lambda evs: evs + 1.0, r"no \(sign, scale, offset\) maps"),
    (lambda evs: np.concatenate((evs, -evs)), "ambiguous calibration"),
], ids=["no_state", "no_map", "two_maps"])
def test_calibration_failures_raise(monkeypatch, spoil, message):
    """The calibration raises when no Bethe state solves, when no map fits
    the spectrum (every eigenvalue shifted by 1), and when two maps fit (the
    spectrum joined by its negative, which admits sign +1 too)."""
    if spoil is None:
        def failing_solve(*args, **kwargs):
            raise NewtonDivergenceError("forced failure")

        monkeypatch.setattr(bethe, "solve_bethe", failing_solve)
    else:
        real = bethe.dense_spectrum

        def spoiled_spectrum(gen):
            return SimpleNamespace(eigenvalues=spoil(real(gen).eigenvalues))

        monkeypatch.setattr(bethe, "dense_spectrum", spoiled_spectrum)
    with pytest.raises(BetheError, match=message):
        calibrate_energy_map(6)


def test_json_roundtrip(gap6, tmp_path):
    path = tmp_path / "roots.json"
    cli._write_json(path, cli._roots_payload(gap6), False)
    data = json.loads(path.read_text())
    back = cli._read_roots(path)
    np.testing.assert_allclose(back.big_z, gap6.big_z, atol=1e-15)
    np.testing.assert_array_equal(back.branch_integers, gap6.branch_integers)
    assert abs(complex(*data["energy_raw"])
               - oracles.energy_raw(gap6.big_z, 6)) <= 1e-13


def test_curve_csv(gap6, tmp_path):
    path = tmp_path / "curve.csv"
    cli._write_rows(path, False, "", cli._re_im(gap6.big_z))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    re_, im_ = lines[0].split(",")
    float(re_), float(im_)

