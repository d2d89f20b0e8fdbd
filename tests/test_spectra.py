"""Dense and Krylov spectra against hand-built and cross-method oracles."""

import io

import numpy as np
import pytest
import scipy.linalg

from tasep2 import (
    ConvergenceError,
    Sector,
    all_sectors,
    build_hamiltonian_tasep,
    dense_spectrum,
    krylov_gap,
    project_momentum,
)

import oracles

# frozen from the 90-dimensional dense solve; also the Bethe oracle target
GAP_L6 = 0.5264385166464931 + 0.4447718087620659j


def test_l2_full_space_matches_hand_matrix():
    gen = build_hamiltonian_tasep(2)
    hand = oracles.generator_matrix(oracles.ring_states(2), oracles.moves)
    np.testing.assert_allclose(gen.to_dense(), hand, atol=1e-14)
    vals = dense_spectrum(gen).eigenvalues
    ref = np.sort_complex(np.linalg.eigvals(hand))
    np.testing.assert_allclose(np.sort(vals.real), np.sort(ref.real), atol=1e-12)


def test_l3_equal_density_contains_steady_state():
    res = dense_spectrum(build_hamiltonian_tasep(3, Sector(3, 1, 1)))
    assert res.zero_count == 1
    assert res.gap is not None and res.gap.real > 0


def test_l6_gap_value_and_multiplicity(spectrum_l6_equal):
    res = spectrum_l6_equal
    assert res.zero_count == 1
    assert res.gap == pytest.approx(GAP_L6, abs=1e-10)
    # the gap is reported with Im >= 0; its conjugate partner is present
    dists = np.abs(res.eigenvalues - np.conj(res.gap))
    assert np.min(dists) < 1e-10


def test_gap_selection_reports_upper_half_plane(spectrum_l6_equal):
    assert spectrum_l6_equal.gap.imag >= 0


def test_dense_limit_enforced():
    gen = build_hamiltonian_tasep(6, Sector(6, 2, 2))
    with pytest.raises(ValueError):
        dense_spectrum(gen, dense_limit=10)


def test_dense_limit_applies_per_block(spectrum_l10_equal):
    """The L=10 equal-density sector (dim 4,200) exceeds the limit, but its
    largest momentum block (about 420) does not."""
    gen = build_hamiltonian_tasep(10, Sector(10, 3, 3))
    res = spectrum_l10_equal
    assert len(res.eigenvalues) == 4200
    assert res.zero_count == 1
    assert abs(res.gap - krylov_gap(gen, seed=0).gap) <= 1e-9


def test_dense_matches_direct_eig_every_sector(direct_eigs_l9):
    """Block union against one LAPACK eig of the whole sector: odd and even
    L, the real k = L/2 block and the conjugate twins."""
    for length in range(2, 8):
        for sec in all_sectors(length):
            gen = build_hamiltonian_tasep(length, sec)
            direct = scipy.linalg.eigvals(gen.to_dense())
            got = dense_spectrum(gen).eigenvalues
            assert oracles.multiset_distance(got, direct) <= 1e-9, sec
    gen = build_hamiltonian_tasep(9, Sector(9, 3, 3))
    got = dense_spectrum(gen).eigenvalues
    assert oracles.multiset_distance(got, direct_eigs_l9) <= 1e-9


def test_dense_matches_direct_eig_full_space():
    gen = build_hamiltonian_tasep(4)
    direct = scipy.linalg.eigvals(gen.to_dense())
    got = dense_spectrum(gen).eigenvalues
    assert oracles.multiset_distance(got, direct) <= 1e-9


def test_every_small_sector_has_simple_zero():
    for length in (2, 3, 4, 5, 6):
        for sec in [s for s in
                    [Sector(length, a, b)
                     for a in range(length + 1)
                     for b in range(length + 1 - a)]]:
            res = dense_spectrum(build_hamiltonian_tasep(length, sec))
            assert res.zero_count == 1, (length, sec)
            others = res.eigenvalues[np.abs(res.eigenvalues) > 1e-10]
            assert np.all(others.real > 1e-10), (length, sec)


def test_spectrum_closed_under_conjugation(spectrum_l6_equal):
    vals = spectrum_l6_equal.eigenvalues
    for v in vals[::7]:
        assert np.min(np.abs(vals - np.conj(v))) < 1e-9


def test_krylov_matches_dense_l6(spectrum_l6_equal):
    gen = build_hamiltonian_tasep(6, Sector(6, 2, 2))
    res = krylov_gap(gen, seed=0)
    assert abs(res.gap - spectrum_l6_equal.gap) <= 1e-10


def test_krylov_matches_dense_l9(spectrum_l9_equal):
    gen = build_hamiltonian_tasep(9, Sector(9, 3, 3))
    res = krylov_gap(gen, seed=0)
    assert abs(res.gap - spectrum_l9_equal.gap) <= 1e-10
    assert res.method == "krylov"


def test_krylov_full_sector_returns_eigenvalues_nearest_sigma(
        direct_eigs_l9, spectrum_l10_equal):
    """The block union keeps the n_eigs eigenvalues of the whole sector
    nearest sigma.  When the n_eigs-th and the next one are a conjugate pair
    at equal distance, either may be returned.  The (5,2,1) blocks (dim 6)
    are too small for ARPACK and are solved densely.  At L=10 the reference
    is the dense block union, which the tests above check against direct
    LAPACK."""
    n_eigs, sigma = 8, 1e-3
    small = build_hamiltonian_tasep(5, Sector(5, 2, 1))
    cases = ((small, scipy.linalg.eigvals(small.to_dense())),
             (build_hamiltonian_tasep(9, Sector(9, 3, 3)), direct_eigs_l9),
             (build_hamiltonian_tasep(10, Sector(10, 3, 3)),
              spectrum_l10_equal.eigenvalues))
    for gen, ref in cases:
        res = krylov_gap(gen, seed=0, n_eigs=n_eigs, sigma=sigma)
        ref = ref[np.argsort(np.abs(ref - sigma), kind="stable")]
        assert res.zero_count == 1
        np.testing.assert_allclose(np.sort(np.abs(res.eigenvalues - sigma)),
                                   np.abs(ref[:n_eigs] - sigma), atol=1e-9)
        assert oracles.multiset_distance(res.eigenvalues,
                                         ref[:n_eigs + 1]) <= 1e-9


def test_krylov_seed_independence():
    gen = build_hamiltonian_tasep(6, Sector(6, 2, 2))
    g1 = krylov_gap(gen, seed=1).gap
    g2 = krylov_gap(gen, seed=20250809).gap
    assert abs(g1 - g2) <= 1e-10


def test_krylov_on_momentum_block():
    gen = build_hamiltonian_tasep(6, Sector(6, 2, 2))
    full_gap = dense_spectrum(gen).gap
    best = None
    for k in range(6):
        blk = project_momentum(gen, k)
        if blk.dimension < 3:
            continue
        res = krylov_gap(blk, seed=0)
        if res.gap is not None and (best is None or res.gap.real < best.real):
            best = res.gap
    assert best is not None
    assert abs(best.real - full_gap.real) <= 1e-10


def test_krylov_residual_contract_raises():
    gen = build_hamiltonian_tasep(6, Sector(6, 2, 2))
    with pytest.raises(ConvergenceError):
        krylov_gap(gen, seed=0, residual_tol=1e-18)


def test_spectrum_export_format(spectrum_l6_equal):
    buf = io.StringIO()
    spectrum_l6_equal.export_spectrum(buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 90
    re_, im_ = lines[0].split()
    float(re_), float(im_)


def test_summary_fields(spectrum_l6_equal):
    s = spectrum_l6_equal.summary()
    assert s["L"] == 6 and s["n_A"] == 2 and s["n_B"] == 2
    assert s["method"] == "dense"
    assert s["gap_re"] == pytest.approx(GAP_L6.real, abs=1e-10)


def test_gap_momentum_resolution(spectrum_l6_equal):
    """The slow pair lives in the conjugate momentum blocks k = 1 and 5."""
    gen = build_hamiltonian_tasep(6, Sector(6, 2, 2))
    gaps = {k: dense_spectrum(project_momentum(gen, k)).gap for k in range(6)}
    assert gaps[1] == pytest.approx(spectrum_l6_equal.gap, abs=1e-10)
    assert gaps[5] == pytest.approx(spectrum_l6_equal.gap, abs=1e-10)
    others = [gaps[k].real for k in (0, 2, 3, 4)]
    assert min(others) > spectrum_l6_equal.gap.real + 0.1


def test_sector_gap_landscape_l6():
    """The equal-density gap is the slowest extensive mode, but dilute
    sectors relax diffusively (rate 1 - cos(2 pi / L)) and lie below it at
    finite size."""
    gaps = {}
    for a in range(7):
        for b in range(7 - a):
            res = dense_spectrum(build_hamiltonian_tasep(6, Sector(6, a, b)))
            if res.gap is not None:
                gaps[(a, b)] = res.gap.real
    assert gaps[(2, 2)] == pytest.approx(GAP_L6.real, abs=1e-10)
    assert min(gaps.values()) == pytest.approx(1 - np.cos(2 * np.pi / 6), abs=1e-10)
    # the no-vacancy representative of the Bethe state carries the same gap
    assert gaps[(4, 2)] == pytest.approx(gaps[(2, 2)], abs=1e-10)
