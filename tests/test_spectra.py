"""Dense and Krylov spectra against hand-built and cross-method oracles."""

import json
import logging
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla

from tasep2 import (
    ConvergenceError,
    Sector,
    all_sectors,
    build_hamiltonian_tasep,
    cli,
    dense_spectrum,
    krylov_gap,
    project_momentum,
    spectra,
)
from tasep2.lattice import momentum_blocks

import oracles
from conftest import is_real_form

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


def test_krylov_matches_dense_l9(spectrum_l9_equal, tmp_path):
    gen = build_hamiltonian_tasep(9, Sector(9, 3, 3))
    res = krylov_gap(gen, seed=0)
    assert abs(res.gap - spectrum_l9_equal.gap) <= 1e-10
    assert cli.main(["diag", "--length", "9", "--na", "3", "--nb", "3",
                     "--krylov", "--output-dir", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "diag_L9_na3_nb3.json").read_text())
    assert complex(data["gap_re"], data["gap_im"]) == res.gap
    assert data["method"] == "krylov"


def test_krylov_full_sector_returns_eigenvalues_of_smallest_real_part(
        direct_eigs_l9, spectrum_l10_equal):
    """The block union keeps the N_EIGS eigenvalues of the whole sector of
    smallest real part.  When the N_EIGS-th and the next one are a
    conjugate pair, either may be returned.  The (5,2,1) blocks (dim 6) are
    too small for ARPACK and are solved densely.  At L=10 the reference is
    the dense block union, which the tests above check against direct
    LAPACK."""
    n_eigs = spectra.N_EIGS
    small = build_hamiltonian_tasep(5, Sector(5, 2, 1))
    cases = ((small, scipy.linalg.eigvals(small.to_dense())),
             (build_hamiltonian_tasep(9, Sector(9, 3, 3)), direct_eigs_l9),
             (build_hamiltonian_tasep(10, Sector(10, 3, 3)),
              spectrum_l10_equal.eigenvalues))
    for gen, ref in cases:
        res = krylov_gap(gen, seed=0)
        ref = ref[np.argsort(ref.real, kind="stable")]
        assert res.zero_count == 1
        np.testing.assert_allclose(np.sort(res.eigenvalues.real),
                                   ref[:n_eigs].real, atol=1e-9)
        assert oracles.multiset_distance(res.eigenvalues,
                                         ref[:n_eigs + 1]) <= 1e-9


def test_krylov_momentum_block_gap_is_the_slowest_mode():
    """On a momentum block the gap is the slowest mode of the block, also
    where eigenvalues of larger real part lie nearer zero; a block with
    fewer than N_EIGS + 2 states is solved densely and returns all its
    eigenvalues ((7,2,0) k = 0 and (8,2,0) k = 3 have 3)."""
    cases = ((8, 2, 2, 4), (9, 3, 2, 4), (9, 3, 2, 5), (9, 2, 2, 4),
             (10, 3, 3, 4), (10, 3, 3, 5), (7, 2, 0, 0), (8, 2, 0, 3))
    for length, n_a, n_b, k in cases:
        blk = project_momentum(Sector(length, n_a, n_b), k)
        want = dense_spectrum(blk)
        res = krylov_gap(blk, seed=0)
        assert len(res.eigenvalues) == min(spectra.N_EIGS, blk.dimension)
        off = min(abs(res.gap - want.gap), abs(res.gap - np.conj(want.gap)))
        assert off <= 1e-9, (length, n_a, n_b, k)


def test_krylov_solves_every_small_sector():
    """Every sector at L = 2..6, however few its states, gets the dense gap
    and zero count from `krylov_gap`: a block too small for ARPACK is
    solved densely."""
    for length in range(2, 7):
        for sector in all_sectors(length):
            gen = build_hamiltonian_tasep(length, sector)
            want, got = dense_spectrum(gen), krylov_gap(gen, seed=0)
            assert got.zero_count == want.zero_count, sector
            if want.gap is None:
                assert got.gap is None, sector
            else:
                assert abs(got.gap - want.gap) <= 1e-9, sector


def test_krylov_seed_independence():
    gen = build_hamiltonian_tasep(6, Sector(6, 2, 2))
    g1 = krylov_gap(gen, seed=1).gap
    g2 = krylov_gap(gen, seed=20250809).gap
    assert abs(g1 - g2) <= 1e-10


def test_krylov_on_momentum_block():
    sector = Sector(6, 2, 2)
    full_gap = dense_spectrum(build_hamiltonian_tasep(6, sector)).gap
    best = None
    for k in range(6):
        res = krylov_gap(project_momentum(sector, k), seed=0)
        if res.gap is not None and (best is None or res.gap.real < best.real):
            best = res.gap
    assert best is not None
    assert abs(best.real - full_gap.real) <= 1e-10


def test_krylov_residual_contract_raises(monkeypatch):
    gen = build_hamiltonian_tasep(6, Sector(6, 2, 2))
    monkeypatch.setattr(spectra, "RESIDUAL_TOL", 1e-18)
    with pytest.raises(ConvergenceError):
        krylov_gap(gen, seed=0)


def test_arpack_no_convergence_is_a_convergence_error(monkeypatch, tmp_path,
                                                     capsys):
    """ARPACK's own failure leaves `krylov_gap` as a `ConvergenceError`,
    and `diag --krylov` as a numerical failure (exit 3)."""
    def no_convergence(op, **kwargs):
        raise spla.ArpackNoConvergence("ARPACK error -1: No convergence",
                                       np.zeros(0), np.zeros((op.shape[0], 0)))

    monkeypatch.setattr(spectra.spla, "eigs", no_convergence)
    gen = build_hamiltonian_tasep(6, Sector(6, 2, 2))
    with pytest.raises(ConvergenceError, match="Arnoldi did not converge"):
        krylov_gap(gen, seed=0)
    rc = cli.main(["diag", "--length", "6", "--na", "2", "--nb", "2",
                   "--krylov", "--output-dir", str(tmp_path)])
    assert rc == cli.EXIT_NUMERICAL
    assert "Arnoldi did not converge" in capsys.readouterr().err


def test_krylov_logs_each_arnoldi_block(caplog):
    """One DEBUG record per Arnoldi block: dim, nnz, whether it is the
    block's real form (k = 1 and 2 of this n_a = n_vac sector), the number
    of products with the block and the time."""
    gen = build_hamiltonian_tasep(6, Sector(6, 2, 2))
    with caplog.at_level(logging.DEBUG, logger="tasep2.spectra"):
        krylov_gap(gen, seed=0)
    records = [r for r in caplog.records if r.name == "tasep2.spectra"]
    solved = list(momentum_blocks(6, gen.packs, range(4)))
    assert [r.args[:3] for r in records] == [
        (m.dimension, m.to_csr().nnz, is_real_form(m)) for m in solved]
    assert [is_real_form(m) for m in solved] == [False, True, True, False]
    for rec in records:
        dim, nnz, real, products, seconds = rec.args
        assert rec.levelno == logging.DEBUG
        assert products > spectra.N_EIGS and seconds >= 0


def test_full_sector_holds_at_most_two_blocks(monkeypatch):
    """`dense_spectrum` and `krylov_gap` solve each momentum block of a full
    sector before the next is built, so at most two blocks are alive at
    once: the one just solved and the one being built."""
    alive, counts = set(), []

    def spy(length, packs, momenta):
        for blk in momentum_blocks(length, packs, momenta):
            alive.add(blk.momentum)
            weakref.finalize(blk, alive.discard, blk.momentum)
            counts.append(len(alive))
            yield blk

    monkeypatch.setattr(spectra, "momentum_blocks", spy)
    gen = build_hamiltonian_tasep(9, Sector(9, 3, 3))
    for solve in (dense_spectrum, krylov_gap):
        counts.clear()
        assert solve(gen).zero_count == 1
        assert len(counts) == 5 and max(counts) <= 2, (solve, counts)
        assert not alive


def test_zero_mode_block_returns_its_zero_mode(monkeypatch):
    """The (12,4,4) k = 0 block holds the zero mode, the eigenvalue of
    smallest real part: Arnoldi returns it once, with every eigenpair's
    residual, recomputed here from the block, within RESIDUAL_TOL."""
    blk = project_momentum(Sector(12, 4, 4), 0)
    pairs = []
    eigs = spectra.spla.eigs

    def spy(*args, **kwargs):
        pairs.append(eigs(*args, **kwargs))
        return pairs[-1]

    monkeypatch.setattr(spectra.spla, "eigs", spy)
    res = krylov_gap(blk, seed=0)
    assert res.zero_count == 1
    assert abs(res.eigenvalues[0]) <= spectra.ZERO_TOL
    (vals, vecs), = pairs
    resid = (np.linalg.norm(blk.to_csr() @ vecs - vecs * vals, axis=0)
             / np.linalg.norm(vecs, axis=0))
    assert np.all(resid <= spectra.RESIDUAL_TOL)


def test_spectrum_export_format(spectrum_l6_equal, tmp_path):
    path = tmp_path / "spectrum.txt"
    cli._write_rows(path, False, "", cli._re_im(spectrum_l6_equal.eigenvalues))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 90
    re_, im_ = lines[0].split()
    float(re_), float(im_)


def test_summary_fields(tmp_path):
    assert cli.main(["diag", "--length", "6", "--na", "2", "--nb", "2",
                     "--output-dir", str(tmp_path)]) == 0
    s = json.loads((tmp_path / "diag_L6_na2_nb2.json").read_text())
    assert s["L"] == 6 and s["n_A"] == 2 and s["n_B"] == 2
    assert s["method"] == "dense"
    assert s["gap_re"] == pytest.approx(GAP_L6.real, abs=1e-10)


def test_gap_momentum_resolution(spectrum_l6_equal):
    """The slow pair lives in the conjugate momentum blocks k = 1 and 5."""
    sector = Sector(6, 2, 2)
    gaps = {k: dense_spectrum(project_momentum(sector, k)).gap
            for k in range(6)}
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


def test_sorted_eigs_order_survives_last_bit_change():
    """A conjugate pair whose Re differ by one ulp sorts by Im, whichever
    member has the larger Re."""
    re, im = 0.64690629, 0.39626301
    up = np.nextafter(re, 1.0)
    for vals in ([complex(re, im), complex(up, -im)],
                 [complex(up, im), complex(re, -im)]):
        out = spectra._sorted_eigs(np.array(vals))
        np.testing.assert_array_equal(out.imag, [-im, im])


def test_sector_gap_is_its_smaller_lumped_gap():
    """Every sector with A and B particles at L = 3..8 (83 sectors) has the
    Re gap of the slower of its two one-species lumpings, (L, n_A, 0) and
    (L, n_A + n_B, 0); a lumping with no vacancy is frozen and has none.
    Only real parts are compared: where they tie, the pick can differ
    ((4,1,2) reports 1, its lumped sector 1 + i)."""
    lumped, count = {}, 0

    def gap_re(length, n):
        if (length, n) not in lumped:
            gap = dense_spectrum(
                build_hamiltonian_tasep(length, Sector(length, n, 0))).gap
            lumped[length, n] = np.inf if gap is None else gap.real
        return lumped[length, n]

    for length in range(3, 9):
        for sector in all_sectors(length):
            if sector.n_a and sector.n_b:
                gen = build_hamiltonian_tasep(length, sector)
                gap = dense_spectrum(gen).gap
                want = min(gap_re(length, sector.n_a),
                           gap_re(length, sector.n_a + sector.n_b))
                assert abs(gap.real - want) <= 1e-12, sector
                count += 1
    assert count == 83
