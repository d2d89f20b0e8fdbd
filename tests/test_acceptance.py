"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import time

import numpy as np
import pytest

from tasep2 import (
    Sector,
    all_sectors,
    bst_scan,
    build_hamiltonian_tasep,
    bst_extrapolate,
    check_yang_baxter,
    cli,
    dense_spectrum,
    energy_from_roots,
    local_exponent,
    run_scaling_study,
    solve_bethe,
    transfer_hamiltonian_check,
)
from tasep2.bethe import BetheRootSet, _log_residual

from conftest import PAPER_EXTRAPOLANTS


def _report(num, ok, detail):
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_generator_validity():
    t0 = time.perf_counter()
    worst_colsum = 0.0
    checked = 0
    for length in range(2, 9):
        for sec in all_sectors(length):
            gen = build_hamiltonian_tasep(length, sec)
            worst_colsum = max(worst_colsum,
                               float(np.max(np.abs(gen.column_sums()))))
            res = dense_spectrum(gen)
            assert res.zero_count == 1, (length, sec)
            nonzero = res.eigenvalues[np.abs(res.eigenvalues) > 1e-10]
            assert np.all(nonzero.real > 0), (length, sec)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst_colsum <= 1e-12 and elapsed < 60
    _report(1, ok, f"{checked} sectors (L<=8), max |column sum| = "
                   f"{worst_colsum:.2e}, one zero eigenvalue each, "
                   f"{elapsed:.1f}s")


def test_criterion_2_integrability():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        th = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        th /= np.maximum(1.0, np.abs(th))
        worst = max(worst, check_yang_baxter(*th))
    disc = max(transfer_hamiltonian_check(l)["discrepancy"] for l in (2, 3))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and disc <= 1e-6 and elapsed < 60
    _report(2, ok, f"Yang-Baxter max residual {worst:.2e} (100 triples), "
                   f"transfer-vs-generator discrepancy {disc:.2e}, "
                   f"{elapsed:.1f}s")


def test_criterion_3_oracle_equivalence(gap_chain_36, spectrum_l6_equal,
                                        spectrum_l9_equal):
    t0 = time.perf_counter()
    d6 = abs(energy_from_roots(gap_chain_36[6]).real
             - spectrum_l6_equal.gap.real)
    d9 = abs(energy_from_roots(gap_chain_36[9]).real
             - spectrum_l9_equal.gap.real)
    elapsed = time.perf_counter() - t0
    ok = d6 <= 1e-9 and d9 <= 1e-9
    _report(3, ok, f"Bethe vs exact gap: |diff| = {d6:.2e} (L=6), "
                   f"{d9:.2e} (L=9), equal-density sector, {elapsed:.1f}s")


def test_criterion_4_paper_table(gap_chain_36):
    t0 = time.perf_counter()
    gaps = [(l, energy_from_roots(r).real)
            for l, r in sorted(gap_chain_36.items())]
    ext = dict(local_exponent(gaps))
    worst = max(abs(ext[l] - ref) for l, ref in PAPER_EXTRAPOLANTS.items())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 600
    _report(4, ok, f"ten local exponents L=6..33 vs published table, "
                   f"max |diff| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_exponent(gap_chain_36):
    gaps = [(l, energy_from_roots(r).real)
            for l, r in sorted(gap_chain_36.items())]
    tab = bst_scan(local_exponent(gaps))
    z = -tab.limit
    ok = abs(z - 1.5) <= 1e-5
    _report(5, ok, f"BST limit of the ten extrapolants: z = {z:.9f} "
                   f"(omega = {tab.omega}, error estimate "
                   f"{tab.error_estimate:.2e})")


def test_criterion_6_root_pattern(gap_chain_36, tmp_path):
    worst_pair = 0.0
    bands = {}
    for length, roots in sorted(gap_chain_36.items()):
        # the gap eigenvalue is complex: the state and its conjugate partner
        # form the conjugation-closed pair; verify the conjugated roots
        # solve the system
        zc = np.conj(roots.big_z)
        F, _ = _log_residual(zc, np.zeros(0, complex), length)
        worst_pair = max(worst_pair, float(np.max(np.abs(F))))
        absz = np.abs(roots.big_z)
        bands[length] = (float(absz.min()), float(absz.max()))
        cli._write_rows(tmp_path / f"curve_Z_L{length}.csv", False, "",
                        cli._re_im(roots.big_z))
        cli._write_rows(tmp_path / f"curve_lambda_L{length}.csv", False, "",
                        cli._roots_payload(roots)["lambda"])
    ok = worst_pair <= 1e-10
    band_str = ", ".join(f"L={l}: |Z| in [{a:.2f}, {b:.2f}]"
                         for l, (a, b) in bands.items() if l in (6, 21, 36))
    _report(6, ok, f"conjugate-pair closure residual {worst_pair:.2e}; "
                   f"curve CSVs written; band parameters {band_str}")


def test_criterion_7_property_suites(gap_chain_36):
    rng = np.random.default_rng(7)
    roots6 = gap_chain_36[6]

    # energy invariance under root permutation
    e0 = energy_from_roots(roots6)
    for _ in range(100):
        perm = rng.permutation(roots6.p)
        shuffled = BetheRootSet(
            length=6, big_z=roots6.big_z[perm], big_y=np.zeros(0, complex),
            branch_integers=roots6.branch_integers[perm],
            second_integers=np.zeros(0, int))
        assert abs(energy_from_roots(shuffled) - e0) <= 1e-12

    # scale invariance of local exponents
    base = [(l, energy_from_roots(r).real)
            for l, r in sorted(gap_chain_36.items())]
    ref = [e for _, e in local_exponent(base)]
    for _ in range(100):
        c = float(rng.uniform(0.01, 100.0))
        got = [e for _, e in local_exponent([(l, c * g) for l, g in base])]
        np.testing.assert_allclose(got, ref, atol=1e-12)

    # BST exactness on synthetic power-law data
    sizes = np.arange(6, 40, 3)
    for _ in range(100):
        z0 = float(rng.uniform(-3, 3))
        b = float(rng.uniform(-2, 2))
        omega = float(rng.uniform(0.4, 2.5))
        vals = [(int(l), z0 + b * float(l) ** -omega) for l in sizes]
        assert abs(bst_extrapolate(vals, omega).limit - z0) <= 1e-10

    # Newton fixed-point determinism from perturbed seeds
    for _ in range(100):
        noise = 1e-3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        noisy = BetheRootSet.from_big_z(
            6, roots6.big_z * (1.0 + noise), np.zeros(0, complex),
            roots6.branch_integers)
        back = solve_bethe(6, branch_integers=roots6.branch_integers,
                           seed_roots=noisy)
        assert np.max(np.abs(np.sort_complex(back.big_z)
                             - np.sort_complex(roots6.big_z))) <= 1e-10

    _report(7, True, "energy shuffle, exponent scale invariance, BST "
                     "synthetic exactness, Newton fixed point: 100 seeded "
                     "cases each")
