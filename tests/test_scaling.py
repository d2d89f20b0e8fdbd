"""Local exponents and Bulirsch-Stoer extrapolation."""

import numpy as np
import pytest

from tasep2 import (
    bst_extrapolate,
    bst_scan,
    cli,
    energy_from_roots,
    local_exponent,
    run_scaling_study,
)

from conftest import PAPER_EXTRAPOLANTS


def test_gap_series_validation():
    """The study's gap series steps by 3 from l_min, and its gaps are
    positive and strictly decreasing."""
    series = run_scaling_study(6, 12)["series"]
    assert [l for l, _ in series] == [6, 9, 12, 15]
    gaps = [g for _, g in series]
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_local_exponent_pure_power_law():
    series = [(l, 2.7 * l ** -1.5) for l in range(6, 31, 3)]
    for _, ext in local_exponent(series):
        assert ext == pytest.approx(-1.5, abs=1e-12)


def test_local_exponent_requires_adjacent_sizes():
    with pytest.raises(ValueError):
        local_exponent([(6, 0.5), (12, 0.2)])


def test_local_exponent_scale_invariance_100_cases():
    rng = np.random.default_rng(31)
    base = [(l, float(np.exp(-1.52 * np.log(l)) * 3.1)) for l in range(6, 40, 3)]
    ref = [e for _, e in local_exponent(base)]
    for _ in range(100):
        c = float(rng.uniform(0.01, 100.0))
        scaled = [(l, c * g) for l, g in base]
        got = [e for _, e in local_exponent(scaled)]
        np.testing.assert_allclose(got, ref, atol=1e-12)


def test_bst_exact_on_synthetic_100_cases():
    rng = np.random.default_rng(99)
    sizes = np.arange(6, 40, 3)
    for _ in range(100):
        z0 = rng.uniform(-3, 3)
        b = rng.uniform(-2, 2)
        omega = rng.uniform(0.4, 2.5)
        vals = [(int(l), z0 + b * float(l) ** -omega) for l in sizes]
        tab = bst_extrapolate(vals, omega)
        # exact from the second column on
        assert abs(tab.table[2][0] - z0) <= 1e-10
        assert abs(tab.limit - z0) <= 1e-10


def test_bst_constant_sequence():
    vals = [(l, 1.234) for l in range(6, 22, 3)]
    tab = bst_extrapolate(vals, 1.0)
    assert tab.limit == 1.234
    assert tab.error_estimate == 0.0


def test_bst_tableau_shape():
    vals = [(l, 1.0 / l) for l in range(6, 21, 3)]
    tab = bst_extrapolate(vals, 1.0)
    assert [len(col) for col in tab.table] == [5, 4, 3, 2, 1]
    np.testing.assert_allclose(tab.table[0], [v for _, v in vals])


def test_bst_requires_two_entries_and_positive_omega():
    with pytest.raises(ValueError):
        bst_extrapolate([(6, 1.0)], 1.0)
    with pytest.raises(ValueError):
        bst_extrapolate([(6, 1.0), (9, 0.5)], -1.0)


def test_bst_paper_table_reaches_three_halves():
    vals = sorted(PAPER_EXTRAPOLANTS.items())
    tab = bst_scan(vals)
    assert abs(tab.limit - (-1.5)) <= 1e-5
    assert tab.omega == 1.0
    assert tab.error_estimate < 1e-5


def test_study_tableau_is_omega_one():
    """The study's tableau is the omega = 1 one, bit for bit, on 6..33 and
    6..327; on 6..297 the error-estimate scan had taken omega = 0.5 and
    missed 3/2 by 3.6e-7."""
    for l_max in (33, 327):
        report = run_scaling_study(6, l_max)
        tab = bst_extrapolate(report["extrapolants"], 1.0)
        assert report["z_estimate"] == -tab.limit
        assert report["tableau"].table == tab.table
    report = run_scaling_study(6, 297)
    assert report["tableau"].omega == 1.0
    assert abs(report["z_estimate"] - 1.5) < 1e-8


def test_bst_appending_converged_tail_keeps_limit():
    vals = [(int(l), -1.5 + 0.8 * float(l) ** -1.0) for l in range(6, 31, 3)]
    tab = bst_extrapolate(vals, 1.0)
    extended = vals + [(33, tab.limit), (36, tab.limit)]
    tab2 = bst_extrapolate(extended, 1.0)
    assert abs(tab2.limit - tab.limit) <= 1e-9


def test_run_scaling_study_matches_paper(gap_chain_36):
    report = run_scaling_study(6, 33)
    ext = dict(report["extrapolants"])
    assert set(ext) == set(PAPER_EXTRAPOLANTS)
    for l, ref in PAPER_EXTRAPOLANTS.items():
        assert ext[l] == pytest.approx(ref, abs=1e-8), l
    assert abs(report["z_estimate"] - 1.5) <= 1e-5
    # computed extrapolants increase monotonically toward -1.5
    seq = [ext[l] for l in sorted(ext)]
    assert all(b > a for a, b in zip(seq, seq[1:]))
    assert seq[-1] < -1.5


def test_run_scaling_study_extended_sweep():
    report = run_scaling_study(6, 36)
    assert abs(report["z_estimate"] - 1.5) <= 1e-4
    assert len(report["extrapolants"]) == 11


def test_run_scaling_study_coarse():
    """Truncated sweeps: with extrapolants only up to L=12 the tableau
    overshoots (|z - 1.5| ~ 0.17); one more size brings it inside 0.05."""
    report12 = run_scaling_study(6, 12)
    assert abs(report12["z_estimate"] - 1.5) <= 0.2
    report15 = run_scaling_study(6, 15)
    assert abs(report15["z_estimate"] - 1.5) <= 0.05


def test_run_scaling_study_rejects_bad_ranges():
    with pytest.raises(ValueError):
        run_scaling_study(7, 33)


def test_gap_series_csv(gap_chain_36, tmp_path):
    series = [(l, energy_from_roots(r).real)
              for l, r in sorted(gap_chain_36.items())]
    path = tmp_path / "gap_series.csv"
    cli._write_rows(path, False, "L,gap_re\n", series)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "L,gap_re"
    assert len(lines) == 1 + len(series)
