"""Integrability checks: R-matrix structure, factorization equation,
reference-state action, commuting transfer family, Hamiltonian recovery."""

import numpy as np
import pytest

from tasep2 import (
    build_hamiltonian_tasep,
    build_transfer_matrix,
    check_yang_baxter,
    hamiltonian_from_transfer,
    transfer_hamiltonian_check,
)
from tasep2 import yangbaxter
from tasep2.lattice import translate_packed
from tasep2.yangbaxter import r_tensor, t_site, transfer_trace

import oracles


def test_r_matrix_five_rules():
    th = 0.37 - 0.21j
    t = r_tensor(th)
    a, c = np.exp(th), 2 * np.sinh(th)
    for al in range(3):
        for be in range(3):
            for i in range(3):
                for l in range(3):
                    v = t[al, be, i, l]
                    if al == be == i == l:
                        assert v == pytest.approx(a)
                    elif (i, l) == (be, al) and al < be:
                        assert v == pytest.approx(c)
                    elif (i, l) == (al, be) and al < be:
                        assert v == pytest.approx(a)
                    elif (i, l) == (al, be) and al > be:
                        assert v == pytest.approx(np.exp(-th))
                    else:
                        assert v == 0


def test_yang_baxter_zero_arguments():
    assert check_yang_baxter(0.7, 0.7, 0.7) <= 1e-14


def test_yang_baxter_100_random_triples():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        th = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        th /= np.maximum(1.0, np.abs(th))
        worst = max(worst, check_yang_baxter(*th))
    assert worst <= 1e-12


def test_yang_baxter_radius_two():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        th = 2 * (rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3))
        th /= np.maximum(1.0, np.abs(th) / 2.0)
        worst = max(worst, check_yang_baxter(*th))
    assert worst <= 1e-12


def test_yang_baxter_detects_perturbation(monkeypatch):
    """`check_yang_baxter` itself flags an R-matrix with one corrupted entry."""
    th = (0.31 + 0.11j, -0.42 + 0.05j, 0.2 - 0.3j)

    def corrupted(theta):
        t = r_tensor(theta)
        t[0, 1, 0, 1] += 1e-3
        return t

    assert check_yang_baxter(*th) <= 1e-12
    monkeypatch.setattr(yangbaxter, "r_tensor", corrupted)
    assert check_yang_baxter(*th) > 1e-4


def test_reference_state_action():
    length, th = 3, 0.37
    n = 3 ** length
    mono = build_transfer_matrix(length, th)

    def T(a, b):
        return mono[a * n:(a + 1) * n, b * n:(b + 1) * n]

    omega = np.zeros(n)
    omega[0] = 1.0  # all-A product state
    aL = np.exp(th) ** length
    cL = (2.0 * np.sinh(th)) ** length
    np.testing.assert_allclose(T(0, 0) @ omega, aL * omega, atol=1e-12)
    np.testing.assert_allclose(T(1, 1) @ omega, cL * omega, atol=1e-12)
    np.testing.assert_allclose(T(2, 2) @ omega, cL * omega, atol=1e-12)
    # annihilation of the C operators and off-diagonal D block
    np.testing.assert_allclose(T(0, 1) @ omega, 0, atol=1e-14)
    np.testing.assert_allclose(T(0, 2) @ omega, 0, atol=1e-14)
    np.testing.assert_allclose(T(1, 2) @ omega, 0, atol=1e-14)
    np.testing.assert_allclose(T(2, 1) @ omega, 0, atol=1e-14)
    # the creation operators act nontrivially
    assert np.linalg.norm(T(1, 0) @ omega) > 1e-8
    assert np.linalg.norm(T(2, 0) @ omega) > 1e-8


def test_monodromy_matches_kron_recursion():
    """Every block T_ab of the one sparse product of site vertices equals
    the dense Kronecker recursion of the oracle."""
    for length in (2, 3, 4):
        n = 3 ** length
        for th in (0.37 - 0.21j, -0.5 + 0.3j, 0.1 + 0.9j):
            mono = build_transfer_matrix(length, th).toarray()
            assert mono.shape == (3 * n, 3 * n)
            ref = oracles.monodromy_blocks(t_site(th), length)
            for a in range(3):
                for b in range(3):
                    block = mono[a * n:(a + 1) * n, b * n:(b + 1) * n]
                    assert np.max(np.abs(block - ref[a, b])) <= 1e-14


def test_transfer_matrices_commute():
    rng = np.random.default_rng(11)
    for length in (2, 3, 4):
        for _ in range(10):
            t1, t2 = rng.uniform(-0.9, 0.9, 2) + 1j * rng.uniform(-0.4, 0.4, 2)
            m1 = np.asarray(transfer_trace(length, t1).todense())
            m2 = np.asarray(transfer_trace(length, t2).todense())
            comm = m1 @ m2 - m2 @ m1
            scale = max(np.max(np.abs(m1 @ m2)), 1.0)
            assert np.max(np.abs(comm)) / scale <= 1e-10


def test_transfer_conserves_sectors():
    length = 3
    mat = np.asarray(transfer_trace(length, 0.29).todense())

    def counts(idx):
        digs = []
        # the trits of a packed code, in any order: only their counts matter
        for _ in range(length):
            digs.append(idx % 3)
            idx //= 3
        return digs.count(0), digs.count(1)

    nz = np.argwhere(np.abs(mat) > 1e-14)
    for r, c in nz:
        assert counts(int(r)) == counts(int(c))


def test_tau_zero_is_translation(monkeypatch):
    for length in (2, 3, 4):
        mat = np.asarray(transfer_trace(length, 0.0).todense())
        assert np.all((np.abs(mat) < 1e-12) | (np.abs(mat - 1) < 1e-12))
        np.testing.assert_allclose(mat.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-12)
        assert not np.allclose(mat, np.eye(3 ** length))
        np.testing.assert_array_equal(mat.T @ mat, np.eye(3 ** length))
    # exactly the transpose of the lattice's translation P[T(x), x] = 1
    for length in (2, 3, 4, 5):
        codes = np.arange(3 ** length)
        shift = np.zeros((len(codes), len(codes)))
        shift[translate_packed(codes, length), codes] = 1.0
        tau0 = transfer_trace(length, 0.0).toarray()
        np.testing.assert_array_equal(tau0, shift.T)
    # a tau(0) that is not the translation is refused
    monkeypatch.setattr(yangbaxter, "transfer_trace",
                        lambda length, theta: transfer_trace(length,
                                                             theta + 0.3))
    with pytest.raises(ValueError, match="not the one-site translation"):
        hamiltonian_from_transfer(2)


def test_transfer_size_limit():
    with pytest.raises(ValueError):
        build_transfer_matrix(9, 0.1)
    with pytest.raises(ValueError, match="1 <= L <= 8"):
        hamiltonian_from_transfer(9)
    for length in (1, 0, -1):
        with pytest.raises(ValueError, match="need at least two sites"):
            hamiltonian_from_transfer(length)


def test_hamiltonian_recovery():
    """The check reports the ring length and the discrepancy alone: the
    generator's convention, L/2 - (1/2) d(log tau)/dtheta, is applied by
    `hamiltonian_from_transfer`, not restated in the result."""
    for length in (2, 3):
        chk = transfer_hamiltonian_check(length)
        assert set(chk) == {"length", "discrepancy"}
        assert chk["length"] == length and chk["discrepancy"] <= 1e-6


def test_exact_derivative_recovers_generator_to_roundoff():
    """The sampled Laurent-polynomial derivative is exact: the matrix that
    `hamiltonian_from_transfer` returns is the lattice's generator to
    roundoff, far inside the 1e-6 gate above."""
    for length in range(2, 8):
        got = hamiltonian_from_transfer(length)
        want = build_hamiltonian_tasep(length).to_csr()
        assert got.shape == want.shape == (3 ** length, 3 ** length)
        assert abs(got - want).max() <= 1e-12, length


def test_transfer_hamiltonian_past_six_sites():
    """The derivative needs only tau at L roots of unity, so it is not
    limited below the transfer matrix's own L <= 8."""
    assert transfer_hamiltonian_check(7)["discrepancy"] <= 1e-12
