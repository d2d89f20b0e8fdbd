"""Packed-integer kernels of `tasep2.lattice` against brute-force references."""

import numpy as np
import pytest

from tasep2 import lattice
from tasep2.lattice import Sector

import oracles


def packed(config):
    length = len(config)
    return sum(d * 3 ** (length - 1 - j) for j, d in enumerate(config))


@pytest.mark.parametrize("length,n_a,n_b", [(2, 1, 1), (4, 1, 2), (6, 2, 2),
                                            (7, 3, 2), (9, 3, 3), (10, 3, 3)])
def test_enumerate_matches_bruteforce(length, n_a, n_b):
    packs = lattice.sector_packs(Sector(length, n_a, n_b))
    ref = [packed(c) for c in oracles.ring_states(length, n_a, n_b)]
    np.testing.assert_array_equal(packs, ref)


@pytest.mark.parametrize("length,n_a,n_b", [(5, 2, 1), (4, 1, 1), (6, 2, 2)])
def test_assembly_matches_bruteforce(length, n_a, n_b):
    packs = lattice.sector_packs(Sector(length, n_a, n_b))
    rows, cols, vals = lattice.assemble_moves(length, packs)
    n = len(packs)
    mat = np.zeros((n, n))
    for r, c, v in zip(rows, cols, vals):
        mat[r, c] += v
    ref = oracles.sector_matrix(length, n_a, n_b)
    np.testing.assert_allclose(mat, ref, atol=1e-14)


def test_translate_packed_is_cyclic_shift():
    length = 5
    for c in oracles.ring_states(length, 2, 1):
        shifted = (c[-1],) + c[:-1]
        assert lattice.translate_packed(packed(c), length) == packed(shifted)


def test_orbit_table_consistency():
    length = 6
    packs = lattice.sector_packs(Sector(length, 2, 2))
    rep, shift, period = lattice.orbit_table(length, packs)
    for i, x in enumerate(packs):
        assert period[i] >= 1 and length % period[i] == 0
        t = int(x)
        for _ in range(int(shift[i])):
            t = lattice.translate_packed(t, length)
        assert t == packs[rep[i]]
        # representative is the orbit minimum
        orbit = [int(x)]
        t = lattice.translate_packed(int(x), length)
        while t != int(x):
            orbit.append(t)
            t = lattice.translate_packed(t, length)
        assert packs[rep[i]] == min(orbit)
