"""Sector enumeration and generator assembly against the brute-force oracle."""

import io

import numpy as np
import pytest
import scipy.linalg

from tasep2 import (
    Sector,
    all_sectors,
    build_hamiltonian_tasep,
    dense_spectrum,
    project_momentum,
)
from tasep2.lattice import SPECIES_A, SPECIES_B, VACANCY, translation_permutation

import oracles


def test_species_encoding_order():
    assert SPECIES_A == 0 and SPECIES_B == 1 and VACANCY == 2


def test_sector_validation_and_dimension():
    assert Sector(2, 1, 1).dimension == 2
    assert Sector(3, 1, 1).dimension == 6
    # exhaustive enumeration of the 3^6 configurations gives 90
    assert Sector(6, 2, 2).dimension == len(oracles.ring_states(6, 2, 2)) == 90
    assert Sector(9, 3, 3).dimension == 1680
    with pytest.raises(ValueError):
        Sector(3, 2, 2)


def test_tasep_matches_bruteforce_all_small_sectors():
    for length in (2, 3, 4, 5):
        for sec in all_sectors(length):
            got = build_hamiltonian_tasep(length, sec).to_dense()
            ref = oracles.sector_matrix(length, sec.n_a, sec.n_b)
            np.testing.assert_allclose(got, ref, atol=1e-14)


def test_ab0_configuration_moves():
    # A B 0 on three sites: AB->BA on (1,2) and B0->0B on (2,3); the wrap
    # bond holds (0, A), which only the blocked left hop could move.
    sec = Sector(3, 1, 1)
    gen = build_hamiltonian_tasep(3, sec)
    cfgs = ["".join("AB0"[s] for s in c) for c in oracles.ring_states(3, 1, 1)]
    i = [str(c) for c in cfgs].index("AB0")
    mat = gen.to_dense()
    assert mat[i, i] == 2.0
    targets = {str(cfgs[j]): mat[j, i] for j in range(6) if j != i and mat[j, i]}
    assert targets == {"BA0": -1.0, "A0B": -1.0}


def test_full_ring_of_one_species_is_frozen():
    gen = build_hamiltonian_tasep(2, Sector(2, 2, 0))
    assert gen.dimension == 1
    np.testing.assert_allclose(gen.to_dense(), [[0.0]])
    gen = build_hamiltonian_tasep(3, Sector(3, 0, 0))
    np.testing.assert_allclose(gen.to_dense(), [[0.0]])


def test_assembled_triplets_are_unique_and_nonzero():
    """`to_dense` stores the assembled triplets as they are, so every sector
    with L <= 8 and the full space with L <= 6 must come without repeated
    (row, col) pairs or zero values."""
    gens = [(length, sec) for length in range(2, 9) for sec in all_sectors(length)]
    gens += [(length, None) for length in range(2, 7)]
    for length, sec in gens:
        gen = build_hamiltonian_tasep(length, sec)
        keys = gen.rows * gen.dimension + gen.cols
        assert len(np.unique(keys)) == len(keys), (length, sec)
        assert np.all(gen.vals != 0), (length, sec)


def test_column_sums_zero():
    for length in (2, 3, 4, 5, 6):
        gen = build_hamiltonian_tasep(length)
        assert np.max(np.abs(gen.column_sums())) <= 1e-12


def test_particle_numbers_are_conserved_structurally():
    gen = build_hamiltonian_tasep(4)
    packs = gen.packs

    def counts(x):
        digs = [(int(x) // 3 ** j) % 3 for j in range(4)]
        return digs.count(0), digs.count(1)

    for r, c in zip(gen.rows, gen.cols):
        assert counts(packs[r]) == counts(packs[c])


def test_translation_commutes():
    for length, n_a, n_b in ((4, 2, 1), (6, 2, 2)):
        gen = build_hamiltonian_tasep(length, Sector(length, n_a, n_b))
        mat = gen.to_dense()
        perm = translation_permutation(gen)
        t = np.zeros_like(mat)
        t[perm, np.arange(gen.dimension)] = 1.0
        np.testing.assert_allclose(t @ mat, mat @ t, atol=1e-13)


def test_momentum_blocks_partition_dimension():
    gen = build_hamiltonian_tasep(6, Sector(6, 2, 2))
    dims = [project_momentum(gen, k).dimension for k in range(6)]
    assert sum(dims) == 90
    # k = 0 and k = L/2 carry phases +-1 exactly, so their blocks are real
    for k in range(6):
        blk = project_momentum(gen, k)
        assert np.iscomplexobj(blk.vals) == (k not in (0, 3)), k
        assert blk.momentum == k and blk.sector.momentum == k
    with pytest.raises(ValueError):
        project_momentum(project_momentum(gen, 1), 1)


def test_full_space_blocks_carry_ring_length():
    """Momentum blocks of the full space keep L, which their dimensions (3
    at L=2 k=1, 11 at L=3 k=0) do not determine."""
    for length, k, dim in ((2, 1, 3), (3, 0, 11)):
        gen = build_hamiltonian_tasep(length)
        blk = project_momentum(gen, k)
        assert (gen.length, blk.length, blk.dimension) == (length, length, dim)


def test_momentum_union_recovers_sector_spectrum():
    for length, n_a, n_b in ((5, 2, 1), (6, 2, 2), (7, 2, 2)):
        gen = build_hamiltonian_tasep(length, Sector(length, n_a, n_b))
        direct = scipy.linalg.eigvals(gen.to_dense())
        full = np.sort(direct.real)
        union = []
        for k in range(length):
            blk = project_momentum(gen, k)
            union.extend(dense_spectrum(blk).eigenvalues)
        union = np.asarray(union)
        np.testing.assert_allclose(np.sort(union.real), full, atol=1e-8)
        full_im = np.sort(direct.imag)
        np.testing.assert_allclose(np.sort(union.imag), full_im, atol=1e-8)


def test_zero_momentum_block_has_steady_state():
    gen = build_hamiltonian_tasep(6, Sector(6, 2, 2))
    blk = project_momentum(gen, 0)
    vals = dense_spectrum(blk).eigenvalues
    assert np.min(np.abs(vals)) <= 1e-10


def test_coo_export_format():
    # (6, 2, 2) is assembled out of (row, col) order, so export_coo must sort
    for sec in (Sector(2, 1, 1), Sector(6, 2, 2)):
        gen = build_hamiltonian_tasep(sec.length, sec)
        buf = io.StringIO()
        gen.export_coo(buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == len(gen.rows)
        parts = lines[0].split()
        assert len(parts) == 4
        int(parts[0]), int(parts[1])
        float(parts[2]), float(parts[3])
        # entries are (row, col)-sorted and unique
        keys = [(int(l.split()[0]), int(l.split()[1])) for l in lines]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
