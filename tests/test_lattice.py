"""Sector enumeration and generator assembly against the brute-force oracle."""

import numpy as np
import pytest
import scipy.linalg

from tasep2 import (
    Sector,
    all_sectors,
    build_hamiltonian_tasep,
    cli,
    dense_spectrum,
    lattice,
    project_momentum,
)
from tasep2.lattice import momentum_blocks, orbit_table, sector_packs

import oracles
from conftest import is_real_form


def test_sector_validation_and_dimension():
    assert len(sector_packs(Sector(2, 1, 1))) == 2
    assert len(sector_packs(Sector(3, 1, 1))) == 6
    # exhaustive enumeration of the 3^6 configurations gives 90
    assert (len(sector_packs(Sector(6, 2, 2)))
            == len(oracles.ring_states(6, 2, 2)) == 90)
    assert len(sector_packs(Sector(9, 3, 3))) == 1680
    with pytest.raises(ValueError):
        Sector(3, 2, 2)
    with pytest.raises(ValueError, match="length must be >= 1"):
        Sector(0, 0, 0)


def test_length_guards(tmp_path, capsys):
    """A one-site ring has no bond, and a generator refuses a sector of
    another length."""
    rc = cli.main(["diag", "--length", "1", "--na", "0", "--nb", "0",
                   "--output-dir", str(tmp_path)])
    assert rc == cli.EXIT_DOMAIN
    assert "need at least two sites" in capsys.readouterr().err
    with pytest.raises(ValueError, match="sector length mismatch"):
        build_hamiltonian_tasep(6, Sector(5, 1, 1))


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
        # the oracle's states are in the generator's order; translation
        # moves the content of site j to site j + 1
        states = oracles.ring_states(length, n_a, n_b)
        index = {c: i for i, c in enumerate(states)}
        perm = [index[c[-1:] + c[:-1]] for c in states]
        t = np.zeros_like(mat)
        t[perm, np.arange(gen.dimension)] = 1.0
        np.testing.assert_allclose(t @ mat, mat @ t, atol=1e-13)


def test_momentum_blocks_partition_dimension():
    sector = Sector(6, 2, 2)
    dims = [project_momentum(sector, k).dimension for k in range(6)]
    assert sum(dims) == 90
    # k = 0 and k = L/2 carry phases +-1 exactly, so their blocks are real;
    # CP maps this n_a = n_vac sector onto itself, so the others are built
    # as real forms
    for k in range(6):
        blk = project_momentum(sector, k)
        assert not np.iscomplexobj(blk.vals), k
        assert is_real_form(blk) == (k not in (0, 3)), k
        assert blk.momentum == k


def test_momentum_fold_matches_coo_oracle():
    """The sort-and-reduceat orbit fold gives the triplets of scipy's
    `coo_array` fold bit for bit, for every sector with L <= 9 and every k
    whose block is not built as a real form (the real forms are checked
    against the same oracle's eigenvalues below).  The oracle filters the
    sector generator's entries at representative columns, so this also
    checks the moves assembled at the representatives alone."""
    for length in range(2, 10):
        for sector in all_sectors(length):
            gen = build_hamiltonian_tasep(length, sector)
            for k, blk in enumerate(momentum_blocks(length, gen.packs,
                                                    range(length))):
                if is_real_form(blk):
                    continue
                want = oracles.momentum_block_coo(gen, k)
                for got, ref in zip((blk.rows, blk.cols, blk.vals), want):
                    assert got.dtype == ref.dtype, (sector, k)
                    np.testing.assert_array_equal(got, ref)


def test_full_space_blocks_carry_ring_length():
    """Momentum blocks of the full space keep L, which their dimensions (3
    at L=2 k=1, 11 at L=3 k=0) do not determine."""
    for length, k, dim in ((2, 1, 3), (3, 0, 11)):
        gen = build_hamiltonian_tasep(length)
        blk = next(momentum_blocks(length, gen.packs, [k]))
        assert (gen.length, blk.length, blk.dimension) == (length, length, dim)


def test_momentum_union_recovers_sector_spectrum():
    for length, n_a, n_b in ((5, 2, 1), (6, 2, 2), (7, 2, 2)):
        sector = Sector(length, n_a, n_b)
        direct = scipy.linalg.eigvals(
            build_hamiltonian_tasep(length, sector).to_dense())
        full = np.sort(direct.real)
        union = []
        for k in range(length):
            blk = project_momentum(sector, k)
            union.extend(dense_spectrum(blk).eigenvalues)
        union = np.asarray(union)
        np.testing.assert_allclose(np.sort(union.real), full, atol=1e-8)
        full_im = np.sort(direct.imag)
        np.testing.assert_allclose(np.sort(union.imag), full_im, atol=1e-8)


def test_zero_momentum_block_has_steady_state():
    blk = project_momentum(Sector(6, 2, 2), 0)
    vals = dense_spectrum(blk).eigenvalues
    assert np.min(np.abs(vals)) <= 1e-10


def _complex_block_eigvals(gen, blk):
    """Eigenvalues of momentum block k of `gen` folded by the `coo_array`
    oracle in the orbit basis, where no CP form is taken."""
    row, col, data = oracles.momentum_block_coo(gen, blk.momentum)
    mat = np.zeros((blk.dimension, blk.dimension), dtype=complex)
    mat[row, col] = data
    return scipy.linalg.eigvals(mat)


def test_real_form_is_real_with_the_block_spectrum():
    """Every k != 0, L/2 block of every sector with L <= 8 and n_a = n_vac,
    and of the full space with L <= 5, is built as its real form, with real
    values and the oracle block's eigenvalues as a multiset to 1e-12; an
    empty block is not."""
    gens = [build_hamiltonian_tasep(length, sector)
            for length in range(2, 9) for sector in all_sectors(length)
            if sector.n_a == sector.n_vac]
    gens += [build_hamiltonian_tasep(length) for length in range(2, 6)]
    solved = 0
    for gen in gens:
        momenta = [k for k in range(gen.length) if 2 * k % gen.length]
        for k, real in zip(momenta, momentum_blocks(gen.length, gen.packs,
                                                    momenta)):
            assert real.momentum == k
            if real.dimension == 0:
                assert not is_real_form(real)
                continue
            assert is_real_form(real)
            want = _complex_block_eigvals(gen, real)
            got = scipy.linalg.eigvals(real.to_dense())
            assert oracles.multiset_distance(got, want) <= 1e-12, (gen, k)
            solved += 1
    assert solved == 76


def test_real_form_keeps_no_roundoff_entry():
    """Entries that cancel in U^H B U are dropped: no real form of a sector
    with L <= 12 and n_a = n_vac keeps an entry of at most REAL_TOL times
    its largest, and at L = 9 the real forms keep the oracle block's
    eigenvalues to 1e-12 (L <= 8 above)."""
    forms = 0
    for length in range(3, 13):
        for sector in all_sectors(length):
            if sector.n_a != sector.n_vac:
                continue
            gen = build_hamiltonian_tasep(length, sector)
            momenta = [k for k in range(length // 2 + 1) if 2 * k % length]
            for real in momentum_blocks(length, gen.packs, momenta):
                if not is_real_form(real):
                    continue
                size = np.abs(real.vals)
                assert size.min() > lattice.REAL_TOL * size.max(), (
                    sector, real.momentum)
                if length == 9:
                    want = _complex_block_eigvals(gen, real)
                    got = scipy.linalg.eigvals(real.to_dense())
                    assert oracles.multiset_distance(got, want) <= 1e-12
                forms += 1
    assert forms == 125


def test_real_form_only_where_cp_maps_the_block_onto_itself():
    """Real forms are built for k != 0, L/2 where CP maps the sector onto
    itself, and never for (10,3,3) (CP maps it onto (10,4,3)) or for an
    empty block ((3,0,3) k = 1); a momentum outside 0..L-1 raises."""
    packs = sector_packs(Sector(6, 2, 2))
    assert [is_real_form(b) for b in momentum_blocks(6, packs, range(6))] == [
        False, True, True, False, True, True]
    odd = sector_packs(Sector(10, 3, 3))
    assert not any(map(is_real_form, momentum_blocks(10, odd, range(10))))
    empty = project_momentum(Sector(3, 0, 3), 1)
    assert (empty.dimension, is_real_form(empty)) == (0, False)
    with pytest.raises(ValueError):
        momentum_blocks(6, packs, [6])


def test_diag_momentum_assembles_only_the_representatives(monkeypatch,
                                                          tmp_path):
    """`tasep2 diag --momentum` assembles moves once, for the (9,3,3) orbit
    representatives alone, and builds no sector generator."""
    assembled = []
    real_assemble = lattice.assemble_moves

    def assemble_spy(length, packs):
        assembled.append((length, packs))
        return real_assemble(length, packs)

    def build_spy(*args):
        raise AssertionError("sector generator built")

    monkeypatch.setattr(lattice, "assemble_moves", assemble_spy)
    monkeypatch.setattr(lattice, "build_hamiltonian_tasep", build_spy)
    monkeypatch.setattr(cli, "build_hamiltonian_tasep", build_spy)
    assert cli.main(["diag", "--length", "9", "--na", "3", "--nb", "3",
                     "--momentum", "1", "--output-dir", str(tmp_path)]) == 0
    packs = sector_packs(Sector(9, 3, 3))
    rep = orbit_table(9, packs)[0]
    reps = packs[rep == np.arange(len(packs))]
    (length, got), = assembled
    assert length == 9 and len(reps) == 188
    np.testing.assert_array_equal(got, reps)
