"""Ring configurations, particle-number sectors, and the stochastic generator.

The two-species totally asymmetric exclusion process on Z/LZ has local states
A (first class), B (second class) and vacancy 0, encoded as base-3 digits
A=0 < B=1 < 0=2.  Particles hop to the right at unit rate: a bond (j, j+1)
holding the ordered pair (g, d) with g < d exchanges it,

    (g, d) -> (d, g) at rate 1      (A0->0A, B0->0B, AB->BA)

and a pair with g > d is blocked.  The master equation dp/dt = -H p fixes
the matrix convention used throughout: H[c', c] = -1 for every move c -> c'
and H[c, c] = the number of moves out of c, so every column sums to zero.

Configurations of the L-site ring are packed base-3 integers with site 0 in
the most significant trit, so ascending packed order is lexicographic in the
site list.  Translation moves the content of site j to site j+1.  Sector
codes, move assembly and translation orbits are vectorized over the sorted
code array; targets are located by binary search in it.
"""

from dataclasses import dataclass, field
from math import factorial

import numpy as np
import scipy.sparse as sp

SPECIES_A = 0
SPECIES_B = 1
VACANCY = 2


def _multinomial(length, n_a, n_b):
    return factorial(length) // (
        factorial(n_a) * factorial(n_b) * factorial(length - n_a - n_b)
    )


@dataclass(frozen=True)
class Sector:
    """Conserved-number block: n_a first-class and n_b second-class particles."""

    length: int
    n_a: int
    n_b: int
    momentum: int | None = None

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if self.n_a < 0 or self.n_b < 0 or self.n_a + self.n_b > self.length:
            raise ValueError(
                f"invalid sector counts ({self.n_a}, {self.n_b}) for L={self.length}"
            )
        if self.momentum is not None and not 0 <= self.momentum < self.length:
            raise ValueError("momentum must lie in [0, length)")

    @property
    def n_vac(self):
        return self.length - self.n_a - self.n_b

    @property
    def dimension(self):
        return _multinomial(self.length, self.n_a, self.n_b)


@dataclass
class SectorGenerator:
    """Sparse generator block: duplicate-free COO triplets with no zero
    values, (row, col)-sorted in momentum blocks and in assembly order in
    sector and full-space generators."""

    length: int  # sites of the ring
    sector: Sector | None
    dimension: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    packs: np.ndarray = field(repr=False)
    momentum: int | None = None  # k of a block made by momentum_blocks

    def to_csr(self):
        return sp.csr_matrix(
            (self.vals, (self.rows, self.cols)),
            shape=(self.dimension, self.dimension),
        )

    def to_dense(self):
        mat = np.zeros((self.dimension, self.dimension), dtype=self.vals.dtype)
        mat[self.rows, self.cols] = self.vals  # triplets are duplicate-free
        return mat

    def column_sums(self):
        return np.asarray(self.to_csr().sum(axis=0)).ravel()

    def export_coo(self, stream):
        """One `row col re im` line per entry, (row, col)-sorted, 0-based,
        17 significant digits."""
        order = np.lexsort((self.cols, self.rows))
        for r, c, v in zip(self.rows[order], self.cols[order],
                           self.vals[order]):
            v = complex(v)
            stream.write(f"{r} {c} {v.real:.17g} {v.imag:.17g}\n")


def _sorted_coo(key, vals, dimension):
    """Deterministic (row, col)-sorted duplicate-free COO from the entry keys
    row * dimension + col, summing duplicates and dropping zeros (orbit
    folding in `momentum_blocks` makes both); rows and cols come back from
    the sorted keys, so only the keys and values are ever permuted."""
    if len(key) == 0:
        return key, key.copy(), vals
    order = np.argsort(key, kind="stable")
    key, vals = key[order], vals[order]
    del order
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    vals = np.add.reduceat(vals, first)
    keep = np.flatnonzero(vals != 0)
    key, vals = key[first[keep]], vals[keep]
    del first, keep
    rows = key // dimension
    key %= dimension
    return rows, key, vals


def sector_packs(sector):
    """Packed codes of the sector in ascending order.

    Built site by site from the right: the sorted codes of the last m sites
    holding a A's and b B's are three sorted blocks, led by an A, a B and a
    vacancy, so no code outside the sector is ever formed.
    """
    n_a, n_b, n_v = sector.n_a, sector.n_b, sector.n_vac
    codes = {(0, 0): np.zeros(1, dtype=np.int64)}
    for m in range(1, sector.length + 1):
        top = 3 ** (m - 1)
        nxt = {}
        for a in range(max(0, m - n_b - n_v), min(n_a, m) + 1):
            for b in range(max(0, m - a - n_v), min(n_b, m - a) + 1):
                children = ((a - 1, b), (a, b - 1), (a, b))
                nxt[(a, b)] = np.concatenate(
                    [digit * top + codes[key]
                     for digit, key in enumerate(children) if key in codes])
        codes = nxt
    return codes[(n_a, n_b)]


def assemble_moves(length, packs):
    """COO data of the master-equation generator on the given sorted
    configurations.

    Column convention: every right exchange c -> c' puts -1 at (row=c',
    col=c), and each configuration that can move gets its number of moves on
    the diagonal.  Returns (rows, cols, vals) in assembly order; the (row,
    col) pairs are unique and the values nonzero, since distinct bonds of one
    configuration reach distinct targets (at L = 2 the two bonds join the
    same sites, but only one of them holds g < d).
    """
    weight = 3 ** np.arange(length - 1, -1, -1, dtype=np.int64)  # of site j
    digits = np.empty((len(packs), length), dtype=np.int8)
    for j in range(length):
        digits[:, j] = packs // weight[j] % 3
    escape = np.zeros(len(packs))
    rows, cols = [], []
    for j in range(length):
        right = (j + 1) % length
        g, d = digits[:, j], digits[:, right]
        moves = g < d
        src = np.flatnonzero(moves)
        step = (d[src] - g[src]) * (weight[j] - weight[right])
        rows.append(np.searchsorted(packs, packs[src] + step))
        cols.append(src)
        escape += moves
    n_moves = sum(len(c) for c in cols)
    moving = np.flatnonzero(escape)
    rows.append(moving)
    cols.append(moving)
    vals = np.concatenate((np.full(n_moves, -1.0), escape[moving]))
    return np.concatenate(rows), np.concatenate(cols), vals


def _assemble(length, packs, sector):
    rows, cols, vals = assemble_moves(length, packs)
    return SectorGenerator(
        length=length, sector=sector, dimension=len(packs), rows=rows,
        cols=cols, vals=vals, packs=packs,
    )


def _full_space_packs(length):
    return np.arange(3 ** length, dtype=np.int64)


def build_hamiltonian_tasep(length, sector=None):
    """Generator of the whole ring or of one sector."""
    if length < 2:
        raise ValueError("need at least two sites")
    if sector is None:
        return _assemble(length, _full_space_packs(length), None)
    if sector.length != length:
        raise ValueError("sector length mismatch")
    return _assemble(length, sector_packs(sector), sector)


def translate_packed(x, length):
    """Shift content of every site one step to the right (site j -> j+1);
    `x` is one code or an array of codes."""
    return x // 3 + (x % 3) * 3 ** (length - 1)


def orbit_table(length, packs):
    """Translation orbits over a sorted configuration table.

    Returns (rep, shift, period) per configuration index: rep is the index of
    the orbit representative (minimal packed code), shift the number of
    translations taking the configuration onto the representative, period the
    orbit length.
    """
    best = packs.copy()
    shift = np.zeros(len(packs), dtype=np.int64)
    period = np.zeros(len(packs), dtype=np.int64)
    moved = packs
    for s in range(1, length + 1):
        moved = translate_packed(moved, length)
        lower = moved < best
        best[lower] = moved[lower]
        shift[lower] = s
        period[(period == 0) & (moved == packs)] = s
    return np.searchsorted(packs, best), shift, period


def translation_permutation(gen):
    """perm with perm[i] = index of the right-translated configuration i."""
    return np.searchsorted(gen.packs,
                           translate_packed(gen.packs, gen.length))


def momentum_blocks(gen, momenta):
    """Blocks of the generator on the translation eigenspaces exp(2 pi i k / L),
    one per k in `momenta`, all from one orbit table.

    Basis vectors are normalized sums over translation orbits; an orbit of
    period d contributes to momentum k iff k*d = 0 mod L.  Column a of a
    block is the generator applied to representative a, each entry folded
    onto its target's orbit with the phase of the shift reaching it.  For
    k = 0 and k = L/2 the phases are exactly +-1 and the block is real.
    """
    if gen.momentum is not None:
        raise ValueError("generator is already a momentum block")
    length = gen.length
    if any(not 0 <= k < length for k in momenta):
        raise ValueError("momentum out of range")
    packs = gen.packs
    rep, shift, period = orbit_table(length, packs)
    is_rep = rep == np.arange(len(packs))
    # only columns at orbit representatives enter any block
    on_rep = is_rep[gen.cols]
    src, dst = gen.cols[on_rep], gen.rows[on_rep]
    vals = gen.vals[on_rep] * np.sqrt(period[src] / period[dst])
    dst_rep, dst_shift = rep[dst], shift[dst]
    sec = gen.sector
    blocks = []
    for k in momenta:
        keep = is_rep & ((k * period) % length == 0)
        rep_rows = np.flatnonzero(keep)
        index = np.full(len(packs), -1, dtype=np.int64)
        index[rep_rows] = np.arange(len(rep_rows))
        omega = np.exp(2j * np.pi * k / length)
        phases = np.array([omega ** s for s in range(length)])
        if 2 * k % length == 0:
            phases = phases.real.round()
        sel = keep[src] & keep[dst_rep]
        rows, cols, block_vals = _sorted_coo(
            index[dst_rep[sel]] * len(rep_rows) + index[src[sel]],
            vals[sel] * phases[dst_shift[sel]], len(rep_rows))
        blocks.append(SectorGenerator(
            length=length,
            sector=None if sec is None else Sector(sec.length, sec.n_a,
                                                   sec.n_b, momentum=k),
            dimension=len(rep_rows), rows=rows, cols=cols, vals=block_vals,
            packs=packs[rep_rows], momentum=k,
        ))
    return blocks


def project_momentum(gen, k):
    """Block of the generator on the translation eigenspace exp(2 pi i k / L);
    see `momentum_blocks`."""
    return momentum_blocks(gen, [k])[0]


def all_sectors(length):
    """Every (n_a, n_b) sector of the ring."""
    out = []
    for n_a in range(length + 1):
        for n_b in range(length + 1 - n_a):
            out.append(Sector(length, n_a, n_b))
    return out
