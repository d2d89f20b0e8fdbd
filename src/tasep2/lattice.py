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

CP reverses the site order and maps digit d to 2 - d (A <-> vacancy, B
fixed).  It turns every move into a move, so it commutes with H, and
CP T CP^-1 = T^-1.  It takes sector (L, n_a, n_b) to (L, n_vac, n_b): a
sector with n_a = n_vac, the paper's (L, L/3, L/3) among them, is mapped
onto itself, and `momentum_blocks` builds each of its momentum blocks as a
real matrix, in one fold.  (10,3,3) is not: CP maps it onto (10,4,3).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

REAL_TOL = 1e-12  # roundoff in a real form, relative to its largest entry


@dataclass(frozen=True)
class Sector:
    """Conserved-number block: n_a first-class and n_b second-class particles."""

    length: int
    n_a: int
    n_b: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if self.n_a < 0 or self.n_b < 0 or self.n_a + self.n_b > self.length:
            raise ValueError(
                f"invalid sector counts ({self.n_a}, {self.n_b}) for L={self.length}"
            )

    @property
    def n_vac(self):
        return self.length - self.n_a - self.n_b


@dataclass
class SectorGenerator:
    """Sparse generator block: duplicate-free COO triplets with no zero
    values, (row, col)-sorted in momentum blocks and their real forms and in
    assembly order in sector and full-space generators."""

    length: int  # sites of the ring
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    packs: np.ndarray = field(repr=False)
    momentum: int | None = None  # k of a block made by momentum_blocks

    @property
    def dimension(self):
        return len(self.packs)

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


def site_weights(length):
    """Place value 3^(L-1-j) of site j in a packed code."""
    return 3 ** np.arange(length - 1, -1, -1, dtype=np.int64)


def assemble_moves(length, packs):
    """COO data of the master-equation generator on the columns of the given
    sorted configurations.

    Column convention: every right exchange c -> c' puts -1 at (row=c',
    col=c), and each configuration that can move gets its number of moves on
    the diagonal.  Returns (targets, cols, vals) in assembly order: each
    entry's row as its packed code, its column as a position in `packs`.
    The (row, col) pairs are unique and the values nonzero, since distinct
    bonds of one configuration reach distinct targets (at L = 2 the two
    bonds join the same sites, but only one of them holds g < d).
    """
    if length < 2:
        raise ValueError("need at least two sites")
    weight = site_weights(length)
    digits = np.empty((len(packs), length), dtype=np.int8)
    for j in range(length):
        digits[:, j] = packs // weight[j] % 3
    escape = np.zeros(len(packs))
    targets, cols = [], []
    for j in range(length):
        right = (j + 1) % length
        g, d = digits[:, j], digits[:, right]
        moves = g < d
        src = np.flatnonzero(moves)
        step = (d[src] - g[src]) * (weight[j] - weight[right])
        targets.append(packs[src] + step)
        cols.append(src)
        escape += moves
    n_moves = sum(len(c) for c in cols)
    moving = np.flatnonzero(escape)
    targets.append(packs[moving])
    cols.append(moving)
    vals = np.concatenate((np.full(n_moves, -1.0), escape[moving]))
    return np.concatenate(targets), np.concatenate(cols), vals


def build_hamiltonian_tasep(length, sector=None):
    """Generator of the whole ring or of one sector."""
    if sector is None:
        packs = np.arange(3 ** length, dtype=np.int64)
    elif sector.length != length:
        raise ValueError("sector length mismatch")
    else:
        packs = sector_packs(sector)
    targets, cols, vals = assemble_moves(length, packs)
    return SectorGenerator(length, np.searchsorted(packs, targets), cols,
                           vals, packs)


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


def momentum_blocks(length, packs, momenta):
    """Blocks of the generator on the sorted codes `packs` (a sector's, or
    the full space's) on the translation eigenspaces exp(2 pi i k / L), one
    per k in `momenta`, each built in the basis it is solved in, all from
    one orbit table.  Arguments are checked at the call; the blocks are
    yielded one at a time, so a caller that solves each before asking for
    the next holds at most two.

    Basis vectors are normalized sums over translation orbits; an orbit of
    period d contributes to momentum k iff k*d = 0 mod L.  Column a of a
    block is the generator applied to representative a, so moves are
    assembled for the representatives alone, and each entry is folded
    onto its target's orbit with the phase of the shift reaching it.  For
    k = 0 and k = L/2 the phases are exactly +-1 and the block is real.

    Every other nonempty block of a CP-closed generator is built as its real
    form R = U^H B U, with B the block above and U unitary, and has float
    values, which no other block with 2k mod L != 0 has.  CP maps a sector
    onto itself (n_a = n_vac) or off it, so the generator is CP-closed when
    the mirror CP a of every representative is among its codes.
    Representative a of period d stands for |a> = d^(-1/2) sum_s w^s T^s a,
    w = exp(2 pi i k / L).  With b = rep(CP a) and t the translations taking
    CP a onto b, both read from the orbit table, Theta = CP conj maps |a> to
    w^t |b>; Theta is an antiunitary involution commuting with B, so B is
    real on its fixed vectors: (|a> + w^t |b>)/sqrt 2 at index a and
    i(|a> - w^t |b>)/sqrt 2 at index b for a < b, and exp(i pi k t / L) |a>
    for a = b.  U has at most two entries per row, so each unfolded entry
    of B gives at most four of R, and R is folded once.  An imaginary part
    above roundoff raises; entries of at most REAL_TOL times the largest
    are dropped.
    """
    if any(not 0 <= k < length for k in momenta):
        raise ValueError("momentum out of range")
    rep, shift, period = orbit_table(length, packs)
    is_rep = rep == np.arange(len(packs))
    # from here on an index is a position among the representatives
    rep_packs = packs[is_rep]
    targets, src, vals = assemble_moves(length, rep_packs)
    dst = np.searchsorted(packs, targets)
    vals *= np.sqrt(period[is_rep][src] / period[dst])
    local = np.cumsum(is_rep) - 1
    dst_rep, dst_shift, period = local[rep[dst]], shift[dst], period[is_rep]
    pair = None
    if any(2 * k % length for k in momenta):
        # CP a = 3^L - 1 - (a with its sites in reverse order)
        low = 3 ** np.arange(length, dtype=np.int64)
        mirror = (3 ** length - 1
                  - rep_packs[:, None] // site_weights(length) % 3 @ low)
        at = np.searchsorted(packs, mirror)
        if np.array_equal(packs.take(at, mode="clip"), mirror):
            pair, turns = local[rep[at]], shift[at]

    def block(k):
        keep = (k * period) % length == 0
        index = np.cumsum(keep) - 1
        dim = np.count_nonzero(keep)
        omega = np.exp(2j * np.pi * k / length)
        phases = np.array([omega ** s for s in range(length)])
        if 2 * k % length == 0:
            phases = phases.real.round()
        sel = keep[src] & keep[dst_rep]
        r, c = index[dst_rep[sel]], index[src[sel]]
        data = vals[sel] * phases[dst_shift[sel]]
        real = pair is not None and 2 * k % length != 0 and dim > 0
        if not real:
            return SectorGenerator(length, *_fold(r * dim + c, data, dim),
                                   rep_packs[keep], momentum=k)
        # U[a, a] and U[a, pair a]; a self-paired row has only the first
        mate, ident = index[pair[keep]], np.arange(dim)
        twist = np.exp(1j * np.pi * k / length * turns[keep])  # w^(t/2)
        half = np.sqrt(0.5)
        lower, alone = ident < mate, ident == mate
        own = np.where(lower, half, -1j * half * twist * twist)
        own[alone] = twist[alone]
        other = np.where(lower, 1j * half, half * twist * twist)
        other[alone] = 0
        # R[i, j] += conj(U[r, i]) B[r, c] U[c, j], i in {r, pair r}, j in
        # {c, pair c}: four entries per entry of B, handed to `_fold` as
        # temporaries it can free once sorted
        row, col, data = _fold(
            np.concatenate([i * dim + j for i in (r, mate[r])
                            for j in (c, mate[c])]),
            (np.stack((own[r], other[r])).conj()[:, None] * data
             * np.stack((own[c], other[c]))).ravel(), dim)
        floor = REAL_TOL * np.abs(data).max(initial=0)
        imag = np.abs(data.imag).max(initial=0)
        if imag > floor:
            raise ValueError(f"real form of k = {k} block is not real: "
                             f"|Im| up to {imag:.3e}")
        big = np.abs(data.real) > floor
        return SectorGenerator(length, row[big], col[big], data.real[big],
                               rep_packs[keep], momentum=k)

    return (block(k) for k in momenta)


def _fold(key, vals, dim):
    """Duplicate-free (row, col)-sorted triplets with no zero values from
    entries at key = row * dim + col: a stable sort on the key, a sum over
    each run of one key, the zeros dropped."""
    order = key.argsort(kind="stable")
    key, vals = key[order], vals[order]
    first = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    first = first.nonzero()[0]
    data = np.add.reduceat(vals, first)
    nonzero = data != 0
    row, col = np.divmod(key[first[nonzero]], dim)
    return row, col, data[nonzero]


def project_momentum(sector, k):
    """Block of the sector's generator on the translation eigenspace
    exp(2 pi i k / L); see `momentum_blocks`.  No generator of the whole
    sector is built."""
    return next(momentum_blocks(sector.length, sector_packs(sector), [k]))


def all_sectors(length):
    """Every (n_a, n_b) sector of the ring."""
    out = []
    for n_a in range(length + 1):
        for n_b in range(length + 1 - n_a):
            out.append(Sector(length, n_a, n_b))
    return out
