"""Bell operator coefficients in the stabilizer basis and exact LHV bounds.

For a graph g and error weight t the Bell operator expands as

    B_t = (1/2^n) * sum_S k[S] * G_S,      k[S] = sum_{C coverable} (-1)^|C & S|

so k is the (unnormalized) Walsh-Hadamard transform of the coverable-set
indicator. A local-hidden-variable assignment gives each site's X and Y
observables independent signs (Z observables are fixed to +1; flipping signs
around any vertex shows the maximum is unchanged, and the unreduced 8^n scan
in `tests/oracles.py` re-checks that reduction by brute force). Writing each
stabilizer element as sign(S) times its letter string with X letters on S_X,
Y letters on S_Y, the assignment value is

    (1/2^n) * sum_S k[S] sign(S) (-1)^(|S_X & x_neg| + |S_Y & y_neg|)

The maximum over all 4^n assignments is one more Walsh-Hadamard transform
over the 2n sign variables, run in blocks of consecutive x_neg values: flip
the weights by the x parity the block fixes, sum them onto a grid of
(low X bits, Y support) cells, transform the grid over the low x_neg bits and
the block over y_neg. Memory stays at about BLOCK_ELEMENTS entries whatever n
is, and the entries are int16 whenever sum|w| < 2^15 (every table at n <= 9)
and int32 otherwise.

All LHV values are integers over 2^n and are returned as exact `Dyadic`s.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

import numpy as np

from .coverable import coverable_set
from .dyadic import Dyadic
from .graphs import Graph

BLOCK_ELEMENTS = 1 << 18  # assignment values per engine block: 0.5 MB at int16, 1 MB at int32


def fwht_inplace(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform over subset-parity characters.

    Transforms along the first axis, so each column of a 2-D array is one
    transform; the butterflies then run over whole contiguous rows, which is
    several times faster than short strided runs along the last axis.
    """
    size = a.shape[0]
    cols = a.size // size if size else 0
    h = 1
    while h < size:
        b = a.reshape(-1, 2, h * cols)
        x = b[:, 0, :].copy()
        y = b[:, 1, :]
        np.add(x, y, out=b[:, 0, :])
        np.subtract(x, y, out=y)
        h *= 2
    return a


@dataclass(frozen=True, eq=False)
class StabilizerTable:
    """Per-subset data for all 2^n stabilizer elements of one graph."""

    n: int
    nbhd: np.ndarray   # z support of G_S, indexed by S
    signs: np.ndarray  # +-1 letter-string sign of G_S
    sx: np.ndarray     # X-letter support: S minus nbhd
    sy: np.ndarray     # Y-letter support: S & nbhd


@lru_cache(maxsize=512)
def stabilizer_table(g: Graph) -> StabilizerTable:
    """Signs and letter supports of every stabilizer element, by doubling.

    Splitting off the highest vertex v of S gives G_S = G_{S-v} * G_v, which
    adds 2 to the phase exactly when v lies in the set-neighborhood of S-v.
    So the subsets with highest vertex v are the ones below 2^v with v added,
    and each vertex doubles the arrays. Cross-checked in the tests against
    the per-element Pauli products in `tests/oracles.py`.
    """
    nbhd = np.zeros(1, dtype=np.int64)
    half_phase = np.zeros(1, dtype=np.int64)  # phase/2 mod 2
    for v, row in enumerate(g.adj):
        half_phase = np.concatenate((half_phase, half_phase ^ (nbhd >> v & 1)))
        nbhd = np.concatenate((nbhd, nbhd ^ row))
    subsets = np.arange(1 << g.n, dtype=np.int64)
    sy = subsets & nbhd
    # sign = i^phase * (-1)^(y_count/2); y counts are even (handshake)
    y_half = np.bitwise_count(sy).astype(np.int64) >> 1
    signs = np.where((half_phase ^ y_half) & 1, -1, 1).astype(np.int64)
    return StabilizerTable(g.n, nbhd, signs, subsets & ~nbhd, sy)


@dataclass(frozen=True, eq=False)
class BellCoefficients:
    """Integer table k with B_t = (1/2^n) sum_S k[S] G_S."""

    n: int
    t: int
    k: np.ndarray = field(repr=False)

    @property
    def coverable_count(self) -> int:
        return int(self.k[0])


def bell_coefficients(g: Graph, t: int) -> BellCoefficients:
    """Transform the coverable indicator into stabilizer-basis coefficients."""
    cov = coverable_set(g, t)
    k = fwht_inplace(cov.indicator.copy())
    return BellCoefficients(g.n, t, k)


@dataclass(frozen=True)
class LhvAssignment:
    """Sites whose X (resp. Y) observable is assigned -1; Z is +1 throughout."""

    x_neg: int
    y_neg: int


@dataclass(frozen=True)
class LhvResult:
    bound: Dyadic
    argmax: LhvAssignment
    valid: bool  # bound < 1: the inequality exists and is violated


def _weights(g: Graph, bc: BellCoefficients) -> np.ndarray:
    table = stabilizer_table(g)
    return bc.k * table.signs


def lhv_value(g: Graph, bc: BellCoefficients, a: LhvAssignment) -> Dyadic:
    """Value of the Bell operator under one sign assignment, exactly."""
    table = stabilizer_table(g)
    parity = np.bitwise_count(table.sx & a.x_neg) + np.bitwise_count(table.sy & a.y_neg)
    terms = _weights(g, bc) * np.where(parity & 1, -1, 1)
    return Dyadic(int(terms.sum()), g.n)


def _block_dtype(total: int) -> type[np.signedinteger]:
    """Narrowest engine accumulator for weights with sum|w| = total.

    Every entry the engine forms is a signed sum of distinct weights of the
    table: a flipped weight, a reduceat partial sum onto one grid cell, and
    every butterfly stage of both transforms, which adds or subtracts
    entries holding disjoint sets of weights. So total bounds them all. By
    Parseval on k, total = sum|k| <= 2^n sqrt(|C|) <= 2^(1.5n): int16 for
    every n <= 9, int32 for every n <= 16.
    """
    if total < 1 << 15:
        return np.int16
    if total < 1 << 31:
        return np.int32
    raise OverflowError(f"sum of |weights| {total} does not fit the int32 accumulator")


def _value_blocks(g: Graph, t: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (x0, values) with values[y_neg, r] the numerator at x_neg = x0 + r.

    Blocks come in ascending x0 and hold 2^n * cols <= BLOCK_ELEMENTS
    entries of `_block_dtype` once n > 9; below that a single block covers
    everything.
    """
    n = g.n
    table = stabilizer_table(g)
    w = _weights(g, bell_coefficients(g, t))
    dtype = _block_dtype(int(np.abs(w).sum()))
    cols = min(1 << n, max(1, BLOCK_ELEMENTS >> n))
    # x0 is a multiple of cols, so the parity of sx & (x0 + r) splits into a
    # sign per block and the parity of sx & r, which only sees the low bits
    # of sx. Nonzero weights sorted by (Y support, low X bits): reduceat sums
    # each run onto its cell of the grid, one row per low X pattern and one
    # column per Y support, and a transform down the grid's rows then
    # supplies the sx & r parities
    keep = np.flatnonzero(w)
    sx, sy = table.sx[keep], table.sy[keep]
    low = sx & (cols - 1)
    order = np.lexsort((low, sy))
    w, sx, sy, low = w[keep[order]].astype(dtype), sx[order], sy[order], low[order]
    new_y = np.concatenate(([True], sy[1:] != sy[:-1]))
    starts = np.flatnonzero(new_y | np.concatenate(([True], low[1:] != low[:-1])))
    cells = (low[starts], np.cumsum(new_y)[starts] - 1)
    supports = sy[new_y]
    for x0 in range(0, 1 << n, cols):
        w_x0 = w * (1 - 2 * (np.bitwise_count(sx & x0) & 1).view(np.int8))
        grid = np.zeros((cols, len(supports)), dtype=dtype)
        grid[cells] = np.add.reduceat(w_x0, starts, dtype=dtype)
        block = np.zeros((1 << n, cols), dtype=dtype)
        block[supports] = fwht_inplace(grid).T
        yield x0, fwht_inplace(block)


def lhv_value_table(g: Graph, t: int) -> np.ndarray:
    """Numerators of all 4^n assignment values, indexed (x_neg << n) | y_neg.

    Always int64, whatever width the engine blocks used.
    """
    size = 1 << g.n
    out = np.empty((size, size), dtype=np.int64)
    for x0, block in _value_blocks(g, t):
        out[x0:x0 + block.shape[1]] = block.T
    return out.ravel()


def lhv_bound(g: Graph, t: int) -> LhvResult:
    """Exact LHV bound: maximum assignment value, with its first attainer.

    Ties go to the least (x_neg << n) | y_neg: blocks arrive in ascending
    x_neg, a later block replaces the running best only when strictly
    larger, and inside that block the first column (x_neg) holding its
    maximum wins and then that column's first row (y_neg).
    """
    n = g.n
    best = best_idx = None
    for x0, block in _value_blocks(g, t):
        value = int(block.max())
        if best is None or value > best:
            r = int((block == value).any(axis=0).argmax())
            best, best_idx = value, ((x0 + r) << n) | int(block[:, r].argmax())
    bound = Dyadic(best, n)
    return LhvResult(bound, LhvAssignment(best_idx >> n, best_idx & ((1 << n) - 1)), bound < 1)


def family_oracle_star_copies(m: int, t: int) -> Dyadic:
    """Closed-form LHV bounds for disjoint unions of m three-vertex stars.

    t=1:    (3+m) * 3^(m-1) / 4^m   (equals 1 at m=1, where no inequality exists)
    t=m-1:  1 - 4^(-m)
    The two rules agree at m=2 (both 15/16).
    """
    if m < 1:
        raise ValueError("m must be positive")
    if t == 1:
        return Dyadic((3 + m) * 3 ** (m - 1), 2 * m)
    if t == m - 1:
        return Dyadic(4**m - 1, 2 * m)
    raise ValueError(f"no closed form for m={m}, t={t}")


def family_oracle_complete(n: int, t: int) -> Dyadic:
    """Complete graphs admit no error-tolerating inequality: bound 1 for t >= 1."""
    if t < 1:
        raise ValueError("closed form covers t >= 1 only")
    if n < 2:
        raise ValueError("need at least 2 vertices")
    return Dyadic(1)
