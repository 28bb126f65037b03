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
over the 2n sign variables. One engine (`_value_blocks`) runs it for a batch
of graphs given as a (B, n) array of adjacency rows, in blocks whose columns
are (graph, x_neg) pairs: for n <= 9 a block holds all 4^n values of each of
up to 4^(9-n) graphs, beyond that one graph's values span several blocks of
consecutive x_neg. Per block, flip the weights by the x parity the block
fixes, sum them onto a grid of (low X bits, graph and Y support) cells,
transform the grid over the low x_neg bits and the block over y_neg; both
transforms run down wide rows. The stabilizer tables, coverable indicators
and coefficients are built with a leading batch axis, one block's graphs at
a time, so memory stays at about BLOCK_ELEMENTS entries whatever n and B
are. A block's entries are int16 when the sum|w| of its widest graph is
below 2^15 (every table at n <= 9) and int32 otherwise. `lhv_bounds` is the
batched call, and `lhv_bound` and `lhv_value_table` are one-graph calls
into the same engine.

All LHV values are integers over 2^n and are returned as exact `Dyadic`s.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .coverable import coverable_indicators
from .dyadic import Dyadic
from .graphs import Graph, check_vertex_count

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
    """Per-subset data for all 2^n stabilizer elements, indexed by S on the
    last axis; built for many graphs at once, each array has a leading
    batch axis."""

    n: int
    nbhd: np.ndarray   # z support of G_S
    signs: np.ndarray  # +-1 letter-string sign of G_S
    sx: np.ndarray     # X-letter support: S minus nbhd
    sy: np.ndarray     # Y-letter support: S & nbhd


def _stabilizer_tables(n: int, adj: np.ndarray) -> StabilizerTable:
    """Signs and letter supports of every stabilizer element, by doubling.

    adj is a (B, n) array of adjacency rows. Splitting off the highest
    vertex v of S gives G_S = G_{S-v} * G_v, which adds 2 to the phase
    exactly when v lies in the set-neighborhood of S-v. So the subsets with
    highest vertex v are the ones below 2^v with v added, and each vertex
    doubles the arrays. Cross-checked in the tests against the per-element
    Pauli products in `tests/oracles.py`.
    """
    nbhd = np.zeros((len(adj), 1), dtype=np.int64)
    half_phase = np.zeros_like(nbhd)  # phase/2 mod 2
    for v in range(n):
        half_phase = np.concatenate((half_phase, half_phase ^ (nbhd >> v & 1)), axis=1)
        nbhd = np.concatenate((nbhd, nbhd ^ adj[:, v:v + 1]), axis=1)
    subsets = np.arange(1 << n, dtype=np.int64)
    sy = subsets & nbhd
    # sign = i^phase * (-1)^(y_count/2); y counts are even (handshake)
    y_half = np.bitwise_count(sy).astype(np.int64) >> 1
    signs = np.where((half_phase ^ y_half) & 1, -1, 1).astype(np.int64)
    return StabilizerTable(n, nbhd, signs, subsets & ~nbhd, sy)


def _one(g: Graph) -> np.ndarray:
    """g as a batch of one: its adjacency rows in a (1, n) array."""
    return np.array([g.adj], dtype=np.int64)


def stabilizer_table(g: Graph) -> StabilizerTable:
    """The stabilizer table of one graph, arrays indexed by S."""
    table = _stabilizer_tables(g.n, _one(g))
    return StabilizerTable(g.n, table.nbhd[0], table.signs[0], table.sx[0], table.sy[0])


@dataclass(frozen=True, eq=False)
class BellCoefficients:
    """Integer table k with B_t = (1/2^n) sum_S k[S] G_S."""

    n: int
    t: int
    k: np.ndarray = field(repr=False)

    @property
    def coverable_count(self) -> int:
        return int(self.k[0])


def _coefficients(n: int, adj: np.ndarray, t: int) -> np.ndarray:
    """k of each graph, shape (B, 2^n): the coverable indicators, transformed."""
    return fwht_inplace(coverable_indicators(n, adj, t).T.copy()).T


def bell_coefficients(g: Graph, t: int) -> BellCoefficients:
    """Transform the coverable indicator into stabilizer-basis coefficients."""
    return BellCoefficients(g.n, t, _coefficients(g.n, _one(g), t)[0])


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


def lhv_value(g: Graph, bc: BellCoefficients, a: LhvAssignment) -> Dyadic:
    """Value of the Bell operator under one sign assignment, exactly."""
    table = stabilizer_table(g)
    parity = np.bitwise_count(table.sx & a.x_neg) + np.bitwise_count(table.sy & a.y_neg)
    terms = bc.k * table.signs * np.where(parity & 1, -1, 1)
    return Dyadic(int(terms.sum()), g.n)


def _block_dtype(total: int) -> type[np.signedinteger]:
    """Narrowest engine accumulator for weights with sum|w| = total.

    Every entry the engine forms is a signed sum of distinct weights of one
    graph's table: a flipped weight, a reduceat partial sum onto one grid
    cell, and every butterfly stage of both transforms, which adds or
    subtracts entries holding disjoint sets of that graph's weights (the
    graphs of a block never mix). So total bounds them all. By Parseval on
    k, total = sum|k| <= 2^n sqrt(|C|) <= 2^(1.5n): int16 for every n <= 9,
    int32 for every n <= 16.
    """
    if total < 1 << 15:
        return np.int16
    if total < 1 << 31:
        return np.int32
    raise OverflowError(f"sum of |weights| {total} does not fit the int32 accumulator")


def _weights(n: int, adj: np.ndarray, t: int) -> tuple[StabilizerTable, np.ndarray]:
    """Stabilizer tables of the graphs and their weights k[S] sign(S), (B, 2^n)."""
    table = _stabilizer_tables(n, adj)
    return table, _coefficients(n, adj, t) * table.signs


def _value_blocks(n: int, adj: np.ndarray, t: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (j0, x0, values) with values[y_neg, j, r] the numerator of graph
    j0 + j at x_neg = x0 + r.

    Once n > 9 a block holds one graph and 2^n * cols = BLOCK_ELEMENTS
    entries, and blocks come in ascending x0; below that a block holds all
    4^n values of each of up to BLOCK_ELEMENTS / 4^n graphs (x0 = 0), and
    blocks come in ascending j0. Tables and weights are built for one
    block's graphs at a time, and a block's entries are of the `_block_dtype`
    of its widest graph.
    """
    cols = min(1 << n, max(1, BLOCK_ELEMENTS >> n))  # x_neg values per block
    per_block = max(1, BLOCK_ELEMENTS >> 2 * n)       # graphs per block
    for j0 in range(0, len(adj), per_block):
        table, w = _weights(n, adj[j0:j0 + per_block], t)
        dtype = _block_dtype(int(np.abs(w).sum(axis=1).max()))
        # x0 is a multiple of cols, so the parity of sx & (x0 + r) splits
        # into a sign per block and the parity of sx & r, which only sees the
        # low bits of sx. Nonzero weights sorted by (graph, Y support, low X
        # bits): reduceat sums each run onto its cell of the grid, one row per
        # low X pattern and one column per (graph, Y support), and a
        # transform down the grid's rows then supplies the sx & r parities.
        # Where a block holds whole graphs (n <= 9) the low bits are all of
        # sx, which with sy determines S, so every run is one weight
        j, s = np.nonzero(w)
        sx, key = table.sx[j, s], j << n | table.sy[j, s]
        low = sx & (cols - 1)
        order = np.lexsort((low, key))
        w, sx, key, low = w[j[order], s[order]].astype(dtype), sx[order], key[order], low[order]
        new_col = np.concatenate(([True], key[1:] != key[:-1]))
        starts = np.flatnonzero(new_col | np.concatenate(([True], low[1:] != low[:-1])))
        cells = (low[starts], np.cumsum(new_col)[starts] - 1)
        col_graph, col_support = key[new_col] >> n, key[new_col] & ((1 << n) - 1)
        for x0 in range(0, 1 << n, cols):
            w_x0 = w * (1 - 2 * (np.bitwise_count(sx & x0) & 1).view(np.int8))
            grid = np.zeros((cols, len(col_graph)), dtype=dtype)
            grid[cells] = np.add.reduceat(w_x0, starts, dtype=dtype)
            block = np.zeros((1 << n, len(table.sx), cols), dtype=dtype)
            block[col_support, col_graph] = fwht_inplace(grid).T
            yield j0, x0, fwht_inplace(block)


def lhv_value_table(g: Graph, t: int) -> np.ndarray:
    """Numerators of all 4^n assignment values, indexed (x_neg << n) | y_neg.

    Always int64, whatever width the engine blocks used.
    """
    size = 1 << g.n
    out = np.empty((size, size), dtype=np.int64)
    for _, x0, block in _value_blocks(g.n, _one(g), t):
        out[x0:x0 + block.shape[2]] = block[:, 0].T
        del block  # or it lives on while the next block is built
    return out.ravel()


def _adjacency(n: int, adj) -> np.ndarray:
    """adj as a (B, n) int64 array of simple-graph adjacency rows, checked."""
    check_vertex_count(n)
    rows = np.asarray(adj, dtype=np.int64)
    if rows.shape == (0,):
        rows = rows.reshape(0, n)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"adjacency array of shape {rows.shape}; expected (B, {n})")
    bits = rows[:, :, None] >> np.arange(n) & 1
    if ((rows >> n).any() or bits.diagonal(axis1=1, axis2=2).any()
            or (bits != bits.transpose(0, 2, 1)).any()):
        raise ValueError(f"adjacency rows are not simple graphs on {n} vertices")
    return rows


def lhv_bounds(n: int, adj, t: int) -> list[LhvResult]:
    """Exact LHV bound of each graph given as a (B, n) array of adjacency rows.

    Each bound is the maximum assignment value, with its first attainer:
    ties go to the least (x_neg << n) | y_neg. A graph's blocks arrive in
    ascending x_neg, a later block replaces its running best only when
    strictly larger, and inside that block the first column (x_neg) holding
    its maximum wins and then that column's first row (y_neg). An empty
    batch gives []; an array of another shape, or rows that are not the
    adjacency rows of a simple graph on n vertices, raise ValueError.
    """
    rows = _adjacency(n, adj)
    best = np.full(len(rows), np.iinfo(np.int64).min)
    best_idx = np.zeros(len(rows), dtype=np.int64)
    for j0, x0, block in _value_blocks(n, rows, t):
        # a block of several graphs holds all of their values; one graph's
        # later blocks (n > 9) replace its running best only when strictly
        # larger, which is tested on the whole block first: numpy reduces
        # their narrow rows slowly by columns
        if block.shape[1] > 1 or block.max() > best[j0]:
            col_max = block.max(axis=0)  # (graph, column)
            value = col_max.max(axis=1)
            r = (col_max == value[:, None]).argmax(axis=1)
            y = (block[:, np.arange(len(r)), r] == value).argmax(axis=0)
            best[j0:j0 + len(value)] = value
            best_idx[j0:j0 + len(value)] = (x0 + r) << n | y
        del block  # or it lives on while the next block is built
    mask = (1 << n) - 1
    results = []
    for value, idx in zip(best.tolist(), best_idx.tolist()):
        bound = Dyadic(value, n)
        results.append(LhvResult(bound, LhvAssignment(idx >> n, idx & mask), bound < 1))
    return results


def lhv_bound(g: Graph, t: int) -> LhvResult:
    """Exact LHV bound of one graph, as `lhv_bounds` gives it."""
    return lhv_bounds(g.n, _one(g), t)[0]


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
