"""Bell operator coefficients in the stabilizer basis and exact LHV bounds.

For a graph g and error weight t the Bell operator expands as

    B_t = (1/2^n) * sum_S k[S] * G_S,      k[S] = sum_{C coverable} (-1)^|C & S|

so k is the (unnormalized) Walsh-Hadamard transform of the coverable-set
indicator. A local-hidden-variable assignment gives each site's X and Y
observables independent signs (Z observables are fixed to +1; flipping signs
around any vertex shows the maximum is unchanged, and `lhv_bound_full`
re-checks that reduction by brute force). Writing each stabilizer element as
sign(S) times its letter string with X letters on S_X, Y letters on S_Y, the
assignment value is

    (1/2^n) * sum_S k[S] sign(S) (-1)^(|S_X & x_neg| + |S_Y & y_neg|)

The maximum over all 4^n assignments is one more Walsh-Hadamard transform
over the 2n sign variables, run in blocks of x_neg values: flip the weights by
their x parity, sum them onto their Y supports and transform over y_neg.
Memory stays at about BLOCK_ELEMENTS entries whatever n is.

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

BLOCK_ELEMENTS = 1 << 20  # int32 assignment values per engine block (4 MB)


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
    """Signs and letter supports of every stabilizer element, by recurrence.

    Splitting off the highest vertex v of S gives G_S = G_{S-v} * G_v, which
    adds 2 to the phase exactly when v lies in the set-neighborhood of S-v.
    Cross-checked in the tests against per-element products in `pauli`.
    """
    n = g.n
    size = 1 << n
    nbhd = np.zeros(size, dtype=np.int64)
    half_phase = np.zeros(size, dtype=np.int64)  # phase/2 mod 2
    nb = nbhd  # local alias
    adj = g.adj
    for s in range(1, size):
        v = s.bit_length() - 1
        rest = s ^ (1 << v)
        nb_rest = int(nb[rest])
        half_phase[s] = half_phase[rest] ^ (nb_rest >> v & 1)
        nb[s] = nb_rest ^ adj[v]
    subsets = np.arange(size, dtype=np.int64)
    sy = subsets & nbhd
    # sign = i^phase * (-1)^(y_count/2); y counts are even (handshake)
    y_half = np.bitwise_count(sy).astype(np.int64) >> 1
    signs = np.where((half_phase ^ y_half) & 1, -1, 1).astype(np.int64)
    return StabilizerTable(n, nbhd, signs, subsets & ~nbhd, sy)


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
    """Sites whose X (resp. Y) observable is assigned -1; Z is +1 throughout.

    z_neg is only ever nonzero in results of the unreduced brute-force bound.
    """

    x_neg: int
    y_neg: int
    z_neg: int = 0


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
    if a.z_neg:
        sz = table.nbhd & ~np.arange(1 << g.n, dtype=np.int64)
        parity = parity + np.bitwise_count(sz & a.z_neg)
    terms = _weights(g, bc) * np.where(parity & 1, -1, 1)
    return Dyadic(int(terms.sum()), g.n)


def _value_blocks(g: Graph, t: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (x0, values) with values[y_neg, r] the numerator at x_neg = x0 + r.

    Blocks come in ascending x0 and hold 2^n * cols <= BLOCK_ELEMENTS int32
    entries once n > 10; below that a single block covers everything.
    """
    n = g.n
    table = stabilizer_table(g)
    w = _weights(g, bell_coefficients(g, t))
    # Parseval on k: sum|w| = sum|k| <= 2^n sqrt(|C|) <= 2^(1.5n), which bounds
    # every partial sum below, so int32 holds them for every n <= 16
    assert int(np.abs(w).sum()) < 1 << 31, "int32 accumulator would overflow"
    # nonzero weights only, sorted by Y support: reduceat then sums each
    # support's run, and the sums land on their rows of the block
    keep = np.flatnonzero(w)
    keep = keep[np.argsort(table.sy[keep], kind="stable")]
    w = w[keep].astype(np.int32)
    sx = table.sx[keep].astype(np.uint16)
    sy = table.sy[keep]
    starts = np.flatnonzero(np.diff(sy, prepend=-1))
    cols = min(1 << n, max(1, BLOCK_ELEMENTS >> n))
    # x0 is a multiple of cols, so the parity of sx & (x0 + r) splits in two
    low = np.arange(cols, dtype=np.uint16)[:, None]
    flip_low = np.where(np.bitwise_count(low & sx) & 1, np.int8(-1), np.int8(1))
    for x0 in range(0, 1 << n, cols):
        w_high = np.where(np.bitwise_count(sx & x0) & 1, -w, w)
        block = np.zeros((1 << n, cols), dtype=np.int32)
        block[sy[starts]] = np.add.reduceat(flip_low * w_high, starts, axis=1).T
        yield x0, fwht_inplace(block)


def lhv_value_table(g: Graph, t: int) -> np.ndarray:
    """Numerators of all 4^n assignment values, indexed (x_neg << n) | y_neg."""
    return np.concatenate([block.T for _, block in _value_blocks(g, t)]).ravel()


def lhv_bound(g: Graph, t: int) -> LhvResult:
    """Exact LHV bound: maximum assignment value, with its first attainer.

    Ties go to the least (x_neg << n) | y_neg: blocks arrive in ascending
    x_neg, inside a block the first column (x_neg) reaching the block maximum
    wins and then its first row (y_neg), and a later block replaces the
    running best only when strictly larger.
    """
    n = g.n
    best = best_idx = None
    for x0, block in _value_blocks(g, t):
        col_max = block.max(axis=0)
        r = int(col_max.argmax())
        value = int(col_max[r])
        if best is None or value > best:
            best, best_idx = value, ((x0 + r) << n) | int(block[:, r].argmax())
    bound = Dyadic(best, n)
    return LhvResult(bound, LhvAssignment(best_idx >> n, best_idx & ((1 << n) - 1)), bound < 1)


def lhv_bound_full(g: Graph, t: int) -> LhvResult:
    """Unreduced oracle over independent X, Y and Z signs (8^n assignments).

    Exists to validate the Z=+1 reduction; n is capped at 6.
    """
    if g.n > 6:
        raise ValueError(f"full assignment scan is 8^n; n={g.n} exceeds 6")
    n = g.n
    bc = bell_coefficients(g, t)
    table = stabilizer_table(g)
    w = bc.k * table.signs
    sz = table.nbhd & ~np.arange(1 << n, dtype=np.int64)
    h = np.zeros(1 << (3 * n), dtype=np.int64)
    h[(table.sx << 2 * n) | (table.sy << n) | sz] = w
    values = fwht_inplace(h)
    idx = int(values.argmax())  # first maximum = lexicographically least assignment
    mask = (1 << n) - 1
    bound = Dyadic(int(values[idx]), n)
    return LhvResult(bound, LhvAssignment(idx >> 2 * n, (idx >> n) & mask, idx & mask), bound < 1)


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


def identity_table(n: int) -> np.ndarray:
    """Coefficient table of the identity operator on n qubits."""
    k = np.zeros(1 << n, dtype=np.int64)
    k[0] = 1 << n
    return k


def tensor_tables(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Coefficient table of A (x) B on the disjoint union of their graphs.

    `low` lives on the low vertex block, `high` on the block above it;
    stabilizer elements of a disjoint union factor, so tables combine by
    outer product.
    """
    return np.kron(high, low)
