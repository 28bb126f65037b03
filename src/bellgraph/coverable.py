"""t-coverable sets: subsets delta ^ N(omega) with |omega u delta| <= t.

These index the representative phase flips that weight-<=t Pauli errors
reduce to on a graph state. The empty set is always a member (omega = delta
= empty), and for t = 0 it is the only one.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from math import comb

import numpy as np

from .graphs import Graph

PAIR_CHUNK = 1 << 20  # (omega, delta) pairs formed at once


@dataclass(frozen=True, eq=False)
class CoverableSet:
    n: int
    t: int
    indicator: np.ndarray = field(repr=False)  # 0/1 per subset index, length 2^n

    @cached_property
    def members(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.indicator).tolist())

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.indicator))

    @property
    def is_full(self) -> bool:
        """True when every subset is coverable; the Bell operator is then 1."""
        return self.count == 1 << self.n


def coverable_indicators(n: int, adj: np.ndarray, t: int) -> np.ndarray:
    """0/1 coverable indicator of each graph given as a (B, n) adjacency
    array, shape (B, 2^n): all sets delta ^ N(omega) over pairs with
    |omega u delta| <= t.

    A pair inside a support smaller than t also lies inside one of size
    exactly t, so the supports U with |U| = t cover every pair. For each U
    the subsets omega, delta of U and each graph's neighborhoods N(omega)
    are built by doubling over U's vertices, and all 4^t sums land in the
    indicators at once; duplicates collapse there.
    """
    if not 0 <= t <= n:
        raise ValueError(f"t={t} outside 0..{n}")
    indicator = np.zeros((len(adj), 1 << n), dtype=np.int64)
    graph = np.arange(len(adj), dtype=np.int64)[:, None, None, None] << n
    supports = np.fromiter(
        chain.from_iterable(combinations(range(n), t)), dtype=np.int64,
    ).reshape(comb(n, t), t)
    step = max(1, (PAIR_CHUNK >> 2 * t) // max(1, len(adj)))
    for start in range(0, len(supports), step):
        part = supports[start:start + step]
        subs = np.zeros((len(part), 1), dtype=np.int64)          # subsets of each support
        nbhd = np.zeros((len(adj), len(part), 1), dtype=np.int64)  # and their neighborhoods
        for v in part.T:
            subs = np.concatenate((subs, subs | (1 << v)[:, None]), axis=1)
            nbhd = np.concatenate((nbhd, nbhd ^ adj[:, v, None]), axis=2)
        indicator.ravel()[graph | subs[:, :, None] ^ nbhd[:, :, None, :]] = 1
    return indicator


def coverable_set(g: Graph, t: int) -> CoverableSet:
    """The coverable set of one graph."""
    return CoverableSet(g.n, t, coverable_indicators(g.n, np.array([g.adj], dtype=np.int64), t)[0])
