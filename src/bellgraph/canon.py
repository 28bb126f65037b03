"""Canonical labeling and local-complementation orbits.

A placement lists the vertices in a new order; its code is the adjacency bit
string of the relabeled graph's upper triangle in graph6 pair order
((0,1),(0,2),(1,2),(0,3),...), i.e. the concatenation over depths k of the
k-bit row of the k-th placed vertex against the k already placed. A placement
is admitted when every vertex it places has, among the unplaced vertices,
the greatest row against the prefix and, among those, the greatest degree.
The canonical code is the greatest code of an admitted placement.

The rule reads only adjacency and degrees, never labels, so a relabeling maps
the admitted placements of a graph one to one onto those of its image with
the same codes: the canonical code is constant on isomorphism classes. It
fully determines the relabeled graph, so equal codes hold iff the graphs are
isomorphic. It is not in general the greatest code over all n! relabelings:
the two agree on every graph with n <= 5, but on 8 of the 156 classes at
n = 6 the degree rule excludes the greatest one.

All graphs of a batch are canonicalized together, breadth-first over the
placement tree. Because codes are concatenations of fixed-width rows, a
placement of greatest code passes through a state of greatest row at every
depth, so each depth keeps only the states whose row equals the greatest row
of their graph. Of twin candidates u, v (N(u)-{v} == N(v)-{u}, so the
transposition (u v) is an automorphism fixing the prefix) only the lower one
is expanded, since both subtrees realize identical codes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph6 import emit_graph6, rows_of_code
from .graphs import Graph

# graphs canonicalized together; bounds the state arrays, and so peak memory
SLICE = 256
# isomorphism classes an LC orbit may reach before `lc_orbit` gives up
DEFAULT_ORBIT_CAP = 100_000


class OrbitCapExceeded(RuntimeError):
    """Local-complementation orbit grew past the configured size bound."""


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Relabeling-invariant fingerprint: vertex count plus edge-bit code."""

    n: int
    code: int

    def to_graph(self) -> Graph:
        """Rebuild the canonically labeled graph from the code."""
        return Graph(self.n, rows_of_code(self.n, self.code))

    def to_graph6(self) -> str:
        return emit_graph6(self.to_graph())


def _lower_twins(n: int, adj: np.ndarray) -> np.ndarray:
    """[b, v]: bitmask of the vertices u < v that are twins of v."""
    bit = np.int64(1) << np.arange(n, dtype=np.int64)
    rest = adj[:, :, None] & ~bit  # [b, u, v] = N(u) - {v}
    twin = (rest == rest.transpose(0, 2, 1)) & np.triu(np.ones((n, n), bool), 1)
    return np.where(twin, bit[:, None], 0).sum(axis=1)


def _adjacency_bits(n: int, adj: np.ndarray) -> np.ndarray:
    """[b, v, w] = 1 iff v and w are adjacent."""
    return adj[:, :, None] >> np.arange(n, dtype=np.int64) & 1


def _slice_rows(n: int, adj: np.ndarray) -> np.ndarray:
    """[b, k]: the k-bit row placed at depth k by the canonical placement."""
    b = len(adj)
    bits = _adjacency_bits(n, adj)
    deg = bits.sum(axis=2)
    twins = _lower_twins(n, adj)
    out = np.zeros((b, n), dtype=np.int64)
    # one state per placed prefix: its graph, the placed set, and every
    # vertex's row against the prefix (negative once placed)
    gid = graphs = np.arange(b)
    placed = np.zeros(b, dtype=np.int64)
    rows = np.zeros((b, n), dtype=np.int64)
    for k in range(n):
        best = rows.max(axis=1)
        # states stay sorted by graph, and every graph keeps at least one
        top = np.maximum.reduceat(best, np.searchsorted(gid, graphs))
        out[:, k] = top
        if k == n - 1:
            break
        keep = best == top[gid]
        gid, placed, rows, best = gid[keep], placed[keep], rows[keep], best[keep]
        cand = rows == best[:, None]
        d = np.where(cand, deg[gid], -1)
        cand &= d == d.max(axis=1, keepdims=True)
        # an unplaced twin of a candidate is a candidate too: keep the lowest
        cand &= twins[gid] & ~placed[:, None] == 0
        s, v = np.nonzero(cand)
        gid = gid[s]
        placed = placed[s] | np.int64(1) << v
        rows = rows[s] << 1 | bits[gid, v]
        rows[np.arange(len(s)), v] = -1
    return out


def _placed_rows(n: int, adj: np.ndarray) -> np.ndarray:
    """Depth rows of the canonical placement of each graph, in slices."""
    adj = np.asarray(adj, dtype=np.int64).reshape(-1, n)
    if not len(adj):
        return np.zeros((0, n), dtype=np.int64)
    return np.concatenate(
        [_slice_rows(n, adj[i:i + SLICE]) for i in range(0, len(adj), SLICE)]
    )


def _pack(n: int, rows: np.ndarray) -> list[int]:
    """Codes from depth rows, in words of at most 63 bits."""
    codes = [0] * len(rows)
    k = 1
    while k < n:
        word = np.zeros(len(rows), dtype=np.int64)
        width = 0
        while k < n and width + k <= 63:
            word = word << k | rows[:, k]
            width += k
            k += 1
        codes = [c << width | w for c, w in zip(codes, word.tolist())]
    return codes


def _unpack(n: int, rows: np.ndarray) -> np.ndarray:
    """Adjacency rows of the canonically labeled graphs, from depth rows."""
    adj = np.zeros_like(rows)
    for k in range(1, n):
        i = np.arange(k, dtype=np.int64)
        edge = rows[:, k, None] >> (k - 1 - i) & 1  # [b, i]: edge (i, k)
        adj[:, k] = (edge << i).sum(axis=1)
        adj[:, :k] |= edge << k
    return adj


def canonical_codes(n: int, adj) -> list[int]:
    """Canonical code of each graph given as a (B, n) array of adjacency rows."""
    return _pack(n, _placed_rows(n, adj))


def canonicalize_many(graphs: Sequence[Graph]) -> list[CanonicalForm]:
    """Canonical forms of graphs that share one vertex count, in order."""
    if not graphs:
        return []
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError(
            f"canonicalize_many needs one vertex count, got {sorted({g.n for g in graphs})}"
        )
    return [CanonicalForm(n, code) for code in canonical_codes(n, [g.adj for g in graphs])]


def canonicalize(g: Graph) -> CanonicalForm:
    """Canonical form, constant on isomorphism classes."""
    return canonicalize_many([g])[0]


def _lc_images(n: int, adj: np.ndarray) -> np.ndarray:
    """Local complements of each graph at every vertex where LC can matter.

    LC at a vertex of degree <= 1 is the identity, and LC at twins gives
    isomorphic images (the transposition is an automorphism), so only
    vertices of degree >= 2 without a lower twin are used.
    """
    bits = _adjacency_bits(n, adj)
    f, a = np.nonzero((bits.sum(axis=2) >= 2) & (_lower_twins(n, adj) == 0))
    na = adj[f, a]
    return adj[f] ^ bits[f, a] * (na[:, None] & ~(np.int64(1) << np.arange(n, dtype=np.int64)))


def lc_orbit(g: Graph, max_size: int = DEFAULT_ORBIT_CAP) -> frozenset[CanonicalForm]:
    """Closure of g under local complementation, as canonical forms.

    Breadth-first over isomorphism classes: complementing one representative
    per class at every vertex where LC can matter reaches every neighboring
    class, so the closure over canonical forms is complete. The images of a
    whole level are canonicalized in one batch. min() of the result is the
    deterministic orbit representative.
    """
    n = g.n
    rows = _placed_rows(n, [g.adj])
    seen = set(_pack(n, rows))
    while len(rows):
        rows = _placed_rows(n, _lc_images(n, _unpack(n, rows)))
        fresh = []
        for i, code in enumerate(_pack(n, rows)):
            if code not in seen:
                if len(seen) >= max_size:
                    raise OrbitCapExceeded(f"orbit exceeds {max_size} isomorphism classes")
                seen.add(code)
                fresh.append(i)
        rows = rows[fresh]
    return frozenset(CanonicalForm(n, code) for code in seen)
