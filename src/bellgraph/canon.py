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

LC orbits are walked many at once, breadth-first over isomorphism classes
(`lc_orbits`): walks that meet are merged, and each level is canonicalized
SLICE graphs at a time, so memory does not grow with the number of walks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph6 import emit_graph6, rows_of_code
from .graphs import Graph

# graphs canonicalized together; bounds the state arrays, and so peak memory
# (1024 was 7-15% faster on table1 and census8, at 2.1-2.7 MB more peak RSS)
SLICE = 256
# isomorphism classes an LC orbit may reach before `lc_orbits` gives up on
# it; read at call time, so a test can lower it on this module alone
ORBIT_CAP = 100_000


class OrbitCapExceeded(RuntimeError):
    """Local-complementation orbit grew past ORBIT_CAP isomorphism classes."""


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


def canonical_codes(n: int, adj) -> list[int]:
    """Canonical code of each graph given as a (B, n) array of adjacency rows."""
    return _pack(n, _placed_rows(n, adj))


def canonicalize(g: Graph) -> CanonicalForm:
    """Canonical form, constant on isomorphism classes."""
    return CanonicalForm(g.n, canonical_codes(g.n, [g.adj])[0])


def _lc_images(n: int, adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Local complements of each graph at every vertex where LC can matter.

    Returns the index of each image's graph and the images. LC at a vertex
    of degree <= 1 is the identity, and LC at twins gives isomorphic images
    (the transposition is an automorphism), so only vertices of degree >= 2
    without a lower twin are used.
    """
    bits = _adjacency_bits(n, adj)
    f, a = np.nonzero((bits.sum(axis=2) >= 2) & (_lower_twins(n, adj) == 0))
    na = adj[f, a]
    return f, adj[f] ^ bits[f, a] * (na[:, None] & ~(np.int64(1) << np.arange(n, dtype=np.int64)))


def lc_orbits(n: int, codes: Sequence[int], adj) -> list[frozenset[int] | None]:
    """The LC orbit of each graph as canonical codes, or None past ORBIT_CAP classes.

    adj[i] is any labeling of a graph whose canonical code is codes[i]. All
    orbits are walked together, breadth-first over isomorphism classes:
    complementing one member per class, in the labeling of the image that
    reached it, at every vertex where LC can matter reaches every neighboring
    class (LC commutes with relabeling), so each walk's closure is complete.
    Every class is claimed by the first walk that meets it and expanded
    once; a walk that meets a class claimed by another walk is merged with
    it by union-find, since both lie in one orbit. A level is expanded,
    canonicalized and looked up SLICE graphs at a time, so no temporary
    holds more than SLICE * n images. A merged walk that exceeds ORBIT_CAP
    classes stops, and its graphs get None: the orbit is larger than the
    cap whichever graph the walk starts from.
    """
    cap = ORBIT_CAP
    adj = np.asarray(adj, dtype=np.int64).reshape(-1, n)
    parent = list(range(len(codes)))
    size = [1] * len(codes)
    capped = [False] * len(codes)  # read at roots only
    owner: dict[int, int] = {}  # class code -> the walk that claimed it

    def find(w: int) -> int:
        root = w
        while parent[root] != root:
            root = parent[root]
        while parent[w] != root:
            parent[w], w = root, parent[w]
        return root

    def merge(w: int, v: int) -> None:
        w, v = find(w), find(v)
        if w != v:
            if size[w] < size[v]:
                w, v = v, w
            parent[v] = w
            size[w] += size[v]
            capped[w] = capped[w] or capped[v] or size[w] > cap

    start = []
    for w, code in enumerate(codes):
        if code in owner:
            parent[w] = owner[code]  # the same class twice: one walk
        else:
            owner[code] = w
            start.append(w)
    front, walks = adj[start], start
    while len(front):
        live = [i for i, w in enumerate(walks) if not capped[find(w)]]
        front, walks = front[live], [walks[i] for i in live]
        nxt, nxt_walks = [np.zeros((0, n), dtype=np.int64)], []
        for i in range(0, len(front), SLICE):
            src, images = _lc_images(n, front[i:i + SLICE])
            rows = _placed_rows(n, images)
            fresh = []
            for j, (s, code) in enumerate(zip(src.tolist(), _pack(n, rows))):
                w = walks[i + s]
                v = owner.get(code)
                if v is None:
                    w = find(w)
                    if capped[w]:
                        continue
                    owner[code] = w
                    size[w] += 1
                    capped[w] = size[w] > cap
                    fresh.append(j)
                    nxt_walks.append(w)
                elif v != w:
                    merge(w, v)
            nxt.append(images[fresh])
        front, walks = np.concatenate(nxt), nxt_walks
    members: dict[int, list[int]] = {}
    for code, w in owner.items():
        members.setdefault(find(w), []).append(code)
    orbits = {w: frozenset(m) for w, m in members.items() if not capped[w]}
    return [orbits.get(find(w)) for w in range(len(codes))]


def lc_orbit(g: Graph) -> frozenset[CanonicalForm]:
    """Closure of g under local complementation, as canonical forms.

    The one-graph call into `lc_orbits`. min() of the result is the
    deterministic orbit representative. An orbit past ORBIT_CAP isomorphism
    classes raises OrbitCapExceeded.
    """
    adj = np.array([g.adj], dtype=np.int64)
    (orbit,) = lc_orbits(g.n, canonical_codes(g.n, adj), adj)
    if orbit is None:
        raise OrbitCapExceeded(f"orbit exceeds {ORBIT_CAP} isomorphism classes")
    return frozenset(CanonicalForm(g.n, code) for code in orbit)
