"""Canonical labeling and local-complementation orbits.

A placement lists the vertices in a new order; its code is the edge-bit code
(laid out in `graph6`) of the relabeled graph, whose column k is the k-bit
row of the k-th placed vertex against the k already placed. A placement
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

A state holds one int32 key per vertex, row << 4 | degree while the vertex
is unplaced. For n <= 16 the degree is at most 15 and a row placed at depth
k < n has k <= 15 bits, so keys stay below 2^19. The greatest key of a state
is its greatest row and, among those, the greatest degree, so the admitted
vertices are exactly those holding it. Placing vertex v updates every key in
place: key += (key & ~15) + (adjacent to v) << 4 shifts the row left by one
bit and appends v's. The placed vertex itself gets -1, and a negative key,
16q + r with q <= -1 and 0 <= r < 16, becomes 16(2q + b) + r with
2q + b <= -1: it stays negative, above -2^20, and is never admitted again.

LC orbits are walked many at once, breadth-first over isomorphism classes
(`lc_orbits`): walks that meet are merged, and each level is canonicalized
SLICE graphs at a time, so memory does not grow with the number of walks. A
graph reached by LC at vertex a is kept in the labeling of the graph it was
reached from, so LC at a, an involution, leads straight back to that graph,
whose class the same walk already owns: that image is never formed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph6 import _PAIR_U, _PAIR_V, codes_of_columns, record_of_code, rows_of_codes
from .graphs import Graph

# graphs canonicalized together; bounds the state arrays, and so peak memory
# (against 512, 1024 ran census8 as fast at 0.4 MB more peak RSS and
# class_reps(9) 10% faster at 3.4 MB more; 2048 added 2.5 MB to census8)
SLICE = 1024
# isomorphism classes an LC orbit may reach before `lc_orbits` gives up on
# it; read at call time, so a test can lower it on this module alone
ORBIT_CAP = 100_000
_BIT = np.int32(1) << np.arange(16, dtype=np.int32)
_PAIR_RUNS = np.cumsum(np.arange(15))  # v = 1, 2, ...: first pair v(v-1)/2
_NO_KEY = np.iinfo(np.int32).max  # equals no key


class OrbitCapExceeded(RuntimeError):
    """Local-complementation orbit grew past ORBIT_CAP isomorphism classes."""


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Relabeling-invariant fingerprint: vertex count plus edge-bit code."""

    n: int
    code: int

    def to_graph(self) -> Graph:
        """Rebuild the canonically labeled graph from the code."""
        return Graph(self.n, tuple(rows_of_codes(self.n, [self.code])[0].tolist()))

    def to_graph6(self) -> str:
        return record_of_code(self.n, self.code)


def _lower_twins(n: int, adj: np.ndarray) -> np.ndarray:
    """[b, v]: bitmask of the vertices u < v that are twins of v."""
    m = n * (n - 1) // 2
    u, v = _PAIR_U[:m], _PAIR_V[:m]
    twin = (adj[:, u] ^ adj[:, v]) & ~(_BIT[u] | _BIT[v]) == 0
    out = np.zeros((len(adj), n), dtype=np.int32)
    # the pairs of each v > 0 are one run
    out[:, 1:] = np.add.reduceat(np.where(twin, _BIT[u], 0), _PAIR_RUNS[:n - 1], axis=1)
    return out


def _slice_rows(n: int, adj: np.ndarray) -> np.ndarray:
    """[b, k]: the k-bit row placed at depth k by the canonical placement of
    each graph, given as int32 adjacency rows."""
    b = len(adj)
    # [g * n + v, w]: what placing v adds to the key of w, the row's new bit
    rise = ((adj[:, :, None] >> np.arange(n, dtype=np.int32) & 1) << 4).reshape(b * n, n)
    twins = _lower_twins(n, adj).ravel()
    out = np.zeros((b, n), dtype=np.int32)
    # one state per placed prefix: its graph, the placed set and the keys
    gid = graphs = np.arange(b)
    placed = np.zeros(b, dtype=np.int32)
    key = np.bitwise_count(adj).astype(np.int32)
    for k in range(n):
        # numpy reduces short rows slowly; a pass per column is much faster
        best = key[:, 0].copy()
        for w in range(1, n):
            np.maximum(best, key[:, w], out=best)
        # states stay sorted by graph, and every graph keeps at least one
        top = np.maximum.reduceat(best, np.searchsorted(gid, graphs))
        out[:, k] = top >> 4
        if k == n - 1:
            break
        # a state whose greatest row is below its graph's expands nothing;
        # the others expand every vertex of their greatest key
        best[best >> 4 != top[gid] >> 4] = _NO_KEY
        at = np.flatnonzero(key == best[:, None])  # s * n + v, faster than 2-D
        s = at // n
        v = at - s * n
        # an unplaced twin of a candidate is a candidate too: keep the lowest
        gv = gid[s] * n + v
        lowest = twins[gv] & ~placed[s] == 0
        s, v, gv = s[lowest], v[lowest], gv[lowest]
        gid = gid[s]
        placed = placed[s] | _BIT[v]
        key = key[s]
        key += (key & ~15) + rise[gv]
        key[np.arange(len(s)), v] = -1
    return out


def _placed_rows(n: int, adj: np.ndarray) -> np.ndarray:
    """Depth rows of the canonical placement of each graph, in slices."""
    adj = np.asarray(adj, dtype=np.int32).reshape(-1, n)
    if not len(adj):
        return np.zeros((0, n), dtype=np.int32)
    return np.concatenate(
        [_slice_rows(n, adj[i:i + SLICE]) for i in range(0, len(adj), SLICE)]
    )


def canonical_codes(n: int, adj) -> list[int]:
    """Canonical code of each graph given as a (B, n) array of adjacency rows."""
    return codes_of_columns(n, _placed_rows(n, adj))


def canonicalize(g: Graph) -> CanonicalForm:
    """Canonical form, constant on isomorphism classes."""
    return CanonicalForm(g.n, canonical_codes(g.n, [g.adj])[0])


def _lc_images(
    n: int, adj: np.ndarray, arrival: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local complements of each graph at every vertex where LC can lead to a new class.

    Returns the index of each image's graph, the vertex complemented and the
    images. LC at a vertex of degree <= 1 is the identity, and LC at twins
    gives isomorphic images (the transposition is an automorphism), so only
    vertices of degree >= 2 without a lower twin are used. Graph i skips
    vertex arrival[i] (-1 skips none): LC is an involution, so LC there
    gives back the graph that graph i was reached from.
    """
    f, a = np.nonzero((np.bitwise_count(adj) >= 2) & (_lower_twins(n, adj) == 0)
                      & (np.arange(n) != arrival[:, None]))
    na = adj[f, a][:, None]
    return f, a, adj[f] ^ (na >> np.arange(n, dtype=np.int32) & 1) * (na & ~_BIT[:n])


def lc_orbits(n: int, codes: Sequence[int], adj) -> list[frozenset[int] | None]:
    """The LC orbit of each graph as canonical codes, or None past ORBIT_CAP classes.

    adj[i] is any labeling of a graph whose canonical code is codes[i]. All
    orbits are walked together, breadth-first over isomorphism classes:
    complementing one member per class, in the labeling of the image that
    reached it, at every vertex where LC can matter reaches every neighboring
    class (LC commutes with relabeling), so each walk's closure is complete;
    the vertex that reached it leads back to a class the walk owns, and is
    skipped.
    Every class is claimed by the first walk that meets it and expanded
    once; a walk that meets a class claimed by another walk is merged with
    it by union-find, since both lie in one orbit. A level is expanded,
    canonicalized and looked up SLICE graphs at a time, so no temporary
    holds more than SLICE * n images. A merged walk that exceeds ORBIT_CAP
    classes stops, and its graphs get None: the orbit is larger than the
    cap whichever graph the walk starts from.
    """
    cap = ORBIT_CAP
    adj = np.asarray(adj, dtype=np.int32).reshape(-1, n)
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
    # a fresh graph is kept in the labeling of the graph it was reached
    # from, with the vertex complemented to reach it; roots have none
    front, arrival, walks = adj[start], np.full(len(start), -1), start
    while len(front):
        live = [i for i, w in enumerate(walks) if not capped[find(w)]]
        front, arrival, walks = front[live], arrival[live], [walks[i] for i in live]
        nxt, nxt_arrival, nxt_walks = [np.zeros((0, n), dtype=np.int32)], [arrival[:0]], []
        for i in range(0, len(front), SLICE):
            src, a, images = _lc_images(n, front[i:i + SLICE], arrival[i:i + SLICE])
            rows = _placed_rows(n, images)
            fresh = []
            for j, (s, code) in enumerate(zip(src.tolist(), codes_of_columns(n, rows))):
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
            nxt_arrival.append(a[fresh])
        front, arrival, walks = np.concatenate(nxt), np.concatenate(nxt_arrival), nxt_walks
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
    adj = np.array([g.adj], dtype=np.int32)
    (orbit,) = lc_orbits(g.n, canonical_codes(g.n, adj), adj)
    if orbit is None:
        raise OrbitCapExceeded(f"orbit exceeds {ORBIT_CAP} isomorphism classes")
    return frozenset(CanonicalForm(g.n, code) for code in orbit)
