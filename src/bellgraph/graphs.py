"""Labeled simple graphs on at most 16 vertices.

Vertex subsets are plain Python ints used as bitmasks ("vertex sets"): bit v
set means vertex v is in the set. All subset algebra is therefore word
arithmetic: symmetric difference is ^, union |, intersection &, cardinality
int.bit_count(). A graph stores one adjacency row per vertex, each row being
a vertex set.

Everything here is immutable and pure; Graph values are hashable and safe to
share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_VERTICES = 16


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the vertex indices of a vertex-set word, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_vertex_count(n: int) -> None:
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count and per-vertex adjacency rows."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        check_vertex_count(self.n)
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count does not match vertex count")
        full = (1 << self.n) - 1
        for a, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"adjacency row {a} references vertices >= {self.n}")
            if row >> a & 1:
                raise ValueError(f"self-loop at vertex {a}")
        for a in range(self.n):
            for b in iter_bits(self.adj[a]):
                if not self.adj[b] >> a & 1:
                    raise ValueError(f"asymmetric adjacency between {a} and {b}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """The graph on n vertices with the given edges; n is checked before
        any edge is read, so a generator on a bad n is never consumed."""
        check_vertex_count(n)
        rows = [0] * n
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        return cls(n, tuple(rows))

    def edges(self) -> list[tuple[int, int]]:
        return [(a, b) for a in range(self.n) for b in iter_bits(self.adj[a]) if a < b]

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, a: int) -> int:
        return self.adj[a].bit_count()

    def relabel(self, perm: Iterable[int]) -> "Graph":
        """Image under the permutation sending old vertex v to perm[v]."""
        perm = tuple(int(p) for p in perm)
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"relabeling {perm} is not a permutation of 0..{self.n - 1}")
        rows = [0] * self.n
        for a in range(self.n):
            row = 0
            for b in iter_bits(self.adj[a]):
                row |= 1 << perm[b]
            rows[perm[a]] = row
        return Graph(self.n, tuple(rows))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Graphs side by side: g2's vertices are shifted up by g1.n."""
    n = g1.n + g2.n
    if n > MAX_VERTICES:
        raise ValueError(f"union has {n} vertices, exceeding {MAX_VERTICES}")
    rows = list(g1.adj) + [row << g1.n for row in g2.adj]
    return Graph(n, tuple(rows))
