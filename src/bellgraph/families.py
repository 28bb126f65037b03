"""Named graph families with deterministic vertex layouts.

Disjoint unions lay components out in consecutive blocks, ascending. The
`parse_family` grammar is what the CLI's `--graph family:<spec>` accepts:

    star(4) | complete(5) | ring(6) | star_copies(3) | complete_join(3,5)

complete_join(k1,k2,...) is the disjoint union of complete graphs K_k1, K_k2, ...
"""
from __future__ import annotations

import re

from .graphs import Graph, disjoint_union


def star(n: int) -> Graph:
    """Center 0 joined to every other vertex."""
    if n < 2:
        raise ValueError("star needs at least 2 vertices")
    return Graph.from_edges(n, ((0, v) for v in range(1, n)))


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    return Graph.from_edges(n, ((a, b) for a in range(n) for b in range(a + 1, n)))


def ring(n: int) -> Graph:
    if n < 3:
        raise ValueError("ring needs at least 3 vertices")
    return Graph.from_edges(n, ((v, (v + 1) % n) for v in range(n)))


def star_copies(m: int) -> Graph:
    """m disjoint copies of the 3-vertex star, 3m vertices total."""
    if m < 1:
        raise ValueError("need at least one copy")
    g = star(3)
    for _ in range(m - 1):
        g = disjoint_union(g, star(3))
    return g


def complete_join(*sizes: int) -> Graph:
    """Disjoint union of complete graphs of the given sizes."""
    if not sizes:
        raise ValueError("need at least one component size")
    g = complete(sizes[0])
    for k in sizes[1:]:
        g = disjoint_union(g, complete(k))
    return g


_FAMILY_RE = re.compile(r"^\s*([a-z_]+)\s*\(\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s*\)\s*$")

_BUILDERS = {
    "star": star,
    "complete": complete,
    "ring": ring,
    "star_copies": star_copies,
    "complete_join": complete_join,
}


def parse_family(spec: str) -> Graph:
    """Build a named family from a spec string like 'complete_join(3,5)'."""
    m = _FAMILY_RE.match(spec)
    if not m:
        raise ValueError(
            f"bad family spec {spec!r}; expected name(args), names: "
            + ", ".join(sorted(_BUILDERS))
        )
    name, args = m.group(1), [int(x) for x in m.group(2).split(",")]
    if name not in _BUILDERS:
        raise ValueError(f"unknown family {name!r}; names: " + ", ".join(sorted(_BUILDERS)))
    builder = _BUILDERS[name]
    if name == "complete_join":
        return builder(*args)
    if len(args) != 1:
        raise ValueError(f"family {name} takes one parameter")
    return builder(args[0])



def parse_graph_arg(text: str) -> Graph:
    """CLI graph argument: 'family:<spec>' or a graph6 literal."""
    from .graph6 import parse_graph6

    if text.startswith("family:"):
        return parse_family(text[len("family:"):])
    return parse_graph6(text)
