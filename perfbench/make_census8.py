"""Regenerate perfbench/data/census8.g6, the complete n=8 isomorphism census.

    python3 perfbench/make_census8.py

Every 8-vertex graph has a 7-vertex induced subgraph, so augmenting each of
the 1044 isomorphism classes on 7 vertices with every possible neighborhood
of a new vertex reaches all 12346 classes on 8. Records are the canonical
forms, sorted, one graph6 line each. The benchmark pins the file's SHA-256,
so parent and change always read identical input.
"""
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from bellgraph import Graph, canonicalize, emit_graph6, iso_class_reps  # noqa: E402


def main():
    seen = set()
    for g in iso_class_reps(7):
        for nb in range(1 << 7):
            rows = [row | ((nb >> v & 1) << 7) for v, row in enumerate(g.adj)] + [nb]
            seen.add(canonicalize(Graph(8, tuple(rows))))
    if len(seen) != 12346:
        sys.exit(f"expected 12346 classes on 8 vertices, found {len(seen)}")
    path = os.path.join(HERE, "data", "census8.g6")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(emit_graph6(f.to_graph()) + "\n" for f in sorted(seen)))
    print(f"wrote {len(seen)} records to {path}")


if __name__ == "__main__":
    main()
