"""graph6 records: the compact ASCII encoding used by graph census files.

A record for a graph on n <= 62 vertices is the byte n+63 followed by the
upper triangle of the adjacency matrix read column by column (pair order
(0,1),(0,2),(1,2),(0,3),...), packed big-endian into 6-bit groups, padded
with zero bits, each group offset by 63. This module only accepts n <= 16.

Census files are plain text, one record per line; no headers, no comments.
"""
from __future__ import annotations

from typing import Iterator

from .graphs import MAX_VERTICES, Graph


class Graph6Error(ValueError):
    """Malformed graph6 record; `offset` is the offending byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def code_of_rows(n: int, rows) -> int:
    """Edge-bit code of a graph: its upper triangle in graph6 pair order.

    Pair (0,1) is the highest bit, then (0,2), (1,2), (0,3), ... so column j
    holds the pairs (i, j), i < j, with (i, j) at bit j-1-i of the column.
    A graph6 record body is this code, and a canonical code is the code of
    the canonically labeled graph.
    """
    code = 0
    for j in range(1, n):
        low = rows[j] & ((1 << j) - 1)
        col = 0
        while low:
            bit = low & -low
            col |= 1 << j - bit.bit_length()
            low ^= bit
        code = code << j | col
    return code


def rows_of_code(n: int, code: int) -> tuple[int, ...]:
    """Adjacency rows of the graph on n vertices with the given edge-bit code."""
    rows = [0] * n
    shift = n * (n - 1) // 2
    for j in range(1, n):
        shift -= j
        col = code >> shift & ((1 << j) - 1)
        while col:
            b = col.bit_length() - 1
            rows[j] |= 1 << j - 1 - b
            rows[j - 1 - b] |= 1 << j
            col ^= 1 << b
    return tuple(rows)


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 record into a Graph."""
    if not line:
        raise Graph6Error("empty record", 0)
    for off, ch in enumerate(line):
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"byte {ord(ch)!r} outside graph6 range 63..126", off)
    n = ord(line[0]) - 63
    if n == 63:
        # 126 introduces the multi-byte vertex-count form, always > 62 here
        raise Graph6Error("extended vertex-count form exceeds 16 vertices", 0)
    if n > MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} exceeds {MAX_VERTICES}", 0)
    if n < 1:
        raise Graph6Error(f"vertex count {n} below 1", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(line) - 1 != nbytes:
        raise Graph6Error(
            f"record for n={n} needs {nbytes} data bytes, found {len(line) - 1}",
            min(len(line), 1 + nbytes),
        )
    padded = 0
    for ch in line[1:]:
        padded = padded << 6 | (ord(ch) - 63)
    # padding bits beyond the triangle must be zero
    pad = 6 * nbytes - nbits
    if padded & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", len(line) - 1)
    return Graph(n, rows_of_code(n, padded >> pad))


def emit_graph6(g: Graph) -> str:
    """Encode a Graph as one graph6 record."""
    nbits = g.n * (g.n - 1) // 2
    nbytes = (nbits + 5) // 6
    padded = code_of_rows(g.n, g.adj) << (6 * nbytes - nbits)
    return chr(g.n + 63) + "".join(
        chr((padded >> 6 * k & 63) + 63) for k in range(nbytes - 1, -1, -1)
    )


def iter_graph6_file(path: str, lenient: bool = False) -> Iterator[tuple[int, Graph | Graph6Error]]:
    """Yield (line_number, Graph) per record; malformed lines raise unless lenient.

    Under lenient=True malformed lines yield (line_number, Graph6Error)
    instead of raising, so callers can count and skip them.
    """
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            try:
                yield lineno, parse_graph6(line)
            except Graph6Error as err:
                if lenient:
                    yield lineno, err
                else:
                    raise Graph6Error(f"line {lineno}: {err.args[0]}", err.offset) from None
