"""graph6 records: the compact ASCII encoding used by graph census files.

A record for a graph on n <= 62 vertices is the byte n+63 followed by the
upper triangle of the adjacency matrix read column by column (pair order
(0,1),(0,2),(1,2),(0,3),...), packed big-endian into 6-bit groups, padded
with zero bits, each group offset by 63. This module only accepts n <= 16.

Census files are plain text, one record per line; no headers, no comments.
`read_graph6` decodes them a chunk of lines at a time into numpy arrays.
"""
from __future__ import annotations

from itertools import islice
from typing import Iterator

import numpy as np

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


def _pair_weights(n: int) -> np.ndarray:
    """[p, v]: the bit that pair p sets in row v, for the pairs in graph6 order."""
    j, i = np.tril_indices(n, -1)  # (1,0), (2,0), (2,1), (3,0), ...
    weights = np.zeros((len(i), n), dtype=np.int64)
    weights[np.arange(len(i)), i] = np.int64(1) << j
    weights[np.arange(len(i)), j] = np.int64(1) << i
    return weights


def _decode_lines(lines: list[str], first: int) -> list[tuple[list[int], np.ndarray | Graph6Error]]:
    """(line numbers, rows) per run of records with one vertex count, in order.

    The records of the common shape, the length and first byte of the first
    well-formed one, are decoded together; every other line, and any of
    those the batch decode rejects, goes through `parse_graph6`, whose
    Graph6Error takes the record's place.
    """
    n = width = 0
    for line in lines:
        k = ord(line[0]) - 63 if line else 0
        if 1 <= k <= MAX_VERTICES and len(line) == 1 + (k * (k - 1) // 2 + 5) // 6:
            n, width = k, len(line)
            break
    head = chr(n + 63)
    shape = [i for i, line in enumerate(lines) if len(line) == width and line[0] == head] if n else []
    decoded = {}
    if shape:
        raw = np.frombuffer("".join(lines[i] for i in shape).encode("ascii"), dtype=np.uint8)
        raw = raw.reshape(len(shape), width)
        groups = raw[:, 1:].astype(np.int64) - 63
        bits = (groups[:, :, None] >> np.arange(5, -1, -1, dtype=np.int64) & 1).reshape(len(shape), -1)
        nbits = n * (n - 1) // 2
        ok = ((raw >= 63) & (raw <= 126)).all(axis=1) & ~bits[:, nbits:].any(axis=1)
        adj = bits[:, :nbits] @ _pair_weights(n)
        if ok.all() and len(shape) == sum(map(bool, lines)):
            return [([first + i for i in shape], adj)]
        decoded = {i: row for i, row, good in zip(shape, adj.tolist(), ok.tolist()) if good}
    runs: list[tuple[list[int], list | Graph6Error]] = []
    for i, line in enumerate(lines):
        if not line:
            continue
        row = decoded.get(i)
        if row is None:
            try:
                row = list(parse_graph6(line).adj)
            except Graph6Error as err:
                runs.append(([first + i], err))
                continue
        if runs and isinstance(runs[-1][1], list) and len(runs[-1][1][0]) == len(row):
            runs[-1][0].append(first + i)
            runs[-1][1].append(row)
        else:
            runs.append(([first + i], [row]))
    return [(at, rows if isinstance(rows, Graph6Error) else np.array(rows, dtype=np.int64))
            for at, rows in runs]


def read_graph6(
    path: str, lines: int, lenient: bool = False
) -> Iterator[tuple[list[int], np.ndarray | Graph6Error]]:
    """Decode a census file `lines` lines at a time; blank lines are skipped.

    Yields (line numbers, rows) per run of consecutive records with one
    vertex count: rows is the (B, n) int64 array of their adjacency rows.
    A malformed line raises its Graph6Error with the line number, or under
    lenient=True yields ([line number], Graph6Error) in its place, so
    callers can count and skip it. Lines are the same, and so are the
    messages, as with `parse_graph6` on each line of the text file.
    """
    with open(path, "r", encoding="ascii") as fh:
        first = 1
        while True:
            block = [raw.rstrip("\n") for raw in islice(fh, lines)]
            if not block:
                return
            for at, item in _decode_lines(block, first):
                if isinstance(item, Graph6Error) and not lenient:
                    raise Graph6Error(f"line {at[0]}: {item.args[0]}", item.offset) from None
                yield at, item
            first += len(block)
