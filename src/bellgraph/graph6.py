"""graph6 records: the compact ASCII encoding used by graph census files.

A record for a graph on n <= 62 vertices is the byte n+63 followed by the
upper triangle of the adjacency matrix read column by column (pair order
(0,1),(0,2),(1,2),(0,3),...), packed big-endian into 6-bit groups, padded
with zero bits, each group offset by 63. This module only accepts n <= 16.

Census files are plain text, one record per line, all on one vertex count;
no headers, no comments. `read_graph6` decodes them a chunk of lines at a
time into numpy arrays.
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


def _census_n(lines: list[str]) -> int | None:
    """The vertex count of the first well-formed record among lines, if any."""
    for line in lines:
        try:
            return parse_graph6(line).n
        except Graph6Error:
            pass
    return None


def _decode_lines(lines: list[str], n: int | None) -> tuple[np.ndarray, list[int]]:
    """The well-formed records on n vertices among lines, decoded together.

    Returns their (B, n) int64 adjacency rows, in order, and the indices of
    every other non-blank line: the malformed ones and the records on
    another vertex count, for `parse_graph6` to name.
    """
    if n is None:  # no well-formed record so far
        return np.empty((0, 0), dtype=np.int64), [i for i, line in enumerate(lines) if line]
    nbits = n * (n - 1) // 2
    width = 1 + (nbits + 5) // 6
    head = chr(n + 63)
    shape = [i for i, line in enumerate(lines) if len(line) == width and line[0] == head]
    raw = np.frombuffer("".join(lines[i] for i in shape).encode("latin-1"), dtype=np.uint8)
    raw = raw.reshape(len(shape), width)
    groups = raw[:, 1:].astype(np.int64) - 63
    bits = groups[:, :, None] >> np.arange(5, -1, -1, dtype=np.int64) & 1
    bits = bits.reshape(len(shape), 6 * (width - 1))
    ok = ((raw >= 63) & (raw <= 126)).all(axis=1) & ~bits[:, nbits:].any(axis=1)
    adj = bits[:, :nbits] @ _pair_weights(n)
    if ok.all() and len(shape) == sum(map(bool, lines)):
        return adj, []
    good = {shape[i] for i in np.flatnonzero(ok).tolist()}
    return adj[ok], [i for i, line in enumerate(lines) if line and i not in good]


def read_graph6(path: str, lines: int, lenient: bool = False) -> Iterator[tuple[np.ndarray, int]]:
    """Decode a census file `lines` lines at a time; blank lines are skipped.

    Yields (rows, skipped) per block of lines: rows is the (B, n) int64
    array of the block's records, skipped the number of malformed lines
    passed over. The census vertex count n is that of the first well-formed
    record, and a record on another vertex count raises ValueError with its
    line number. A malformed line raises its Graph6Error, the message of
    `parse_graph6` on that line, prefixed with the line number; under
    lenient=True it is skipped and counted instead. The file is read as
    latin-1, one character per byte, so a byte outside ASCII is such a
    malformed line too.
    """
    with open(path, "r", encoding="latin-1") as fh:
        first, n = 1, None
        while block := [raw.rstrip("\n") for raw in islice(fh, lines)]:
            n = n or _census_n(block)
            rows, others = _decode_lines(block, n)
            for i in others:
                try:
                    g = parse_graph6(block[i])
                except Graph6Error as err:
                    if lenient:
                        continue
                    err.args = (f"line {first + i}: {err}",)
                    raise
                raise ValueError(f"line {first + i}: census mixes vertex counts {n} and {g.n}")
            yield rows, len(others)
            first += len(block)
