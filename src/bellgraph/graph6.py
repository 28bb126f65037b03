"""graph6 records and the edge-bit code; no other module packs or unpacks either.

The edge-bit code of a graph on n vertices is its upper triangle in graph6
pair order (0,1), (0,2), (1,2), (0,3), ..., from the highest of n(n-1)/2
bits down: for j = 1..n-1 in turn, column j, the j-bit row of vertex j
against vertices 0..j-1 with vertex 0 highest. A canonical code is the code
of the canonically labeled graph. A graph6 record on n <= 62 vertices is the
byte n+63, then the code zero-padded to whole 6-bit groups, each offset by
63 (McKay, `formats.txt` in nauty); this module only accepts n <= 16.

Census files are plain text, one record per line, all on one vertex count;
no headers, no comments. `read_graph6` decodes them a chunk of lines at a
time into numpy arrays.
"""
from __future__ import annotations

from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from .graphs import MAX_VERTICES, Graph


# the vertex pairs u < v in graph6 order, (v, u) = (1,0), (2,0), (2,1), (3,0), ...,
# those on n vertices first; _PAIR_WEIGHTS[p, w] is the bit pair p sets in row w
_PAIR_V, _PAIR_U = np.tril_indices(MAX_VERTICES, -1)
_PAIR_WEIGHTS = np.zeros((len(_PAIR_U), MAX_VERTICES), dtype=np.int64)
_PAIR_WEIGHTS[np.arange(len(_PAIR_U)), _PAIR_U] = np.int64(1) << _PAIR_V
_PAIR_WEIGHTS[np.arange(len(_PAIR_U)), _PAIR_V] = np.int64(1) << _PAIR_U


class Graph6Error(ValueError):
    """Malformed graph6 record; `offset` is the offending byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def codes_of_columns(n: int, cols: np.ndarray) -> list[int]:
    """Codes from a (B, n) array of their columns (column 0 is empty),
    packed in words of at most 63 bits."""
    codes = [0] * len(cols)
    k = 1
    while k < n:
        word = np.zeros(len(cols), dtype=np.int64)
        width = 0
        while k < n and width + k <= 63:
            word = word << k | cols[:, k]
            width += k
            k += 1
        codes = [c << width | w for c, w in zip(codes, word.tolist())]
    return codes


def codes_of_rows(n: int, rows) -> list[int]:
    """Codes of graphs given as a (B, n) array of adjacency rows."""
    rows = np.asarray(rows, dtype=np.int64).reshape(len(rows), n)
    cols = np.zeros_like(rows)
    for j in range(1, n):
        cols[:, j] = (rows[:, j, None] >> np.arange(j) & 1) @ (1 << np.arange(j - 1, -1, -1))
    return codes_of_columns(n, cols)


def rows_of_codes(n: int, codes: Sequence[int]) -> np.ndarray:
    """(B, n) int64 adjacency rows of the graphs on n vertices with the given
    codes; a negative code, or one wider than n(n-1)/2 bits, raises ValueError."""
    nbits = n * (n - 1) // 2
    if len(codes) and (min(codes) < 0 or max(codes) >> nbits):
        raise ValueError(f"a code is negative or wider than {nbits} bits")
    nbytes = (nbits + 7) // 8
    raw = b"".join(code.to_bytes(nbytes, "big") for code in codes)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(len(codes), nbytes), axis=1)
    return bits[:, 8 * nbytes - nbits:] @ _PAIR_WEIGHTS[:nbits, :n]


def record_of_code(n: int, code: int) -> str:
    """The graph6 record of the graph on n vertices with the given code."""
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    padded = code << (6 * nbytes - nbits)
    return chr(n + 63) + "".join(
        chr((padded >> 6 * k & 63) + 63) for k in range(nbytes - 1, -1, -1)
    )


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
    return Graph(n, tuple(rows_of_codes(n, [padded >> pad])[0].tolist()))


def emit_graph6(g: Graph) -> str:
    """Encode a Graph as one graph6 record."""
    return record_of_code(g.n, codes_of_rows(g.n, [g.adj])[0])


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
    bits = np.unpackbits((raw[:, 1:] - 63)[:, :, None], axis=2)[:, :, 2:]
    bits = bits.reshape(len(shape), 6 * (width - 1))
    ok = ((raw >= 63) & (raw <= 126)).all(axis=1) & ~bits[:, nbits:].any(axis=1)
    adj = bits[:, :nbits] @ _PAIR_WEIGHTS[:nbits, :n]
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
