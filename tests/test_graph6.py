import numpy as np
import pytest

from bellgraph.canon import CanonicalForm
from bellgraph.families import complete, ring, star, star_copies, complete_join
from bellgraph.graph6 import (
    Graph6Error,
    codes_of_rows,
    emit_graph6,
    parse_graph6,
    read_graph6,
    record_of_code,
    rows_of_codes,
)
from bellgraph.graphs import Graph
from oracles import random_graph

# fixed against an independent encoder before the package was written
GOLDEN = [
    ("A_", complete(2)),
    ("B_", Graph.from_edges(3, [(0, 1)])),
    ("Bg", Graph.from_edges(3, [(0, 1), (1, 2)])),
    ("Bw", complete(3)),
    ("Bo", star(3)),
    ("B?", Graph(3, (0, 0, 0))),
    ("C~", complete(4)),
    ("Cs", star(4)),
    ("Ch", Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])),
    ("Dhc", ring(5)),
    ("EoCO", star_copies(2)),
    ("EwCW", complete_join(3, 3)),
]


@pytest.mark.parametrize("text,graph", GOLDEN, ids=[t for t, _ in GOLDEN])
def test_golden_records(text, graph):
    assert parse_graph6(text) == graph
    assert emit_graph6(graph) == text


def test_roundtrip_reference_census(census5_path):
    with open(census5_path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    assert len(lines) == 34
    for line in lines:
        assert emit_graph6(parse_graph6(line)) == line


def test_roundtrip_random_graphs():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 17))
        g = random_graph(rng, n)
        assert parse_graph6(emit_graph6(g)) == g


def test_edge_code_round_trip():
    # a code is a record body: pairs (0,1), (0,2), (1,2), (0,3), ... from the
    # highest bit down, zero-padded to whole 6-bit groups; one batch per n,
    # from the empty graph on 0 vertices to 120-bit codes at n = 16
    rng = np.random.default_rng(14)
    for n in range(0, 17):
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        draws = ["".join(rng.choice(["0", "1"], size=len(pairs))) for _ in range(20)]
        codes = [int(bits or "0", 2) for bits in draws]
        rows = rows_of_codes(n, codes)
        assert rows.shape == (20, n) and rows.dtype == np.int64
        assert codes_of_rows(n, rows) == codes
        assert rows_of_codes(n, []).shape == (0, n) and codes_of_rows(n, rows[:0]) == []
        for bits, code, row in zip(draws, codes, rows.tolist()):
            padded = bits + "0" * (-len(bits) % 6)
            record = chr(n + 63) + "".join(
                chr(int(padded[k:k + 6], 2) + 63) for k in range(0, len(padded), 6))
            assert record_of_code(n, code) == record
            if n == 0:  # no Graph and no census record has 0 vertices
                assert row == []
                continue
            g = Graph(n, tuple(row))
            form = CanonicalForm(n, code)
            assert set(g.edges()) == {p for p, b in zip(pairs, bits) if b == "1"}
            assert form.to_graph() == g
            assert emit_graph6(g) == form.to_graph6() == record
            assert form.to_graph6() == record_of_code(n, code) == emit_graph6(form.to_graph())
            assert parse_graph6(record) == g
    # a negative code, or one wider than n(n-1)/2 bits, is no graph
    for n, code in ((5, -5), (5, 1 << 10), (0, 1), (16, 1 << 120)):
        with pytest.raises(ValueError):
            rows_of_codes(n, [0, code])


def test_parse_empty_is_error():
    with pytest.raises(Graph6Error):
        parse_graph6("")


def test_parse_bad_byte_names_offset():
    with pytest.raises(Graph6Error) as err:
        parse_graph6("B" + chr(20))
    assert err.value.offset == 1


def test_parse_wrong_length():
    with pytest.raises(Graph6Error):
        parse_graph6("B")  # n=3 needs one data byte
    with pytest.raises(Graph6Error):
        parse_graph6("Bww")


def test_parse_oversized_vertex_count():
    with pytest.raises(Graph6Error) as err:
        parse_graph6(chr(63 + 17))
    assert "17" in str(err.value)


def test_parse_nonzero_padding():
    # n=3 uses 3 of 6 bits; set a padding bit
    with pytest.raises(Graph6Error):
        parse_graph6("B" + chr(63 + 0b000001))


def test_file_iteration(tmp_path):
    path = tmp_path / "mini.g6"
    path.write_text("Bw\nBo\n\nBg\n")
    for lines, blocks in ((1, 4), (2, 2), (4096, 1)):
        # one (rows, skipped) per block of lines, the blank line's included
        items = list(read_graph6(str(path), lines))
        assert len(items) == blocks and all(skipped == 0 for _, skipped in items)
        graphs = [Graph(3, tuple(row)) for rows, _ in items for row in rows.tolist()]
        assert graphs == [complete(3), star(3), Graph.from_edges(3, [(0, 1), (1, 2)])]
    # the batch decode equals parse_graph6 for every n, one census per n
    rng = np.random.default_rng(16)
    for n in range(1, 17):
        graphs = [random_graph(rng, n) for _ in range(12)] + [Graph(n, (0,) * n), complete(n)]
        path.write_text("".join(emit_graph6(g) + "\n" for g in graphs))
        want = [parse_graph6(line) for line in path.read_text().split()]
        for lines in (5, 4096):
            decoded = [Graph(n, tuple(row)) for rows, _ in read_graph6(str(path), lines)
                       for row in rows.tolist()]
            assert decoded == want == graphs, f"n={n}"


def test_file_strict_raises_with_line_number(tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("Bw\nB\n")
    with pytest.raises(Graph6Error) as err:
        list(read_graph6(str(path), 4096))
    assert "line 2" in str(err.value)


def test_file_lenient_yields_errors(tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("Bw\nB\nBo\n")
    [(rows, skipped)] = read_graph6(str(path), 4096, lenient=True)
    assert rows.tolist() == [list(complete(3).adj), list(star(3).adj)] and skipped == 1
    items = list(read_graph6(str(path), 1, lenient=True))
    assert [(rows.tolist(), skipped) for rows, skipped in items] == [
        ([list(complete(3).adj)], 0), ([], 1), ([list(star(3).adj)], 0)]
    # a block before the first well-formed record yields no rows
    path.write_text("B\n\nBw\n")
    items = list(read_graph6(str(path), 1, lenient=True))
    assert [(len(rows), skipped) for rows, skipped in items] == [(0, 1), (0, 0), (1, 0)]
    assert items[2][0].tolist() == [list(complete(3).adj)]
