import numpy as np
import pytest

from bellgraph.families import complete, parse_family, ring, star, star_copies
from bellgraph.graphs import Graph, disjoint_union, iter_bits
from oracles import bits_of, local_complement, neighborhood_of_set, random_graph


def test_bits_helpers():
    assert bits_of([0, 2, 5]) == 0b100101
    assert list(iter_bits(0b100101)) == [0, 2, 5]
    assert list(iter_bits(0)) == []


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, (0b010, 0b001, 0b001))  # 2's row claims 0 but 0's row lacks 2
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b10))  # self loops
    with pytest.raises(ValueError):
        Graph(17, tuple([0] * 17))
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])


def test_vertex_count_checked_before_edges_are_read():
    def unread():
        raise AssertionError("edges read before the vertex count was checked")
        yield

    for n in (0, 17):
        with pytest.raises(ValueError) as err:
            Graph.from_edges(n, unread())
        assert str(err.value) == f"vertex count {n} outside 1..16"
    # the families hand their edges over as generators: building the
    # 5 * 10^9 pairs of complete(100000) would take hours
    for name, n in (("complete", 100000), ("ring", 200000), ("star", 100000)):
        with pytest.raises(ValueError) as err:
            parse_family(f"{name}({n})")
        assert str(err.value) == f"vertex count {n} outside 1..16"


def test_star_adjacency():
    g = star(3)
    assert g.adj == (0b110, 0b001, 0b001)
    assert g.degree(0) == 2
    assert g.edges() == [(0, 1), (0, 2)]


def test_neighborhood_single_vertex_is_row():
    g = star(3)
    assert neighborhood_of_set(g, 0b001) == g.adj[0]


def test_neighborhood_of_both_leaves_cancels():
    # N_1 ^ N_2 = {0} ^ {0} = empty on the 3-star
    g = star(3)
    assert neighborhood_of_set(g, 0b110) == 0


def test_neighborhood_of_empty_set():
    g = random_graph(np.random.default_rng(0), 6)
    assert neighborhood_of_set(g, 0) == 0


def test_neighborhood_additive_under_symmetric_difference():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n)
        w1 = int(rng.integers(1 << n))
        w2 = int(rng.integers(1 << n))
        lhs = neighborhood_of_set(g, w1 ^ w2)
        rhs = neighborhood_of_set(g, w1) ^ neighborhood_of_set(g, w2)
        assert lhs == rhs


def test_local_complement_star_is_triangle():
    assert local_complement(star(3), 0) == complete(3)
    assert local_complement(complete(3), 1) == Graph.from_edges(3, [(0, 1), (1, 2)])


def test_local_complement_fixes_edgeless():
    g = Graph(4, (0, 0, 0, 0))
    for a in range(4):
        assert local_complement(g, a) == g


def test_local_complement_involution():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n)
        a = int(rng.integers(n))
        assert local_complement(local_complement(g, a), a) == g


def test_disjoint_union_blocks():
    g = disjoint_union(star(3), star(3))
    assert g == star_copies(2)
    assert g.edges() == [(0, 1), (0, 2), (3, 4), (3, 5)]
    with pytest.raises(ValueError):
        disjoint_union(complete(10), complete(10))


def test_relabel_roundtrip():
    rng = np.random.default_rng(3)
    g = random_graph(rng, 7)
    perm = tuple(rng.permutation(7))
    inverse = [0] * 7
    for i, p in enumerate(perm):
        inverse[p] = i
    assert g.relabel(perm).relabel(inverse) == g


def test_relabel_rejects_non_permutations():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert path.relabel((2, 1, 0)) == path
    for perm in ((0, 0, 0), (0, 1), (0, 1, 3)):
        with pytest.raises(ValueError) as err:
            path.relabel(perm)
        assert str(err.value) == f"relabeling {perm} is not a permutation of 0..2"


def test_ring_degrees():
    g = ring(6)
    assert all(g.degree(v) == 2 for v in range(6))
    assert complete(5).degree(0) == 4
    assert star(4).degree(0) == 3 and star(4).degree(2) == 1
