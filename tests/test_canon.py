import random

import numpy as np
import pytest

from bellgraph import canon
from bellgraph.canon import (
    CanonicalForm,
    OrbitCapExceeded,
    canonical_codes,
    canonicalize,
    lc_orbit,
    lc_orbits,
)
from bellgraph.families import complete, complete_join, ring, star, star_copies
from bellgraph.graph6 import parse_graph6
from bellgraph.graphs import Graph, disjoint_union, local_complement
from bellgraph.search import class_reps
from oracles import (
    are_isomorphic,
    brute_max_code,
    enumerate_labeled,
    random_graph,
    reference_canonical_code,
    reference_lc_orbit,
)


def _codes(graphs) -> list[int]:
    """Canonical codes of graphs on one vertex count, canonicalized in one batch."""
    return canonical_codes(graphs[0].n, [g.adj for g in graphs])


def test_relabeled_stars_share_code():
    center0 = star(3)
    center2 = Graph.from_edges(3, [(2, 0), (2, 1)])
    assert canonicalize(center0) == canonicalize(center2)


def test_different_graphs_different_codes():
    assert canonicalize(star(3)) != canonicalize(complete(3))
    path4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert canonicalize(path4) != canonicalize(star(4))


def test_invariant_under_relabeling():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n)
        relabeled = [g.relabel(rng.permutation(n)) for _ in range(20)]
        assert _codes(relabeled) == [canonicalize(g).code] * 20


def test_code_counts_classes_exactly():
    # distinct codes over all labeled graphs = known class counts
    for n, expected in [(3, 4), (4, 11), (5, 34)]:
        codes = set(_codes(list(enumerate_labeled(n))))
        assert len(codes) == expected


def test_equal_code_implies_isomorphic():
    rng = np.random.default_rng(9)
    graphs = [random_graph(rng, 5) for _ in range(40)]
    codes = _codes(graphs)
    for g1, f1 in zip(graphs[:10], codes[:10]):
        for g2, f2 in zip(graphs[10:20], codes[10:20]):
            assert (f1 == f2) == are_isomorphic(g1, g2)


def test_to_graph_roundtrip():
    rng = np.random.default_rng(31)
    for _ in range(50):
        g = random_graph(rng, int(rng.integers(1, 9)))
        form = canonicalize(g)
        assert canonicalize(form.to_graph()) == form
    assert canonicalize(CanonicalForm(1, 0).to_graph()) == CanonicalForm(1, 0)


def test_symmetric_graphs_are_cheap():
    # twin pruning keeps complete/edgeless/multipartite cases linear-ish
    for g in (complete(10), Graph(10, (0,) * 10), complete_join(3, 5), star(10)):
        form = canonicalize(g)
        assert form.to_graph().edge_count() == g.edge_count()
    assert canonicalize(complete(12)).to_graph() == complete(12)


def test_lc_orbit_of_star_is_two_classes():
    orbit = lc_orbit(star(3))
    assert orbit == {canonicalize(star(3)), canonicalize(complete(3))}
    assert min(orbit) == min(canonicalize(star(3)), canonicalize(complete(3)))


def test_lc_orbit_edgeless_is_singleton():
    # every vertex has degree <= 1, so the first frontier has no images
    for g in (Graph(1, (0,)), Graph(5, (0,) * 5), Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])):
        assert lc_orbit(g) == {canonicalize(g)}


def test_lc_orbit_of_two_stars_combines_componentwise():
    orbit = lc_orbit(star_copies(2))
    expected = {
        canonicalize(star_copies(2)),
        canonicalize(complete_join(3, 3)),
        canonicalize(Graph.from_edges(6, [(0, 1), (0, 2), (3, 4), (3, 5), (4, 5)])),
    }
    assert orbit == expected


def test_lc_orbit_invariant_along_moves():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        g = random_graph(rng, n)
        a = int(rng.integers(n))
        assert lc_orbit(g) == lc_orbit(local_complement(g, a))


def test_lc_orbit_cap(monkeypatch):
    monkeypatch.setattr(canon, "ORBIT_CAP", 2)
    with pytest.raises(OrbitCapExceeded):
        lc_orbit(ring(7))


def test_canonical_forms_order_deterministically():
    forms = sorted(lc_orbit(star_copies(2)))
    assert forms == sorted(forms)
    assert forms[0] == min(lc_orbit(star_copies(2)))


def test_n6_codes_agree_with_permutation_orbit_dedup():
    # canonicalize and the search's permutation-orbit bitmap are independent
    # dedup routes; both must see exactly the known 156 classes
    codes = set(_codes(list(enumerate_labeled(6))))
    assert len(codes) == 156


def _petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def test_vertex_transitive_twin_free_graph():
    # no twins anywhere: the worst shape for the pruned search
    g = _petersen()
    form = canonicalize(g)
    assert form.to_graph().edge_count() == 15
    rng = np.random.default_rng(41)
    for _ in range(10):
        perm = tuple(int(p) for p in rng.permutation(10))
        assert canonicalize(g.relabel(perm)) == form


def _cube(d: int) -> Graph:
    return Graph.from_edges(1 << d, [(v, v | 1 << b) for v in range(1 << d)
                                     for b in range(d) if not v >> b & 1])


def _ring_copies(m: int, k: int) -> Graph:
    g = ring(k)
    for _ in range(m - 1):
        g = disjoint_union(g, ring(k))
    return g


def test_codes_equal_reference_on_small_censuses(census, census5_path):
    census5 = [parse_graph6(line) for line in open(census5_path).read().split()]
    for graphs in (census[6], census5):
        assert _codes(graphs) == [reference_canonical_code(g) for g in graphs]


@pytest.mark.parametrize("n", range(1, 17))
def test_codes_equal_reference_on_random_graphs(n):
    rng = np.random.default_rng(700 + n)
    graphs = [random_graph(rng, n) for _ in range(12)]
    for p in (0.15, 0.85):
        graphs += [Graph.from_edges(n, [(a, b) for b in range(n) for a in range(b)
                                        if rng.random() < p]) for _ in range(4)]
    adj = np.array([g.adj for g in graphs], dtype=np.int64)
    assert canonical_codes(n, adj) == [reference_canonical_code(g) for g in graphs]


@pytest.mark.parametrize("g", [
    complete(12), Graph(10, (0,) * 10), star(10), complete_join(3, 5),
    _petersen(), _cube(4), _ring_copies(3, 5),
], ids=["K12", "edgeless10", "star10", "K3+K5", "petersen", "Q4", "3xC5"])
def test_codes_equal_reference_on_symmetric_shapes(g):
    want = reference_canonical_code(g)
    rng = np.random.default_rng(g.n)
    relabeled = [g.relabel(rng.permutation(g.n)) for _ in range(4)]
    assert _codes([g] + relabeled) == [want] * 5


def test_code_is_brute_force_maximum_up_to_n5(census):
    for n in range(1, 6):
        assert _codes(census[n]) == [brute_max_code(g) for g in census[n]]


def test_degree_rule_excludes_maximum_on_8_n6_classes(census):
    codes = _codes(census[6])
    maxima = [brute_max_code(g) for g in census[6]]
    assert all(code <= top for code, top in zip(codes, maxima))
    assert sum(code != top for code, top in zip(codes, maxima)) == 8


def test_lc_orbits_equal_reference_orbits():
    # one representative per LC class at n = 6 reaches all 156 classes
    covered = set()
    for g in class_reps(6):
        orbit = lc_orbit(g)
        assert {form.code for form in orbit} == reference_lc_orbit(g)
        covered |= orbit
    assert len(covered) == 156


def test_merging_walks_give_every_source_its_reference_orbit(monkeypatch, census):
    # every class on 6 vertices in one batch, twice over and shuffled, so
    # that walks meet and merge in every orbit
    graphs = census[6] + [g.relabel(range(5, -1, -1)) for g in census[6]]
    random.Random(6).shuffle(graphs)
    want = []
    for g in graphs:
        code = reference_canonical_code(g)
        want.append(next((orbit for orbit in want if code in orbit), None)
                    or frozenset(reference_lc_orbit(g)))
    adj = np.array([g.adj for g in graphs], dtype=np.int64)
    codes = canonical_codes(6, adj)
    assert lc_orbits(6, codes, adj) == want
    assert len(set(want)) == 26
    # past the cap, exactly the sources of larger orbits give up
    for cap in (1, 2, 5):
        monkeypatch.setattr(canon, "ORBIT_CAP", cap)
        assert lc_orbits(6, codes, adj) == [
            orbit if len(orbit) <= cap else None for orbit in want]


def test_empty_batches():
    assert canonical_codes(5, np.zeros((0, 5), dtype=np.int64)) == []
