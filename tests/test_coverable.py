import numpy as np
import pytest

from bellgraph import coverable
from bellgraph.coverable import coverable_set
from bellgraph.families import complete, star, star_copies
from bellgraph.graphs import disjoint_union
from oracles import brute_coverable, random_graph


def test_star_t1_is_full():
    cov = coverable_set(star(3), 1)
    assert cov.members == frozenset(range(8))
    assert cov.is_full


def test_t0_is_empty_set_only():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(1, 9)))
        cov = coverable_set(g, 0)
        assert cov.members == {0}
        assert not cov.is_full or g.n == 0


def test_complete_graph_closed_form():
    for n in range(3, 11):
        for t in range(1, 4):
            cov = coverable_set(complete(n), t)
            expected = {
                c for c in range(1 << n)
                if bin(c).count("1") <= t or bin(c).count("1") >= n - t
            }
            assert cov.members == expected


def test_two_stars_t1():
    cov = coverable_set(star_copies(2), 1)
    v1, v2 = 0b000111, 0b111000
    expected = {c for c in range(64) if c & ~v1 == 0 or c & ~v2 == 0}
    assert len(expected) == 15
    assert cov.members == expected
    assert not cov.is_full


def test_star_copies_high_tolerance_closed_form():
    # at t = m-1 the coverable sets are those missing an entire copy
    for m in (2, 3):
        g = star_copies(m)
        blocks = [0b111 << (3 * i) for i in range(m)]
        expected = {
            c for c in range(1 << g.n) if any(c & b == 0 for b in blocks)
        }
        assert coverable_set(g, m - 1).members == expected


def test_matches_brute_enumeration():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        g = random_graph(rng, n)
        t = int(rng.integers(0, 3))
        assert coverable_set(g, t).members == brute_coverable(g, t)


def test_matches_brute_enumeration_every_t(monkeypatch):
    # every t up to n, with the supports formed whole and then one at a time
    rng = np.random.default_rng(17)
    graphs = [random_graph(rng, int(rng.integers(1, 7))) for _ in range(8)]
    for chunk in (coverable.PAIR_CHUNK, 1):
        monkeypatch.setattr(coverable, "PAIR_CHUNK", chunk)
        for g in graphs:
            for t in range(g.n + 1):
                cov = coverable_set(g, t)
                assert cov.members == brute_coverable(g, t), (g, t, chunk)
                assert cov.count == len(cov.members)


def test_monotone_in_t():
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        g = random_graph(rng, n)
        prev = coverable_set(g, 0).members
        for t in range(1, n + 1):
            cur = coverable_set(g, t).members
            assert prev <= cur
            prev = cur


def test_indicator_matches_members():
    g = star_copies(2)
    cov = coverable_set(g, 1)
    flags = {int(i) for i in np.flatnonzero(cov.indicator)}
    assert flags == cov.members
    assert cov.indicator.sum() == cov.count


def test_disjoint_union_t1_structure():
    rng = np.random.default_rng(15)
    for _ in range(10):
        g1 = random_graph(rng, 3)
        g2 = random_graph(rng, 3)
        g = disjoint_union(g1, g2)
        c1 = coverable_set(g1, 1).members
        c2 = coverable_set(g2, 1).members
        expected = {c for c in c1} | {c << 3 for c in c2}
        assert coverable_set(g, 1).members == expected
        assert expected == brute_coverable(g, 1)


def test_t_range_validation():
    with pytest.raises(ValueError):
        coverable_set(star(3), 4)
    with pytest.raises(ValueError):
        coverable_set(star(3), -1)


def test_empty_always_member():
    rng = np.random.default_rng(16)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(1, 10)))
        t = int(rng.integers(0, min(4, g.n + 1)))
        assert 0 in coverable_set(g, t).members
