import numpy as np
import pytest

from bellgraph import bell
from bellgraph.bell import (
    LhvAssignment,
    LhvResult,
    bell_coefficients,
    family_oracle_complete,
    family_oracle_star_copies,
    fwht_inplace,
    identity_table,
    lhv_bound,
    lhv_bound_full,
    lhv_value,
    lhv_value_table,
    stabilizer_table,
    tensor_tables,
)
from bellgraph.coverable import coverable_set
from bellgraph.dyadic import Dyadic
from bellgraph.families import complete, ring, star, star_copies
from bellgraph.graphs import Graph, local_complement
from bellgraph.pauli import stabilizer_element, to_text
from oracles import brute_lhv_values, brute_wht, random_graph, transform_lhv_values


def test_fwht_matches_definition():
    rng = np.random.default_rng(1)
    for n in range(0, 7):
        a = rng.integers(-5, 6, size=1 << n).astype(np.int64)
        assert np.array_equal(fwht_inplace(a.copy()), brute_wht(a))


def test_coefficients_t0_all_ones():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(1, 9)))
        bc = bell_coefficients(g, 0)
        assert np.array_equal(bc.k, np.ones(1 << g.n, dtype=np.int64))


def test_star_t1_coefficients_are_identity():
    bc = bell_coefficients(star(3), 1)
    assert bc.k[0] == 8
    assert not bc.k[1:].any()


def test_coefficient_invariants():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 10))
        g = random_graph(rng, n)
        t = int(rng.integers(0, min(3, n) + 1))
        bc = bell_coefficients(g, t)
        cov_count = coverable_set(g, t).count
        assert bc.k[0] == cov_count
        assert bc.k.sum() == 1 << n
        assert np.abs(bc.k).max() <= cov_count


def test_stabilizer_table_matches_pauli_module(census):
    for n in (3, 4, 5):
        for g in census[n]:
            table = stabilizer_table(g)
            for s in range(1 << n):
                p = stabilizer_element(g, s)
                assert table.nbhd[s] == p.z
                assert table.signs[s] == p.sign()
                assert table.sx[s] == (p.x & ~p.z)
                assert table.sy[s] == (p.x & p.z)
    rng = np.random.default_rng(4)
    for n in (7, 8):
        g = random_graph(rng, n)
        table = stabilizer_table(g)
        for _ in range(100):
            s = int(rng.integers(1 << n))
            p = stabilizer_element(g, s)
            assert table.signs[s] == p.sign()


def test_star_expansion_reproduces_golden_terms():
    g = star(3)
    bc = bell_coefficients(g, 0)
    terms = {
        to_text(stabilizer_element(g, s)) for s in range(8) if bc.k[s]
    }
    assert terms == {
        "+I", "+X1 Z2 Z3", "+Z1 X2", "+Z1 X3",
        "+Y1 Y2 Z3", "+Y1 Z2 Y3", "+X2 X3", "-X1 Y2 Y3",
    }


def test_all_plus_values():
    g = star(3)
    assert lhv_value(g, bell_coefficients(g, 0), LhvAssignment(0, 0)) == Dyadic(6, 3)
    g2 = star_copies(2)
    assert lhv_value(g2, bell_coefficients(g2, 1), LhvAssignment(0, 0)) == Dyadic(15, 4)


def test_full_coverable_forces_value_one():
    g = star(3)
    bc = bell_coefficients(g, 1)
    for x in range(8):
        for y in range(8):
            assert lhv_value(g, bc, LhvAssignment(x, y)) == Dyadic(1)


def test_tables_match_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(12):
        n = int(rng.integers(1, 5))
        g = random_graph(rng, n)
        t = int(rng.integers(0, min(2, n) + 1))
        brute = np.array(brute_lhv_values(g, t, reduced=True), dtype=np.int64)
        assert np.array_equal(lhv_value_table(g, t), brute)
        assert np.array_equal(transform_lhv_values(g, t), brute)


def _oracle_result(g, t):
    values = transform_lhv_values(g, t)
    idx = int(values.argmax())  # first maximum in (x_neg << n) | y_neg order
    bound = Dyadic(int(values[idx]), g.n)
    return LhvResult(bound, LhvAssignment(idx >> g.n, idx & ((1 << g.n) - 1)), bound < 1)


def test_engines_agree():
    # the blocked engine against the single 4^n transform oracle
    rng = np.random.default_rng(6)
    sizes = [3, 4, 5, 6, 7, 8]
    for i in range(24):
        g = random_graph(rng, sizes[i % len(sizes)])
        for t in (0, 1, 2):
            assert np.array_equal(lhv_value_table(g, t), transform_lhv_values(g, t))


def test_engines_agree_on_argmax():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(1, 7)))
        t = int(rng.integers(0, 3)) if g.n >= 2 else 0
        t = min(t, g.n)
        assert lhv_bound(g, t) == _oracle_result(g, t)


def test_blocks_keep_values_and_first_argmax(monkeypatch):
    # tiny blocks split every table into many x_neg blocks, so the running
    # max and its tie-break cross block boundaries
    monkeypatch.setattr(bell, "BLOCK_ELEMENTS", 1 << 6)
    rng = np.random.default_rng(11)
    graphs = [random_graph(rng, n) for n in (4, 5, 6, 7, 8) for _ in range(3)]
    graphs += [Graph(6, (0,) * 6), complete(6), star_copies(2)]
    for g in graphs:
        for t in range(0, min(2, g.n) + 1):
            assert np.array_equal(lhv_value_table(g, t), transform_lhv_values(g, t))
            assert lhv_bound(g, t) == _oracle_result(g, t)


def test_known_bounds():
    assert lhv_bound(complete(3), 0).bound == Dyadic(3, 2)
    assert lhv_bound(star(3), 0).bound == Dyadic(3, 2)
    assert lhv_bound(ring(5), 0).bound == Dyadic(5, 3)
    assert lhv_bound(star_copies(2), 1).bound == Dyadic(15, 4)
    # engines verified against the brute-force oracle: a bound above 1
    assert lhv_bound(ring(5), 1).bound == Dyadic(5, 1)
    assert not lhv_bound(ring(5), 1).valid


def test_validity_flag():
    assert lhv_bound(star_copies(2), 1).valid
    assert not lhv_bound(star(3), 1).valid  # bound exactly 1


def test_argmax_deterministic_tie_break():
    # edgeless graph: value depends only on x_neg, so ties are massive
    g = Graph(3, (0, 0, 0))
    res = lhv_bound(g, 0)
    assert res.argmax == LhvAssignment(0, 0)
    assert res.bound == Dyadic(1)


def test_full_oracle_matches_reduced(census):
    for n in (1, 2, 3, 4):
        for g in census[n]:
            for t in range(0, min(2, n) + 1):
                assert lhv_bound_full(g, t).bound == lhv_bound(g, t).bound


def test_full_oracle_matches_brute():
    rng = np.random.default_rng(8)
    for _ in range(6):
        n = int(rng.integers(1, 4))
        g = random_graph(rng, n)
        t = int(rng.integers(0, min(2, n) + 1))
        brute = max(brute_lhv_values(g, t, reduced=False))
        assert lhv_bound_full(g, t).bound == Dyadic(brute, n)


def test_full_oracle_size_cap():
    with pytest.raises(ValueError):
        lhv_bound_full(complete(7), 1)


def test_bound_above_old_cap():
    # a 4^n table at n = 13 would be 512 MB; blocks keep it at a few MB
    assert lhv_bound(complete(13), 1).bound == family_oracle_complete(13, 1)
    g = random_graph(np.random.default_rng(12), 13)
    res = lhv_bound(g, 1)
    assert lhv_value(g, bell_coefficients(g, 1), res.argmax) == res.bound


@pytest.mark.slow
def test_star_copies_15_vertices():
    res = lhv_bound(star_copies(5), 1)
    assert res.bound == Dyadic(81, 7) == family_oracle_star_copies(5, 1)


def test_int32_width_bound():
    # Parseval: sum|w| = sum|k| <= 2^n sqrt(|C|) <= 2^(1.5n), the bound the
    # engine's int32 accumulator relies on; checked exactly at n = 16
    rng = np.random.default_rng(13)
    graphs = [random_graph(rng, 16) for _ in range(3)] + [complete(16)]
    for g in graphs:
        for t in range(4):
            bc = bell_coefficients(g, t)
            l1 = int(np.abs(bc.k).sum())
            assert l1 * l1 <= (1 << 2 * g.n) * bc.coverable_count <= 1 << 3 * g.n


def test_lc_invariance_of_bounds():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        g = random_graph(rng, n)
        t = int(rng.integers(0, 3))
        ref = lhv_bound(g, t).bound
        for a in range(n):
            assert lhv_bound(local_complement(g, a), t).bound == ref


def test_isomorphism_invariance_of_bounds():
    rng = np.random.default_rng(10)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        g = random_graph(rng, n)
        t = int(rng.integers(0, 3))
        perm = tuple(int(v) for v in rng.permutation(n))
        assert lhv_bound(g.relabel(perm), t).bound == lhv_bound(g, t).bound


def test_complete_graph_assignment_dichotomy():
    for n in range(3, 9):
        for t in (1, 2, 3):
            values = lhv_value_table(complete(n), t)
            assert set(np.unique(values)) <= {0, 1 << n}
            assert lhv_bound(complete(n), t).bound == Dyadic(1)
            assert family_oracle_complete(n, t) == Dyadic(1)


def test_single_copy_value_set():
    # per-copy values of the star's Bell operator: -1/4, 1/4, 3/4
    values = lhv_value_table(star(3), 0)
    assert set(Dyadic(int(v), 3) for v in np.unique(values)) == {
        Dyadic(-1, 2), Dyadic(1, 2), Dyadic(3, 2),
    }


def test_family_oracle_values():
    assert family_oracle_star_copies(2, 1) == Dyadic(15, 4)
    assert family_oracle_star_copies(3, 1) == Dyadic(54, 6)
    assert family_oracle_star_copies(3, 2) == Dyadic(63, 6)
    assert family_oracle_star_copies(1, 0) == Dyadic(3, 2)
    assert family_oracle_star_copies(1, 1) == Dyadic(1)
    assert family_oracle_star_copies(4, 3) == Dyadic(255, 8)
    with pytest.raises(ValueError):
        family_oracle_star_copies(3, 3)
    with pytest.raises(ValueError):
        family_oracle_complete(5, 0)


def test_family_agreement():
    for m in (2, 3):
        g = star_copies(m)
        assert lhv_bound(g, 1).bound == family_oracle_star_copies(m, 1)
        assert lhv_bound(g, m - 1).bound == family_oracle_star_copies(m, m - 1)


def test_tensor_recursion_for_t1():
    # one copy more: B_1 extends by B_1 (x) B_0 + B_0^m (x) (1 - B_0)
    b0_one = bell_coefficients(star(3), 0).k
    one3 = identity_table(3)
    for m in (1, 2):
        low = star_copies(m)
        b1_low = bell_coefficients(low, 1).k
        b0_low = bell_coefficients(low, 0).k
        assembled = tensor_tables(b1_low, b0_one) + tensor_tables(b0_low, one3 - b0_one)
        direct = bell_coefficients(star_copies(m + 1), 1).k
        assert np.array_equal(assembled, direct)


def test_product_form_for_high_tolerance():
    # 1 - (x)_i (1 - B_0) reproduces the t = m-1 coefficients
    b0_one = bell_coefficients(star(3), 0).k
    one3 = identity_table(3)
    for m in (2, 3):
        prod = one3 - b0_one
        for _ in range(m - 1):
            prod = tensor_tables(prod, one3 - b0_one)
        assembled = identity_table(3 * m) - prod
        direct = bell_coefficients(star_copies(m), m - 1).k
        assert np.array_equal(assembled, direct)


def test_full_width_coefficients():
    # 16 vertices is the word-width cap; coefficients stay exact integers
    g = complete(16)
    bc = bell_coefficients(g, 1)
    assert bc.k.sum() == 1 << 16
    assert bc.k[0] == coverable_set(g, 1).count
    assert np.abs(bc.k).max() <= bc.k[0]


def test_lhv_value_with_explicit_z_assignment():
    g = star(3)
    bc = bell_coefficients(g, 0)
    # flipping Z on the center plus X,Y on its neighborhood and Y on itself
    # leaves every stabilizer value unchanged (the reduction argument)
    base = lhv_value(g, bc, LhvAssignment(0, 0))
    flipped = lhv_value(g, bc, LhvAssignment(0b110, 0b111, 0b001))
    assert base == flipped
