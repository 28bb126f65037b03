import ast
import os

import numpy as np
import pytest

import bellgraph
from bellgraph import bell
from bellgraph.bell import (
    LhvAssignment,
    LhvResult,
    bell_coefficients,
    family_oracle_complete,
    family_oracle_star_copies,
    fwht_inplace,
    lhv_bound,
    lhv_bounds,
    lhv_value,
    stabilizer_table,
)
from bellgraph.coverable import coverable_set
from bellgraph.dyadic import Dyadic
from bellgraph.families import complete, ring, star, star_copies
from bellgraph.graphs import Graph, local_complement
from oracles import (
    brute_lhv_values,
    brute_wht,
    enumerate_labeled,
    identity_table,
    lhv_bound_full,
    lhv_value_table,
    lhv_values_full,
    random_graph,
    stabilizer_element,
    tensor_tables,
    to_text,
    transform_lhv_values,
)


def test_fwht_matches_definition():
    rng = np.random.default_rng(1)
    for n in range(0, 7):
        a = rng.integers(-5, 6, size=1 << n).astype(np.int64)
        assert np.array_equal(fwht_inplace(a.copy()), brute_wht(a))
    # a 2-D array transforms each column on its own, as the engine's grids
    # and blocks need
    for n, cols in ((1, 3), (3, 2), (5, 4), (6, 1), (7, 5)):
        a = rng.integers(-5, 6, size=(1 << n, cols)).astype(np.int32)
        expected = np.stack([brute_wht(col) for col in a.T.astype(np.int64)], axis=1)
        assert np.array_equal(fwht_inplace(a.copy()), expected)


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
    for n in (7, 8, 12, 16):
        g = random_graph(rng, n)
        table = stabilizer_table(g)
        for _ in range(100):
            s = int(rng.integers(1 << n))
            p = stabilizer_element(g, s)
            assert table.signs[s] == p.sign()
            assert table.nbhd[s] == p.z
            assert table.sx[s] == (p.x & ~p.z)
            assert table.sy[s] == (p.x & p.z)


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
        table = lhv_value_table(g, t)
        assert table.dtype == np.int64  # whatever width the blocks used
        assert np.array_equal(table, brute)
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


def _mirrored(values, n):
    # V(x, y) == V(x, y ^ (2^n - 1)): each x_neg row reads the same reversed
    rows = np.asarray(values).reshape(1 << n, 1 << n)
    return np.array_equal(rows, rows[:, ::-1])


def test_values_are_symmetric_under_flipping_every_y(census):
    # the engine transforms only y_neg < 2^(n-1) because of this symmetry;
    # it is pinned here without the engine: term by term where the
    # brute-force letters reach (n <= 4), then by the single-transform oracle
    for n in range(1, 6):
        for g in census[n]:
            for t in range(min(2, n) + 1):
                values = brute_lhv_values(g, t) if n <= 4 else transform_lhv_values(g, t)
                assert _mirrored(values, n), (g, t)
    rng = np.random.default_rng(29)
    for n in (6, 7, 8):
        for _ in range(3):
            g = random_graph(rng, n)
            for t in range(3):
                assert _mirrored(transform_lhv_values(g, t), n), (g, t)


def test_y_supports_have_even_popcount():
    # why the symmetry holds: S_Y is the set of vertices of S with an odd
    # number of neighbours in S, and a graph has an even number of those
    rng = np.random.default_rng(30)
    for n in range(1, 17):
        graphs = [random_graph(rng, n) for _ in range(3)]
        sy = bell._stabilizer_tables(n, _rows(graphs)).sy
        assert not (np.bitwise_count(sy) & 1).any(), n


def test_blocks_hold_half_the_y_rows():
    rng = np.random.default_rng(31)
    for n in range(1, 17):
        _, _, block = next(bell._value_blocks(n, _rows([random_graph(rng, n)]), 0))
        assert block.shape[0] == 1 << n - 1, n


def _rows(graphs):
    return np.array([g.adj for g in graphs], dtype=np.int64).reshape(len(graphs), -1)


def _block_dtype_of(g, t):
    return next(bell._value_blocks(g.n, _rows([g]), t))[2].dtype


def _first_max_over_blocks(g, t):
    # the least (x_neg << n) | y_neg attaining the maximum, found by two plain
    # passes over the blocks rather than by lhv_bound's running maximum
    blocks = lambda: bell._value_blocks(g.n, _rows([g]), t)
    best = max(int(block.max()) for _, _, block in blocks())
    idx = min(
        ((x0 + int(c)) << g.n) | int(r)
        for _, x0, block in blocks()
        for r, _, c in np.argwhere(block == best)
    )
    return best, LhvAssignment(idx >> g.n, idx & ((1 << g.n) - 1))


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
    # int32 path (sum|w| = 74086): its maxima sit at y_neg = 0 of x_neg =
    # 1755, 2925 and 3510, three different blocks of 32 columns (and at
    # y_neg = 4095, the mirror of 0 that the blocks do not hold)
    monkeypatch.setattr(bell, "BLOCK_ELEMENTS", 1 << 16)
    g = ring(12)
    assert _block_dtype_of(g, 3) == np.int32
    res = lhv_bound(g, 3)
    best, first = _first_max_over_blocks(g, 3)
    assert (res.bound, res.argmax) == (Dyadic(best, g.n), first)
    assert lhv_value(g, bell_coefficients(g, 3), res.argmax) == res.bound


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


def test_library_has_one_engine():
    # the 8^n scan is a test oracle: not exported, and the package never
    # imports from the tests
    assert not hasattr(bellgraph, "lhv_bound_full")
    assert not hasattr(bell, "lhv_bound_full")
    src = os.path.dirname(bellgraph.__file__)
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                assert top not in ("tests", "oracles", "conftest"), f"{name} imports {module}"


def test_full_oracle_matches_reduced(census):
    for n in (1, 2, 3, 4):
        for g in census[n]:
            for t in range(0, min(2, n) + 1):
                assert lhv_bound_full(g, t) == lhv_bound(g, t).bound


def test_full_oracle_matches_brute():
    rng = np.random.default_rng(8)
    for _ in range(6):
        n = int(rng.integers(1, 4))
        g = random_graph(rng, n)
        t = int(rng.integers(0, min(2, n) + 1))
        brute = max(brute_lhv_values(g, t, reduced=False))
        assert lhv_bound_full(g, t) == Dyadic(brute, n)


def test_full_oracle_table_matches_brute(census):
    # entry by entry, so a wrong Z support is caught even where it leaves
    # the maximum unchanged
    for n in (1, 2, 3):
        for g in census[n]:
            for t in range(min(2, n) + 1):
                brute = np.array(brute_lhv_values(g, t, reduced=False))
                assert np.array_equal(lhv_values_full(g, t), brute), (g, t)


def test_full_oracle_size_cap():
    with pytest.raises(ValueError):
        lhv_bound_full(complete(7), 1)


def test_bound_above_old_cap():
    # a 4^n table at n = 13 would be 512 MB; blocks keep it at a few MB
    assert lhv_bound(complete(13), 1).bound == family_oracle_complete(13, 1)
    g = random_graph(np.random.default_rng(12), 13)
    res = lhv_bound(g, 1)
    assert lhv_value(g, bell_coefficients(g, 1), res.argmax) == res.bound


def test_block_width_rule():
    assert bell._block_dtype(0) == np.int16
    assert bell._block_dtype((1 << 15) - 1) == np.int16
    assert bell._block_dtype(1 << 15) == np.int32
    assert bell._block_dtype((1 << 31) - 1) == np.int32
    with pytest.raises(OverflowError):
        bell._block_dtype(1 << 31)


def test_int16_blocks_near_their_limit():
    # 2^14 < sum|w| < 2^15 at n = 11, t = 2; the 4^11 table spans 16 blocks
    g = random_graph(np.random.default_rng(25), 11)
    total = int(np.abs(bell_coefficients(g, 2).k).sum())
    assert 1 << 14 < total < 1 << 15
    assert _block_dtype_of(g, 2) == np.int16
    values = transform_lhv_values(g, 2)
    assert np.array_equal(lhv_value_table(g, 2), values)
    assert lhv_bound(g, 2) == _oracle_result(g, 2)


def test_int32_blocks_match_closed_form():
    g = star_copies(4)
    assert int(np.abs(bell_coefficients(g, 3).k).sum()) == 37710
    assert _block_dtype_of(g, 3) == np.int32
    res = lhv_bound(g, 3)
    assert res.bound == family_oracle_star_copies(4, 3) == Dyadic(255, 8)
    assert lhv_value(g, bell_coefficients(g, 3), res.argmax) == res.bound


def test_values_beyond_int16_stay_exact(monkeypatch):
    # weights scaled by 2^11 push the values themselves past int16; sums that
    # wrap modulo 2^16 would then give wrong values, not only a wrong dtype.
    # Only the graphs in `scaled` are scaled, so a block holding several
    # graphs must take its width from its widest one, wherever it sits
    scale = 1 << 11
    scaled = set()
    weights = bell._weights

    def scaled_weights(n, adj, t):
        table, w = weights(n, adj, t)
        factor = [scale if tuple(row) in scaled else 1 for row in adj.tolist()]
        return table, w * np.array(factor, dtype=np.int64)[:, None]

    def values_of(g, t):
        return transform_lhv_values(g, t) * (scale if g.adj in scaled else 1)

    monkeypatch.setattr(bell, "_weights", scaled_weights)
    rng = np.random.default_rng(26)
    for n in (5, 6, 7):
        g = random_graph(rng, n)
        scaled.add(g.adj)
        batch = [random_graph(rng, n), g, random_graph(rng, n)]
        for t in (0, 1, 2):
            values = values_of(g, t)
            assert np.abs(values).max() >= 1 << 15
            assert np.array_equal(lhv_value_table(g, t), values)
            idx = int(values.argmax())
            res = lhv_bound(g, t)
            assert res.bound == Dyadic(int(values[idx]), n)
            assert res.argmax == LhvAssignment(idx >> n, idx & ((1 << n) - 1))
            # the scaled graph between two unscaled ones, all in one block
            widths = [block.dtype for _, _, block in bell._value_blocks(n, _rows(batch), t)]
            assert widths == [np.int32]
            for h, res in zip(batch, lhv_bounds(n, _rows(batch), t)):
                values = values_of(h, t)
                idx = int(values.argmax())
                assert res.bound == Dyadic(int(values[idx]), n)
                assert res.argmax == LhvAssignment(idx >> n, idx & ((1 << n) - 1))


def _check_batch(graphs, t):
    # element by element: the batch against one-graph calls and the oracle
    results = lhv_bounds(graphs[0].n, _rows(graphs), t)
    assert len(results) == len(graphs)
    for g, res in zip(graphs, results):
        assert res == lhv_bound(g, t) == _oracle_result(g, t), (g, t)


def test_lhv_bounds_match_one_graph_calls_and_oracle():
    for n in range(1, 5):
        labeled = list(enumerate_labeled(n))
        for t in range(min(3, n) + 1):
            _check_batch(labeled, t)
    rng = np.random.default_rng(27)
    for n in range(1, 11):
        graphs = [random_graph(rng, n) for _ in range(6 if n < 9 else 2)]
        graphs.insert(1, graphs[-1])  # a graph that repeats
        for t in range(min(3, n) + 1):
            _check_batch(graphs, t)
    # twenty graphs at n = 8 straddle three blocks of eight (8 * 2^15 entries)
    assert bell.BLOCK_ELEMENTS >> 15 == 8
    graphs = [random_graph(rng, 8) for _ in range(20)]
    blocks = [(j0, block.shape[1]) for j0, _, block in bell._value_blocks(8, _rows(graphs), 1)]
    assert blocks == [(0, 8), (8, 8), (16, 4)]
    _check_batch(graphs, 1)


def test_lhv_bounds_across_small_blocks(monkeypatch):
    # 2^8-entry blocks: eight graphs per block at n = 3, two at n = 4, and
    # one graph over several blocks from n = 5 on
    monkeypatch.setattr(bell, "BLOCK_ELEMENTS", 1 << 8)
    rng = np.random.default_rng(28)
    for n in (3, 4, 5, 6):
        graphs = [random_graph(rng, n) for _ in range(9)] + [complete(n)]
        graphs.append(graphs[2])
        for t in range(3):
            _check_batch(graphs, t)


def test_lhv_bounds_empty_batch_and_bad_shapes():
    assert lhv_bounds(4, np.zeros((0, 4), dtype=np.int64), 1) == []
    assert lhv_bounds(4, [], 1) == []
    assert lhv_bounds(3, [(0b110, 0b001, 0b001)], 0) == [lhv_bound(star(3), 0)]
    for bad in (np.zeros(4, dtype=np.int64), np.zeros((2, 5), dtype=np.int64),
                np.zeros((2, 4, 1), dtype=np.int64)):
        with pytest.raises(ValueError, match="shape"):
            lhv_bounds(4, bad, 1)
    for rows in ([(1, 0, 0)],               # self-loop
                 [(0b010, 0, 0)],           # asymmetric
                 [(0b1000, 0, 0)],          # vertex 3 of 3
                 [(-1, 0, 0)]):
        with pytest.raises(ValueError, match="simple graphs"):
            lhv_bounds(3, rows, 0)
    with pytest.raises(ValueError):
        lhv_bounds(17, np.zeros((1, 17), dtype=np.int64), 0)


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
    values = brute_lhv_values(g, 0, reduced=False)  # (x_neg << 6) | (y_neg << 3) | z_neg
    # flipping Z on the center plus X,Y on its neighborhood and Y on itself
    # leaves every stabilizer value unchanged (the reduction argument)
    flipped = values[(0b110 << 6) | (0b111 << 3) | 0b001]
    assert values[0] == flipped
    assert lhv_value(g, bell_coefficients(g, 0), LhvAssignment(0, 0)) == Dyadic(flipped, 3)
