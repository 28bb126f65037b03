"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Every comparison of bounds and coefficients is an
exact equality on dyadic rationals or integer arrays; the only tolerances
are the stated numerical ones for the noise-simulator checks.
"""
import importlib
import io
import json
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np
import pytest

from bellgraph.bell import (
    bell_coefficients,
    family_oracle_star_copies,
    lhv_bound,
    lhv_bounds,
)
from bellgraph.canon import lc_orbit
from bellgraph.cli import main
from bellgraph.coverable import coverable_set
from bellgraph.dyadic import Dyadic
from bellgraph.families import complete, complete_join, star, star_copies
from bellgraph.graph6 import emit_graph6, parse_graph6, rows_of_codes
from bellgraph.quantum import (
    apply_channel,
    bell_expectation,
    build_graph_state,
    random_weight_t_channel,
)
from bellgraph.search import (
    TABLE1,
    class_reps,
    reproduce_table1,
    search_labeled_all,
)
from oracles import (
    apply_channel_dense,
    bell_operator_matrix,
    identity_table,
    lhv_bound_full,
    lhv_value_table,
    local_complement,
    random_graph,
    tensor_tables,
    transform_lhv_values,
)

CHANNEL_SEED_BASE = 20260808  # fixed so every sweep is reproducible


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except Exception:
        print(f"\n[criterion {num}] FAIL - {desc}")
        raise
    print(f"\n[criterion {num}] PASS - {desc}")


def test_criterion_1_golden_star_expansion():
    with criterion(1, "8*B_0(star-3) reproduces all 8 signed terms exactly, < 1s"):
        start = time.perf_counter()
        assert emit_graph6(star(3)) == "Bo"
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["bell-op", "--graph", "Bo", "--t", "0", "--json"]) == 0
        # each coefficient is k[S] times the sign the rendered G_S carries
        terms = {
            term["pauli"]: term["coefficient"] * (1 if term["pauli"][0] == "+" else -1)
            for term in json.loads(out.getvalue())["terms"]
        }
        assert terms == {
            "+I": 1, "+X1 Z2 Z3": 1, "+Z1 X2": 1, "+Z1 X3": 1,
            "+Y1 Y2 Z3": 1, "+Y1 Z2 Y3": 1, "+X2 X3": 1, "-X1 Y2 Y3": 1,
        }
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_exhaustive_band():
    expected = {
        0: [Dyadic(3, 2), Dyadic(3, 2), Dyadic(5, 3), Dyadic(7, 4), Dyadic(6, 4)],
        1: [Dyadic(1), Dyadic(1), Dyadic(1), Dyadic(15, 4), Dyadic(15, 4)],
        2: [Dyadic(1)] * 5,
    }
    with criterion(2, "full labeled census n=3..7 reproduces the optimal grid"):
        for i, n in enumerate(range(3, 8)):
            reports = search_labeled_all(n, (0, 1, 2))
            for t in (0, 1, 2):
                got = reports[t].best_bound
                assert got == expected[t][i], f"D_{t}({n}) = {got}"


def test_criterion_3_spot_checks():
    with criterion(3, "named-family bounds at n=8,9,10 match the grid exactly"):
        assert lhv_bound(complete_join(3, 5), 1).bound == Dyadic(29, 5)
        assert lhv_bound(complete_join(3, 3, 3), 1).bound == Dyadic(54, 6)
        assert lhv_bound(complete_join(3, 3, 3), 2).bound == Dyadic(63, 6)
        assert lhv_bound(complete_join(3, 3, 4), 2).bound == Dyadic(63, 6)


def test_criterion_4_complete_graphs():
    with criterion(4, "complete graphs: bound exactly 1 and 0/1 assignment values"):
        for n in range(3, 11):
            size = 1 << n
            for t in (1, 2, 3):
                values = lhv_value_table(complete(n), t)
                assert int(values.max()) == size, f"D_{t}(K_{n}) != 1"
                distinct = set(int(v) for v in np.unique(values))
                assert distinct <= {0, size}, f"K_{n} t={t}: values {distinct}"


def test_criterion_5_family_formulas():
    with criterion(5, "star-copy families match closed forms and tensor recursions"):
        for m in (2, 3):
            g = star_copies(m)
            want_t1 = Dyadic((3 + m) * 3 ** (m - 1), 2 * m)
            assert lhv_bound(g, 1).bound == want_t1
            assert family_oracle_star_copies(m, 1) == want_t1
            want_high = Dyadic(4**m - 1, 2 * m)
            assert lhv_bound(g, m - 1).bound == want_high
            assert family_oracle_star_copies(m, m - 1) == want_high
        b0 = bell_coefficients(star(3), 0).k
        one = identity_table(3)
        for m in (1, 2):
            assembled = tensor_tables(bell_coefficients(star_copies(m), 1).k, b0) \
                + tensor_tables(bell_coefficients(star_copies(m), 0).k, one - b0)
            assert np.array_equal(assembled, bell_coefficients(star_copies(m + 1), 1).k)
        for m in (2, 3):
            prod = one - b0
            for _ in range(m - 1):
                prod = tensor_tables(prod, one - b0)
            assembled = identity_table(3 * m) - prod
            assert np.array_equal(assembled, bell_coefficients(star_copies(m), m - 1).k)


def test_criterion_6_noise_sweep(census):
    with criterion(6, "20 random channels per (graph, t<=2) keep the expectation at 1"):
        worst = 0.0
        cases = 0
        counter = 0
        sample = np.random.default_rng(CHANNEL_SEED_BASE)  # channels checked densely
        checked = 0
        for n in range(1, 7):
            for g in census[n]:
                psi0 = None
                for t in (1, 2):
                    if t > n or (cov := coverable_set(g, t)).is_full:
                        continue
                    if psi0 is None:
                        psi0 = build_graph_state(g)
                    for i in range(20):
                        seed = CHANNEL_SEED_BASE + 1000 * counter + i
                        channel = random_weight_t_channel(n, t, seed)
                        value = bell_expectation(psi0, cov, apply_channel(psi0, channel))
                        worst = max(worst, abs(value - 1.0))
                        assert worst < 1e-9, f"n={n} t={t} seed={seed}: {value!r}"
                        if sample.random() < 1 / 40:
                            rho = apply_channel_dense(np.outer(psi0, psi0.conj()), channel)
                            dense = np.trace(bell_operator_matrix(g, t) @ rho).real
                            assert abs(value - dense) < 1e-12, f"n={n} t={t} seed={seed}"
                            checked += 1
                    cases += 1
                    counter += 1
        assert cases == 311  # the sweep covers the same census slice every run
        assert checked > 100
        print(f"\n  swept {cases} (graph, t) cases, max |<B>-1| = {worst:.2e}, "
              f"{checked} channels equal to the dense oracle", end="")


def test_criterion_7_reduction_validity(census):
    with criterion(7, "Z=+1 reduction equals the full 8^n scan for all n<=5, t<=2"):
        for n in range(1, 6):
            for g in census[n]:
                for t in range(0, min(2, n) + 1):
                    reduced = lhv_bound(g, t).bound
                    full = lhv_bound_full(g, t)
                    assert reduced == full, f"n={n} t={t}: {reduced} != {full}"


def test_criterion_8_property_suite(census5_path):
    rng = np.random.default_rng(20260808)
    with criterion(8, "normalization, LC/iso invariance, engines, round-trip, dedup"):
        # coefficient normalization: sum_S k[S] = 2^n
        for _ in range(100):
            n = int(rng.integers(1, 11))
            g = random_graph(rng, n)
            t = int(rng.integers(0, min(3, n) + 1))
            assert bell_coefficients(g, t).k.sum() == 1 << n

        # LC invariance of bounds at every vertex
        for _ in range(100):
            n = int(rng.integers(2, 9))
            g = random_graph(rng, n)
            t = int(rng.integers(0, 3))
            ref = lhv_bound(g, t).bound
            for a in range(n):
                assert lhv_bound(local_complement(g, a), t).bound == ref

        # isomorphism invariance
        for _ in range(100):
            n = int(rng.integers(2, 9))
            g = random_graph(rng, n)
            t = int(rng.integers(0, 3))
            perm = tuple(int(v) for v in rng.permutation(n))
            assert lhv_bound(g.relabel(perm), t).bound == lhv_bound(g, t).bound

        # engine equivalence: blocked engine vs the single-transform oracle
        sizes = [3, 4, 5, 6, 7, 8]
        for i in range(50):
            g = random_graph(rng, sizes[i % len(sizes)])
            for t in (0, 1, 2):
                assert np.array_equal(lhv_value_table(g, t), transform_lhv_values(g, t))

        # graph6 round-trip: every census record and random graphs
        with open(census5_path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    assert emit_graph6(parse_graph6(line)) == line
        for _ in range(100):
            g = random_graph(rng, int(rng.integers(1, 17)))
            assert parse_graph6(emit_graph6(g)) == g

        # LC-dedup soundness on the full n=6 labeled census: the deduplicated
        # search sees exactly the bound values the raw census produces, from
        # one batched call per t over the classes and one over all 32,768
        # labeled graphs
        reps = np.array([g.adj for g in class_reps(6)], dtype=np.int64)
        labeled = rows_of_codes(6, range(1 << 15))
        for t in (0, 1, 2):
            with_dedup = {res.bound for res in lhv_bounds(6, reps, t)}
            without = {res.bound for res in lhv_bounds(6, labeled, t)}
            assert with_dedup == without, f"t={t}"


def capture_level_reports(monkeypatch) -> dict:
    """The reports each level of a grid computes, keyed by vertex count, so
    a test reads them without evaluating a level twice."""
    pipeline, levels = importlib.import_module("bellgraph.search")._Pipeline, {}
    real = pipeline.reports

    def reports(pipe, *args, **kwargs):
        levels[pipe.n] = real(pipe, *args, **kwargs)
        return levels[pipe.n]

    monkeypatch.setattr(pipeline, "reports", reports)
    return levels


@pytest.mark.slow
def test_criterion_9_exhaustive_n9(monkeypatch):
    # one walk of levels 1..9: the grid's own level-9 reports also yield the
    # class count, the fallbacks and the witnesses
    levels = capture_level_reports(monkeypatch)
    with criterion(9, "all 675 LC classes on 9 vertices reproduce the n=9 column"):
        cells = reproduce_table1(max_n=9)
        assert {(c.t, c.n) for c in cells} == {(t, n) for t in (0, 1, 2) for n in range(3, 10)}
        assert all(c.mode == "exhaustive" and c.matches for c in cells)
        reports = levels[9]
        assert reports[0].lc_classes_examined == 675
        assert reports[0].orbit_cap_fallbacks == 0
        expected = {0: Dyadic(13, 6), 1: Dyadic(27, 5), 2: Dyadic(63, 6)}
        for t in (0, 1, 2):
            assert reports[t].best_bound == expected[t] == TABLE1[(t, 9)]
        k333 = min(lc_orbit(complete_join(3, 3, 3)))
        for t in (1, 2):
            assert k333 in {form for form, _ in reports[t].witnesses}


@pytest.mark.slow
def test_criterion_10_exhaustive_n10(monkeypatch):
    # the paper's "exhaustive search on no more than 10 qubits": one walk of
    # levels 1..10, whose level-10 reports also yield the class count, the
    # fallbacks and the number of classes attaining each cell
    levels = capture_level_reports(monkeypatch)
    with criterion(10, "all 3990 LC classes on 10 vertices reproduce the n=10 column"):
        cells = reproduce_table1(max_n=10, ts=(0, 1, 2, 3))
        by_key = {(c.t, c.n): c for c in cells}
        assert set(by_key) == {(t, n) for t in range(4) for n in range(3, 11)}
        assert all(c.matches is not False for c in cells)
        for t in (0, 1, 2):
            assert by_key[(t, 10)].value == TABLE1[(t, 10)]
        assert by_key[(3, 10)].value == Dyadic(1)
        # the witness counts are read before truncation
        reports = levels[10]
        assert reports[0].lc_classes_examined == 3990
        assert reports[0].orbit_cap_fallbacks == 0
        counts = {t: reports[t].witness_classes_total for t in range(4)}
        assert counts == {0: 14, 1: 1, 2: 2, 3: 283}
