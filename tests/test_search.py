import importlib
import os

import pytest

from bellgraph.canon import canonicalize, lc_orbit
from bellgraph.dyadic import Dyadic
from bellgraph.families import complete_join, parse_family, ring, star, star_copies
from bellgraph.graph6 import Graph6Error, emit_graph6
from bellgraph.graphs import Graph
from bellgraph.search import (
    TABLE1,
    Checkpoint,
    enumerate_labeled,
    iso_class_reps,
    minimal_violating_n,
    reproduce_table1,
    search,
    search_file,
    search_labeled_all,
)


def test_enumerate_labeled_counts():
    assert sum(1 for _ in enumerate_labeled(1)) == 1
    assert sum(1 for _ in enumerate_labeled(3)) == 8
    assert sum(1 for _ in enumerate_labeled(4)) == 64
    assert len({canonicalize(g) for g in enumerate_labeled(3)}) == 4
    assert len({canonicalize(g) for g in enumerate_labeled(4)}) == 11


def test_enumerate_labeled_cap():
    with pytest.raises(ValueError) as err:
        next(enumerate_labeled(8))
    assert "census" in str(err.value)


def test_named_families():
    assert parse_family("star_copies(2)").edges() == [(0, 1), (0, 2), (3, 4), (3, 5)]
    assert parse_family("complete_join(3,3)") == complete_join(3, 3)
    assert parse_family("ring(5)") == ring(5)
    with pytest.raises(ValueError):
        parse_family("blob(3)")
    with pytest.raises(ValueError):
        parse_family("ring(3,4)")
    with pytest.raises(ValueError):
        parse_family("complete_join(12,8)")  # 20 vertices


def test_small_band_matches_known_grid():
    for n in (3, 4, 5):
        reports = search_labeled_all(n, (0, 1, 2), threads=1)
        for t in (0, 1, 2):
            assert reports[t].best_bound == TABLE1[(t, n)]
            assert reports[t].graphs_examined == 1 << (n * (n - 1) // 2)


def test_search_thread_count_invariance():
    one = search_labeled_all(5, (0, 1), threads=1)
    four = search_labeled_all(5, (0, 1), threads=4)
    for t in (0, 1):
        assert one[t].comparable() == four[t].comparable()
    stream_one = search(enumerate_labeled(4), 0, threads=1)
    stream_four = search(enumerate_labeled(4), 0, threads=4)
    assert stream_one.comparable() == stream_four.comparable()


def test_thread_env_override(monkeypatch):
    from bellgraph.search import default_threads

    monkeypatch.setenv("BELLGRAPH_THREADS", "3")
    assert default_threads() == 3
    monkeypatch.delenv("BELLGRAPH_THREADS")
    assert default_threads() >= 1


def test_search_accepts_single_t():
    report = search_labeled_all(4, 0, threads=1)
    assert report.best_bound == Dyadic(3, 2)


def test_stream_search_matches_labeled_fast_path():
    fast = search_labeled_all(5, (0, 1, 2), threads=1)
    slow = search(enumerate_labeled(5), (0, 1, 2), threads=1)
    for t in (0, 1, 2):
        assert fast[t].best_bound == slow[t].best_bound
        assert fast[t].witnesses == slow[t].witnesses
        assert fast[t].lc_classes_examined == slow[t].lc_classes_examined


def test_stream_order_does_not_change_bound():
    graphs = list(enumerate_labeled(4))
    fwd = search(graphs, 0, threads=1)
    rev = search(list(reversed(graphs)), 0, threads=1)
    assert fwd.best_bound == rev.best_bound
    assert fwd.lc_classes_examined == rev.lc_classes_examined
    assert [f for f, _ in fwd.witnesses] == sorted(f for f, _ in fwd.witnesses)


def test_ring5_class_attains_t0_optimum():
    report = search_labeled_all(5, 0, threads=1)
    assert report.best_bound == Dyadic(5, 3)
    witness_forms = {f for f, _ in report.witnesses}
    assert lc_orbit(ring(5)) & witness_forms


def test_two_triangles_attain_n6_t1_optimum():
    report = search_labeled_all(6, 1, threads=2)
    assert report.best_bound == Dyadic(15, 4)
    witness_forms = {f for f, _ in report.witnesses}
    assert lc_orbit(complete_join(3, 3)) & witness_forms
    assert lc_orbit(star_copies(2)) & witness_forms  # same LC class


def test_dedup_modes_agree_on_n5():
    by_mode = {
        mode: search_labeled_all(5, (0, 1, 2), dedup=mode, threads=2)
        for mode in ("lc", "iso", "none")
    }
    for t in (0, 1, 2):
        bounds = {mode: reports[t].best_bound for mode, reports in by_mode.items()}
        assert len(set(bounds.values())) == 1
    assert by_mode["none"][0].lc_classes_examined == 1024
    assert by_mode["iso"][0].lc_classes_examined == 34
    assert by_mode["lc"][0].lc_classes_examined == 11


def test_mixed_sizes_rejected():
    with pytest.raises(ValueError):
        search([star(3), star(4)], 0)


def test_empty_census_rejected():
    with pytest.raises(ValueError):
        search([], 0)


def test_search_file_reference_census(census5_path):
    report = search_file(census5_path, 0, threads=1)
    assert report.best_bound == Dyadic(5, 3)
    assert report.graphs_examined == 34
    assert report.lc_classes_examined == 11


def test_search_file_lenient(tmp_path, census5_path):
    lines = open(census5_path).read().splitlines()
    corrupted = lines[:3] + ["!!bad!!"] + lines[3:]
    path = tmp_path / "corrupt.g6"
    path.write_text("\n".join(corrupted) + "\n")
    with pytest.raises(Graph6Error):
        search_file(str(path), 0)
    report = search_file(str(path), 0, lenient=True)
    assert report.best_bound == Dyadic(5, 3)
    assert report.graphs_examined == 34


def test_search_file_checkpointing(tmp_path, census5_path):
    ck = tmp_path / "resume.ck"
    full = search_file(census5_path, (0, 1), chunk_size=8, checkpoint_path=str(ck))
    assert os.path.exists(ck)
    state = Checkpoint.read(str(ck))
    assert state.chunks_done == 5  # 34 records in chunks of 8
    assert state.minima[0] == Dyadic(5, 3)

    # simulate a run that died after two chunks: rewind the checkpoint
    Checkpoint(state.census_sha256, 8, 2, {0: Dyadic(5, 3), 1: Dyadic(1)}).write(str(ck))
    resumed = search_file(census5_path, (0, 1), chunk_size=8, checkpoint_path=str(ck))
    assert resumed[0].best_bound == full[0].best_bound
    assert resumed[1].best_bound == full[1].best_bound
    assert resumed[0].graphs_examined == 34 - 16


def test_checkpoint_rejects_changed_census(tmp_path, census5_path):
    ck = tmp_path / "stale.ck"
    Checkpoint("0" * 64, 8, 1, {}).write(str(ck))
    with pytest.raises(ValueError):
        search_file(census5_path, 0, chunk_size=8, checkpoint_path=str(ck))


def test_witness_cap():
    report = search_labeled_all(5, 2, threads=1, max_witnesses=3)
    assert report.best_bound == Dyadic(1)
    assert len(report.witnesses) == 3
    # 9 of the 11 classes attain 1; the other two sit above 1
    assert report.witness_classes_total == 9


def test_report_json_schema():
    report = search_labeled_all(4, 1, threads=1)
    obj = report.to_json()
    assert obj["best_bound"] == {"num": 1, "log2_den": 0}
    assert obj["n"] == 4 and obj["t"] == 1
    assert isinstance(obj["witnesses"], list)
    assert obj["graphs_examined"] == 64


def test_witness_check_catches_wrong_value(monkeypatch, census5_path):
    # the package re-exports the function `search`, which shadows the module
    search_module = importlib.import_module("bellgraph.search")
    real = search_module.lhv_value
    monkeypatch.setattr(
        search_module, "lhv_value", lambda g, bc, a: real(g, bc, a) + Dyadic(1, g.n)
    )
    with pytest.raises(AssertionError) as err:
        search_file(census5_path, 0, threads=1)
    assert "re-verification" in str(err.value)


def test_witness_graph6_parses_back():
    report = search_labeled_all(5, 0, threads=1)
    for form, g6 in report.witnesses:
        assert emit_graph6(form.to_graph()) == g6


def test_reproduce_table1_exhaustive_band():
    cells = reproduce_table1(max_n=5, threads=1)
    assert all(c.mode == "exhaustive" for c in cells)
    assert all(c.matches for c in cells)


def test_reproduce_table1_census_dir(tmp_path):
    # a supplied census file takes precedence over family spot checks
    from bellgraph.search import SPOT_FAMILIES

    lines = [emit_graph6(parse_family(spec)) for (t, n), spec in SPOT_FAMILIES.items()
             if n == 8] + [emit_graph6(complete_join(8)), emit_graph6(star(8))]
    (tmp_path / "n8.g6").write_text("\n".join(lines) + "\n")
    cells = reproduce_table1(max_n=8, max_exhaustive_n=4, census_dir=str(tmp_path))
    by_key = {(c.t, c.n): c for c in cells}
    assert by_key[(1, 8)].mode == "exhaustive"
    assert by_key[(1, 8)].value == Dyadic(29, 5)
    assert by_key[(1, 7)].mode == "family-bound"


def test_reproduce_table1_spot_checks():
    cells = reproduce_table1(max_n=10, max_exhaustive_n=4, threads=1)
    by_key = {(c.t, c.n): c for c in cells}
    assert by_key[(1, 8)].mode == "family-bound"
    assert by_key[(1, 8)].value == Dyadic(29, 5)
    assert by_key[(2, 10)].value == Dyadic(63, 6)
    assert by_key[(1, 10)].mode == "missing"
    assert by_key[(0, 9)].mode == "missing"
    assert all(c.matches is not False for c in cells)
    minima = minimal_violating_n(cells)
    assert minima[0] == (3, True)
    assert minima[1] == (6, False)  # n=5 exhausted, n=6 known by family bound
    assert minima[2] == (9, False)


def test_iso_class_reps_match_census(census):
    for n, reps in census.items():
        assert len({canonicalize(g) for g in reps}) == len(reps)
