import dataclasses
import importlib
import inspect
import json
import random

import numpy as np
import pytest

import bellgraph
from bellgraph import canon
from bellgraph.bell import lhv_bound
from bellgraph.canon import ORBIT_CAP, canonicalize, lc_orbit, lc_orbits
from bellgraph.cli import main
from bellgraph.dyadic import Dyadic
from bellgraph.families import complete, complete_join, parse_family, ring, star, star_copies
from bellgraph.graph6 import Graph6Error, emit_graph6, parse_graph6
from bellgraph.graphs import Graph
from bellgraph.search import (
    TABLE1,
    Checkpoint,
    class_reps,
    iso_class_reps,
    minimal_violating_n,
    reproduce_table1,
    search,
    search_file,
    search_labeled_all,
)
from oracles import enumerate_labeled, reference_dedup

# the package re-exports the function `search`, which shadows the module
search_module = importlib.import_module("bellgraph.search")


def test_enumerate_labeled_counts():
    assert sum(1 for _ in enumerate_labeled(1)) == 1
    assert sum(1 for _ in enumerate_labeled(3)) == 8
    assert sum(1 for _ in enumerate_labeled(4)) == 64
    assert len({canonicalize(g) for g in enumerate_labeled(3)}) == 4
    assert len({canonicalize(g) for g in enumerate_labeled(4)}) == 11


def test_orbit_cap_and_chunk_size_are_constants():
    # no call takes the cap or the chunk size; tests set canon.ORBIT_CAP and
    # search.CHUNK_SIZE instead
    for fn, name in ((search, "orbit_cap"), (search_file, "orbit_cap"), (search_file, "chunk_size"),
                     (lc_orbits, "max_size"), (lc_orbit, "max_size")):
        assert name not in inspect.signature(fn).parameters, (fn.__name__, name)
    assert (ORBIT_CAP, search_module.CHUNK_SIZE) == (100_000, 4096)
    for alias in ("canonicalize_many", "lc_class_reps"):
        assert not hasattr(bellgraph, alias)
        assert not hasattr(canon, alias) and not hasattr(search_module, alias)


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
        reports = search_labeled_all(n, (0, 1, 2))
        for t in (0, 1, 2):
            assert reports[t].best_bound == TABLE1[(t, n)]
            assert reports[t].graphs_examined == 1 << (n * (n - 1) // 2)


def test_search_accepts_single_t():
    report = search_labeled_all(4, 0)
    assert report.best_bound == Dyadic(3, 2)


def test_stream_search_matches_labeled_fast_path():
    fast = search_labeled_all(5, (0, 1, 2))
    slow = search(enumerate_labeled(5), (0, 1, 2))
    for t in (0, 1, 2):
        assert fast[t].best_bound == slow[t].best_bound
        assert fast[t].witnesses == slow[t].witnesses
        assert fast[t].lc_classes_examined == slow[t].lc_classes_examined


def test_stream_order_does_not_change_bound():
    graphs = list(enumerate_labeled(4))
    fwd = search(graphs, 0)
    rev = search(list(reversed(graphs)), 0)
    assert fwd.best_bound == rev.best_bound
    assert fwd.lc_classes_examined == rev.lc_classes_examined
    assert [f for f, _ in fwd.witnesses] == sorted(f for f, _ in fwd.witnesses)


def test_ring5_class_attains_t0_optimum():
    report = search_labeled_all(5, 0)
    assert report.best_bound == Dyadic(5, 3)
    witness_forms = {f for f, _ in report.witnesses}
    assert lc_orbit(ring(5)) & witness_forms


def test_two_triangles_attain_n6_t1_optimum():
    report = search_labeled_all(6, 1)
    assert report.best_bound == Dyadic(15, 4)
    witness_forms = {f for f, _ in report.witnesses}
    assert lc_orbit(complete_join(3, 3)) & witness_forms
    assert lc_orbit(star_copies(2)) & witness_forms  # same LC class


def test_dedup_modes_agree_on_n5():
    by_mode = {mode: search_labeled_all(5, (0, 1, 2), dedup=mode) for mode in ("lc", "iso")}
    labeled = list(enumerate_labeled(5))
    for t in (0, 1, 2):
        # the oracle: the least bound over every labeled graph
        least = min(lhv_bound(g, t).bound for g in labeled)
        assert by_mode["lc"][t].best_bound == by_mode["iso"][t].best_bound == least
    assert by_mode["iso"][0].lc_classes_examined == 34
    assert by_mode["lc"][0].lc_classes_examined == 11


def test_mixed_sizes_rejected(monkeypatch, tmp_path):
    for dedup in ("lc", "iso"):
        with pytest.raises(ValueError) as err:
            search([star(3), star(4)], 0, dedup=dedup)
        assert str(err.value) == "record 2: census mixes vertex counts 3 and 4"
    with pytest.raises(ValueError) as err:  # past the first chunk
        search([complete(3)] * 4100 + [star(4)], 0)
    assert str(err.value).startswith("record 4101: ")
    path = tmp_path / "mixed.g6"
    path.write_text("Bw\nBo\n\nBw\n" + emit_graph6(star(4)) + "\n")
    # chunks of 2 lines end before the n=4 record; 3 and 4096 decode it
    # with n=3 records of the same chunk
    for chunk_size in (2, 3, 4096):
        monkeypatch.setattr(search_module, "CHUNK_SIZE", chunk_size)
        with pytest.raises(ValueError) as err:
            search_file(str(path), 0)
        assert str(err.value) == "line 5: census mixes vertex counts 3 and 4"
    lines = [emit_graph6(g) for g in [complete(5)] * 40 + [star(4)] + [ring(5)] * 5]
    path.write_text("\n".join(lines[:20] + [""] + lines[20:]) + "\n")
    for chunk_size in (8, 4096):  # past the first chunk
        monkeypatch.setattr(search_module, "CHUNK_SIZE", chunk_size)
        with pytest.raises(ValueError) as err:
            search_file(str(path), 0)
        assert str(err.value) == "line 42: census mixes vertex counts 5 and 4"


def test_empty_census_rejected():
    with pytest.raises(ValueError):
        search([], 0)


def test_census_vertex_count_is_the_first_well_formed_records(monkeypatch, tmp_path):
    # B@ sets a padding bit, so the census is on the 5 vertices of Dhc
    path = tmp_path / "late.g6"
    for chunk_size in (1, 2, 4096):
        monkeypatch.setattr(search_module, "CHUNK_SIZE", chunk_size)
        path.write_text("B@\nDhc\nBw\n")
        with pytest.raises(ValueError) as err:
            search_file(str(path), 0, lenient=True)
        assert str(err.value) == "line 3: census mixes vertex counts 5 and 3"
        path.write_text("B@\nDhc\nDhc\n")
        report = search_file(str(path), 0, lenient=True)
        assert (report.n, report.graphs_examined, report.records_skipped) == (5, 2, 1)
        with pytest.raises(Graph6Error) as err:
            search_file(str(path), 0)
        assert str(err.value).startswith("line 1: nonzero padding bits")


def test_empty_t_rejected(census5_path):
    calls = [
        lambda: search_file(census5_path, ()),
        lambda: search([star(3)], ()),
        lambda: search_labeled_all(4, []),
        lambda: reproduce_table1(max_n=4, ts=()),
    ]
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert "no t given" in str(err.value)


def test_search_file_reference_census(monkeypatch, census5_path):
    # the census is hashed only to match a checkpoint
    monkeypatch.setattr(search_module, "_file_sha256", None)
    report = search_file(census5_path, 0)
    assert report.best_bound == Dyadic(5, 3)
    assert report.graphs_examined == 34
    assert report.lc_classes_examined == 11


# malformed census lines: each one aborts a strict search with parse_graph6's
# message and its line number, and is skipped and counted in lenient mode
MALFORMED = {
    "bad bytes": "!!bad!!",
    "byte 127": "D\x7fc",
    "space": " Dhc",
    "short": "Dh",
    "long": "Dhcc",
    "nonzero padding": "Dh@",
    "n=17": chr(63 + 17) + "?" * 23,
    "n=0": "?",
    "extended form": "~?@??",
    "non-ASCII byte": "D\xe9c",
    "non-ASCII first byte": "\xe9hc",
}


def test_search_file_lenient(monkeypatch, capsys, tmp_path, census5_path):
    lines = open(census5_path).read().splitlines()
    for case, bad in MALFORMED.items():
        with pytest.raises(Graph6Error) as parsed:
            parse_graph6(bad)
        # at 34 the bad record is the file's last line
        for at, chunk_size in ((3, 4096), (3, 2), (30, 8), (34, 8)):
            monkeypatch.setattr(search_module, "CHUNK_SIZE", chunk_size)
            path = tmp_path / "corrupt.g6"
            path.write_text("\n".join(lines[:at] + [bad] + lines[at:]) + "\n", encoding="latin-1")
            with pytest.raises(Graph6Error) as err:
                search_file(str(path), 0)
            offset = parsed.value.offset
            assert str(err.value) == f"line {at + 1}: {parsed.value}", case
            assert err.value.offset == offset
            report = search_file(str(path), 0, lenient=True)
            assert report.best_bound == Dyadic(5, 3)
            assert report.graphs_examined == 34
            assert report.records_skipped == 1, case
            assert report.to_json()["records_skipped"] == 1
    # the command line names a non-ASCII byte like any other, and skips it when lenient
    monkeypatch.undo()
    path = tmp_path / "latin1.g6"
    path.write_bytes(b"Bw\nB\xe9\nBo\n")
    assert main(["search", "--census", str(path), "--t", "0"]) == 2
    assert "line 2: byte 233 outside graph6 range 63..126 (byte offset 1)" in capsys.readouterr().err
    assert main(["search", "--census", str(path), "--t", "0", "--lenient", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert (obj["graphs_examined"], obj["records_skipped"]) == (2, 1)
    # blank lines and CR line endings are no records, and no malformed ones
    path = tmp_path / "spaced.g6"
    path.write_text("\n\n".join(lines[:3]) + "\r\n" + "\r\n".join(lines[3:]) + "\n\n")
    monkeypatch.setattr(search_module, "CHUNK_SIZE", 4)
    for lenient in (False, True):
        report = search_file(str(path), 0, lenient=lenient)
        assert (report.graphs_examined, report.records_skipped) == (34, 0)


def test_search_file_checkpointing(monkeypatch, tmp_path, census5_path):
    monkeypatch.setattr(search_module, "CHUNK_SIZE", 8)
    ck = tmp_path / "resume.ck"
    full = search_file(census5_path, (0, 1), checkpoint_path=str(ck))
    text = ck.read_text().splitlines()
    assert text[0] == "bellgraph-checkpoint v3"
    assert "records=34" in text and "ts=0,1" in text and "orbit_cap_fallbacks=0" in text
    assert sum(line.startswith("rep=") for line in text) == 11
    # all 34 graphs on 5 vertices lie in the seen-set of the LC orbits
    assert sum(line.startswith("seen=") for line in text) == 34
    # rerunning with the completed checkpoint returns the same reports
    again = search_file(census5_path, (0, 1), checkpoint_path=str(ck))
    for t in (0, 1):
        assert again[t].comparable() == full[t].comparable()


class Interrupted(Exception):
    pass


def interrupted_run(monkeypatch, k, *args, **kwargs):
    """Run search_file until its k-th checkpoint write has finished.

    The run reads the census in chunks of whatever `CHUNK_SIZE` the caller set.
    """
    real = Checkpoint.write
    calls = []

    def write(self, state):
        real(self, state)
        calls.append(state.records)
        if len(calls) == k:
            raise Interrupted

    with monkeypatch.context() as patch:
        patch.setattr(Checkpoint, "write", write)
        try:
            search_file(*args, **kwargs)
        except Interrupted:
            return calls
    return None  # fewer than k writes: the run completed


@pytest.mark.parametrize("dedup", ["lc", "iso"])
@pytest.mark.parametrize("chunk_size", [10, 7])
def test_resume_matches_uninterrupted_run(monkeypatch, tmp_path, census5_path,
                                          chunk_size, dedup):
    ts = (0, 1, 2)
    full = search_file(census5_path, ts, dedup=dedup)
    monkeypatch.setattr(search_module, "CHUNK_SIZE", chunk_size)
    k = 1
    while True:
        ck = str(tmp_path / f"k{k}.ck")
        calls = interrupted_run(monkeypatch, k, census5_path, ts, dedup=dedup,
                                checkpoint_path=ck)
        if calls is None:
            break
        assert calls[-1] == min(k * chunk_size, 34)
        for _ in range(2):  # resume, then rerun with the completed checkpoint
            resumed = search_file(census5_path, ts, dedup=dedup, checkpoint_path=ck)
            for t in ts:
                assert resumed[t].comparable() == full[t].comparable()
        k += 1
    assert k - 1 == -(-34 // chunk_size)  # every write was interrupted once


def test_resume_after_three_chunks(monkeypatch, tmp_path, census5_path):
    monkeypatch.setattr(search_module, "CHUNK_SIZE", 10)
    ck = str(tmp_path / "three.ck")
    assert interrupted_run(monkeypatch, 3, census5_path, 0, checkpoint_path=ck) == [10, 20, 30]
    report = search_file(census5_path, 0, checkpoint_path=ck)
    assert report.graphs_examined == 34
    assert report.lc_classes_examined == 11
    assert report.witness_classes_total == len(report.witnesses) == 4


@pytest.mark.parametrize("written, resumed", [
    ({"t": (1,)}, {"t": (0, 1)}),
    ({"t": 0, "dedup": "lc"}, {"t": 0, "dedup": "iso"}),
    ({"t": 0, "orbit_cap": 50}, {"t": 0}),
])
def test_checkpoint_rejects_other_settings(monkeypatch, tmp_path, census5_path,
                                          written, resumed):
    # "orbit_cap" is not an argument: it sets canon.ORBIT_CAP for the run
    monkeypatch.setattr(search_module, "CHUNK_SIZE", 10)
    ck = str(tmp_path / "other.ck")

    def run(settings):
        settings = dict(settings)
        with monkeypatch.context() as patch:
            patch.setattr(canon, "ORBIT_CAP", settings.pop("orbit_cap", ORBIT_CAP))
            search_file(census5_path, checkpoint_path=ck, **settings)

    run(written)
    with pytest.raises(ValueError) as err:
        run(resumed)
    assert "delete the file" in str(err.value)


def test_checkpoint_rejects_changed_census(tmp_path, census5_path):
    ck = str(tmp_path / "stale.ck")
    search_file(census5_path, 0, checkpoint_path=ck)
    shorter = tmp_path / "shorter.g6"
    shorter.write_text("".join(open(census5_path).readlines()[:-1]))
    with pytest.raises(ValueError) as err:
        search_file(str(shorter), 0, checkpoint_path=ck)
    assert "census_sha256" in str(err.value)


@pytest.mark.parametrize("old", [
    "bellgraph-checkpoint v1\ncensus_sha256=0\nchunk_size=8\nchunks_done=1\n",
    "bellgraph-checkpoint v2\ncensus_sha256=0\nts=0\ndedup=lc\norbit_cap=100000\n"
    "n=5\nrecords=0\n",
], ids=["v1", "v2"])
def test_checkpoint_rejects_old_versions(tmp_path, census5_path, old):
    ck = tmp_path / "old.ck"
    ck.write_text(old)
    with pytest.raises(ValueError) as err:
        search_file(census5_path, 0, checkpoint_path=str(ck))
    assert "delete the file" in str(err.value)


def test_witness_cap():
    report = search_labeled_all(5, 2, max_witnesses=3)
    assert report.best_bound == Dyadic(1)
    assert len(report.witnesses) == 3
    # 9 of the 11 classes attain 1; the other two sit above 1
    assert report.witness_classes_total == 9


def test_report_json_schema():
    report = search_labeled_all(4, 1)
    obj = report.to_json()
    assert obj["best_bound"] == {"num": 1, "log2_den": 0}
    assert obj["n"] == 4 and obj["t"] == 1
    assert isinstance(obj["witnesses"], list)
    assert obj["graphs_examined"] == 64
    assert obj["records_skipped"] == 0 and obj["orbit_cap_fallbacks"] == 0
    # seconds per stage in this process, kept out of comparable()
    assert set(obj["stages_s"]) == {"read", "dedup", "evaluate", "verify"}
    assert all(isinstance(s, float) and s >= 0 for s in obj["stages_s"].values())
    assert obj["stages_s"]["dedup"] > 0 and obj["stages_s"]["verify"] > 0
    again = dataclasses.replace(report, stages={}, wall_time=0.0)
    assert again.comparable() == report.comparable()


def test_witness_check_catches_wrong_value(monkeypatch, census5_path):
    real = search_module.lhv_value
    monkeypatch.setattr(
        search_module, "lhv_value", lambda g, bc, a: real(g, bc, a) + Dyadic(1, g.n)
    )
    with pytest.raises(AssertionError) as err:
        search_file(census5_path, 0)
    assert "re-verification" in str(err.value)


def test_witness_graph6_parses_back():
    report = search_labeled_all(5, 0)
    for form, g6 in report.witnesses:
        assert emit_graph6(form.to_graph()) == g6


def test_reproduce_table1_exhaustive_band():
    cells = reproduce_table1(max_n=5)
    assert all(c.mode == "exhaustive" for c in cells)
    assert all(c.matches for c in cells)


def test_reproduce_table1_rejects_bad_arguments(monkeypatch):
    # rejected before any level is built: no graph has 17 vertices, and
    # max_n=2 would give an empty grid
    monkeypatch.setattr(search_module, "_level", None)
    for kwargs, message in (
        ({"max_n": 17}, "vertex count 17 outside 1..16"),
        ({"max_n": 2}, "max_n=2 below 3"),
    ):
        with pytest.raises(ValueError) as err:
            reproduce_table1(**kwargs)
        assert str(err.value).startswith(message), kwargs
    # the grid's cells come from the level walk and the named families alone
    assert list(inspect.signature(reproduce_table1).parameters) == ["max_n", "ts"]


def test_reproduce_table1_spot_checks(monkeypatch):
    monkeypatch.setattr(search_module, "EXHAUSTIVE_MAX_N", 4)
    cells = reproduce_table1(max_n=10)
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


def test_exhaustive_levels_are_built_once(monkeypatch):
    # every level is one pipeline run on the extensions of the level below;
    # the grid and the search walk levels 1..6 once, feeding what
    # class_reps(6) feeds
    real = search_module.canonical_codes
    fed = []

    def spy(n, adj):
        fed.append((n, len(adj)))
        return real(n, adj)

    monkeypatch.setattr(search_module, "canonical_codes", spy)
    class_reps(6)
    # 2^(k-1) extensions of each of the 1, 1, 2, 3, 6, 11 classes on k - 1
    assert fed == [(1, 1), (2, 2), (3, 8), (4, 24), (5, 96), (6, 352)]
    by_class_reps, fed[:] = list(fed), []
    reproduce_table1(max_n=6)
    assert fed == by_class_reps
    fed[:] = []
    report = search_labeled_all(6, (0, 1, 2))[0]
    assert fed == by_class_reps
    assert report.graphs_examined == 2 ** 15
    assert all(report.stages[stage] > 0 for stage in ("dedup", "evaluate", "verify"))


def test_iso_class_reps_match_census(census):
    for n, reps in census.items():
        assert len({canonicalize(g) for g in reps}) == len(reps)


def test_orbit_cap_fallbacks_are_counted(monkeypatch, tmp_path, census5_path):
    uncapped = search_file(census5_path, 0)
    monkeypatch.setattr(canon, "ORBIT_CAP", 1)
    capped = search_file(census5_path, 0)
    # every record whose orbit has a second isomorphism class hits the cap,
    # and its class is split into its members
    assert capped.orbit_cap_fallbacks > 0
    assert capped.lc_classes_examined == 34
    assert capped.to_json()["orbit_cap_fallbacks"] == capped.orbit_cap_fallbacks
    assert uncapped.orbit_cap_fallbacks == 0
    # the count survives an interrupt and resume
    monkeypatch.setattr(search_module, "CHUNK_SIZE", 10)
    ck = str(tmp_path / "capped.ck")
    assert interrupted_run(monkeypatch, 2, census5_path, 0, checkpoint_path=ck) == [10, 20]
    resumed = search_file(census5_path, 0, checkpoint_path=ck)
    assert resumed.comparable() == capped.comparable()


@pytest.mark.parametrize("dedup, orbit_cap", [
    ("lc", 1), ("lc", 2), ("lc", 3), ("lc", ORBIT_CAP),
    ("iso", ORBIT_CAP),  # the cap acts under "lc" only
])
def test_reports_do_not_depend_on_chunking(monkeypatch, tmp_path, census5_path, dedup, orbit_cap):
    monkeypatch.setattr(canon, "ORBIT_CAP", orbit_cap)
    full = search_file(census5_path, 0, dedup=dedup)
    for chunk_size in range(1, 35):
        monkeypatch.setattr(search_module, "CHUNK_SIZE", chunk_size)
        cut = search_file(census5_path, 0, dedup=dedup)
        assert cut.comparable() == full.comparable(), chunk_size
    # blank lines at uneven places make blocks of lines hold uneven record counts
    lines = open(census5_path).read().split()
    for blanks in ([1, 2, 5, 11, 12, 20, 27], [0, 3, 3, 3, 16, 33]):
        spaced = list(lines)
        for i in reversed(blanks):
            spaced.insert(i, "")
        path = tmp_path / "uneven.g6"
        path.write_text("\n".join(spaced) + "\n")
        for chunk_size in (3, 4, 7):
            monkeypatch.setattr(search_module, "CHUNK_SIZE", chunk_size)
            cut = search_file(str(path), 0, dedup=dedup)
            assert cut.comparable() == full.comparable(), (blanks, chunk_size)


@pytest.mark.parametrize("orbit_cap", [1, 2, 3, ORBIT_CAP])
def test_batched_dedup_equals_per_record_reference(monkeypatch, census5_path, orbit_cap):
    # under the cap the pipeline walks a chunk's orbits together; it must
    # pick the representatives, the seen codes and the fallbacks of a walk
    # per record, in stream order
    monkeypatch.setattr(canon, "ORBIT_CAP", orbit_cap)
    graphs = [parse_graph6(line) for line in open(census5_path).read().split()]
    for seed in (1, 2, 3):
        random.Random(seed).shuffle(graphs)
        reps, seen, fallbacks = reference_dedup(graphs, orbit_cap)
        rows = np.array([g.adj for g in graphs], dtype=np.int64)
        for blocks, chunk_size in (([rows], 7), ([rows], 4096), (np.split(rows, [1, 4, 5, 19]), 6)):
            monkeypatch.setattr(search_module, "CHUNK_SIZE", chunk_size)
            pipe = search_module._Pipeline((), "lc")
            pipe.feed(blocks)
            assert pipe.reps == reps
            assert pipe.seen == seen
            assert pipe.orbit_cap_fallbacks == fallbacks
        assert (fallbacks > 0) == (orbit_cap < ORBIT_CAP)


def test_reports_do_not_depend_on_record_order(tmp_path, census5_path):
    ts = (0, 1, 2)
    lines = open(census5_path).read().split()
    full = search_file(census5_path, ts)
    labeled5 = search_labeled_all(5, ts)
    for seed in (1, 2, 3):
        random.Random(seed).shuffle(lines)
        path = tmp_path / f"shuffled{seed}.g6"
        path.write_text("\n".join(lines) + "\n")
        shuffled = search_file(str(path), ts)
        for t in ts:
            assert shuffled[t].comparable() == full[t].comparable()
    for t in ts:
        # the census holds one graph per isomorphism class, not every labeled one
        as_labeled = dataclasses.replace(full[t], graphs_examined=1 << 10)
        assert as_labeled.comparable() == labeled5[t].comparable()
    universe = list(enumerate_labeled(6))
    ascending = search(universe, ts)
    random.Random(4).shuffle(universe)
    shuffled = search(universe, ts)
    labeled6 = search_labeled_all(6, ts)
    for t in ts:
        assert shuffled[t].comparable() == ascending[t].comparable() == labeled6[t].comparable()


def euler_transform(connected: list[int]) -> list[int]:
    """Counts of multisets of connected classes, from counts for n = 1, 2, ..."""
    c = [0] + [sum(d * connected[d - 1] for d in range(1, k + 1) if k % d == 0)
               for k in range(1, len(connected) + 1)]
    b = [1]
    for n in range(1, len(connected) + 1):
        b.append(sum(c[k] * b[n - k] for k in range(1, n + 1)) // n)
    return b[1:]


# connected classes on n = 1, 2, ... vertices: OEIS A090899 (up to LC and
# isomorphism) and A001349 (up to isomorphism)
CONNECTED_LC = [1, 1, 1, 2, 4, 11, 26, 101, 440]
CONNECTED_ISO = [1, 1, 2, 6, 21, 112, 853, 11117]


def test_euler_transform_of_published_counts():
    assert euler_transform(CONNECTED_LC) == [1, 2, 3, 6, 11, 26, 59, 182, 675]
    assert euler_transform(CONNECTED_ISO) == [1, 2, 4, 11, 34, 156, 1044, 12346]


def test_class_counts_match_published_counts():
    for n, want in enumerate(euler_transform(CONNECTED_LC)[:8], start=1):
        reps = class_reps(n)
        assert len(reps) == want, f"n={n}"
        forms = [canonicalize(g) for g in reps]
        assert forms == sorted(forms)
        if n <= 7:  # each representative is its orbit's least canonical form
            assert all(form == min(lc_orbit(g)) for g, form in zip(reps, forms))
    for n, want in enumerate(euler_transform(CONNECTED_ISO)[:7], start=1):
        reps = iso_class_reps(n)
        assert len(reps) == want, f"n={n}"
        assert [g.adj for g in reps] == [canonicalize(g).to_graph().adj for g in reps]
    for bogus in ("none", "bogus"):
        with pytest.raises(ValueError) as err:
            class_reps(3, bogus)
        assert str(err.value) == f"unknown dedup mode {bogus!r}"
    for n in (0, 17):
        with pytest.raises(ValueError) as err:
            class_reps(n)
        assert str(err.value) == f"vertex count {n} outside 1..16"
