"""Census search for the graphs whose Bell operators violate hardest.

A search deduplicates a stream of graphs into one representative per class
of relabeling and local complementation (LC), held as a canonical code: the
least canonical code of the class's LC orbit. A representative depends only
on its class, so reports do not depend on the order of the records or on
how they are cut into chunks. Bounds are constant on classes, which the
test suite checks against every labeled graph.

The pipeline (`_Pipeline`) only deduplicates. It takes records as (B, n)
arrays of adjacency rows from two sources: a graph6 census file, decoded a
chunk of lines at a time (`search_file`, with checkpoints that store the
representatives; a resumed run rebuilds the rest by replaying them through
dedup, and reports the same), or the one-vertex extensions of the classes
on n - 1, broadcast. One such level is one pipeline run, and one walk of
levels from the empty graph (`_levels`) serves `class_reps`,
`search_labeled_all` and `reproduce_table1`. `search_file` rejects a record
on another vertex count than the census's with its line number. Graphs held
in memory are searched by writing them out with `emit_graph6`.

Each chunk is canonicalized in one batch, and the LC orbits of all its
unseen classes are walked in one breadth-first search (`lc_orbits`): walks
that meet are merged, since they lie in one orbit, and every level is
canonicalized `canon.SLICE` graphs at a time, so memory stays bounded by the
slice and the seen-set, not by the chunk or the orbit. Evaluation happens
once, when the reports are made (`_Pipeline.reports`): every representative
is bounded straight from its code, one `lhv_bounds` call per t on their
adjacency rows, and each t's witnesses are re-verified in one more such
call. Codes are decoded in batches (`rows_of_codes`); a `Graph` is built
only for the per-assignment check of a witness and to return `class_reps`.
"""
from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Iterator, Sequence

import numpy as np

from . import canon
from .bell import bell_coefficients, lhv_bounds, lhv_value
from .canon import CanonicalForm, OrbitCapExceeded, canonical_codes, lc_orbits
from .dyadic import Dyadic
from .graph6 import read_graph6, rows_of_codes
from .graphs import Graph, check_vertex_count

EXHAUSTIVE_MAX_N = 10  # the level-10 walk's time and memory: the README's Search section
DEFAULT_MAX_WITNESSES = 32
# records canonicalized in one batch, and census lines read between two
# checkpoints; read at call time, so a test can change it on this module alone
CHUNK_SIZE = 4096


@dataclass(frozen=True)
class SearchReport:
    n: int
    t: int
    best_bound: Dyadic
    witnesses: tuple[tuple[CanonicalForm, str], ...]  # sorted by canonical code
    graphs_examined: int
    lc_classes_examined: int
    wall_time: float
    witness_classes_total: int  # classes attaining the bound, before truncation
    records_skipped: int = 0  # malformed census lines passed over in lenient mode
    orbit_cap_fallbacks: int = 0  # LC orbits past the cap, each split into its members
    stages: dict[str, float] = field(default_factory=dict, compare=False)  # seconds per stage


    @property
    def valid(self) -> bool:
        return self.best_bound < 1

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "best_bound": self.best_bound.to_json(),
            "valid": self.valid,
            "witnesses": [g6 for _, g6 in self.witnesses],
            "witness_classes_total": self.witness_classes_total,
            "graphs_examined": self.graphs_examined,
            "lc_classes_examined": self.lc_classes_examined,
            "records_skipped": self.records_skipped,
            "orbit_cap_fallbacks": self.orbit_cap_fallbacks,
            "wall_time_s": self.wall_time,
            "stages_s": self.stages,
        }

    def comparable(self) -> tuple:
        """Everything but the wall and stage times, for determinism checks."""
        return (
            self.n,
            self.t,
            self.best_bound,
            self.witnesses,
            self.graphs_examined,
            self.lc_classes_examined,
            self.witness_classes_total,
            self.records_skipped,
            self.orbit_cap_fallbacks,
        )


# ---------------------------------------------------------------------------
# the search pipeline: records -> n check and count -> dedup; reports -> evaluate -> reduce

STAGES = ("read", "dedup", "evaluate", "verify")


@dataclass
class _Pipeline:
    """Dedup state of one search, fed one chunk of records at a time.

    A chunk is canonicalized in one batch, the LC orbits of its unseen
    classes are walked together (`lc_orbits`), and its new classes are
    picked out in stream order (`new_classes`). Nothing is evaluated until
    `reports`, so the state after any chunk is the record count and the
    representatives; the seen-set and fallback count follow from the
    representatives, which with the record count is all `Checkpoint` saves.
    `stages` holds the seconds this process spent per stage; it is not saved.
    """

    n: int | None = None
    records: int = 0
    orbit_cap_fallbacks: int = 0
    reps: list[int] = field(default_factory=list)  # canonical codes, in stream order
    seen: set[int] = field(default_factory=set)  # canonical codes
    stages: dict[str, float] = field(default_factory=lambda: dict.fromkeys(STAGES, 0.0))

    def feed(self, rows: np.ndarray) -> None:
        """Take records as a (B, n) array of adjacency rows.

        The array is cut into chunks of at most CHUNK_SIZE records. Reports
        do not depend on where the cuts fall. The sources check the vertex
        count, since they know the position of a record on another one.
        """
        for at in range(0, len(rows), CHUNK_SIZE):
            chunk = rows[at:at + CHUNK_SIZE]
            self.records += len(chunk)
            self.reps += self.new_classes(chunk)

    def new_classes(self, chunk: np.ndarray) -> list[int]:
        """The representatives of the chunk's unseen classes, in stream order.

        The representative is the least canonical code of the class's LC
        orbit. The chunk's unseen classes are taken in stream order, each
        once; one whose orbit met an earlier one's is seen by then. An orbit
        past the cap is counted and split: each of its classes that the
        records reach is then its own representative, with its own fallback.
        """
        started = time.perf_counter()
        n = self.n = chunk.shape[1]
        first: dict[int, int] = {}
        for i, code in enumerate(canonical_codes(n, chunk)):
            if code not in self.seen:
                first.setdefault(code, i)
        orbits = lc_orbits(n, list(first), chunk[list(first.values())])
        new = []
        for code, orbit in zip(first, orbits):
            if code in self.seen:
                continue
            if orbit is None:
                self.orbit_cap_fallbacks += 1
                orbit = frozenset((code,))
            self.seen |= orbit
            new.append(min(orbit))
        self.stages["dedup"] += time.perf_counter() - started
        return new

    def reports(
        self, ts: tuple[int, ...], started: float, max_witnesses: int, records_skipped: int = 0
    ) -> dict[int, SearchReport]:
        """Per-t reports; each emitted witness is checked twice before emission.

        Every representative is evaluated here, one `lhv_bounds` call per t
        on their adjacency rows. The witnesses are the codes of the
        representatives that attain the bound, sorted. Each is rebuilt with
        its vertex order reversed, not the canonical labelling it was
        evaluated in, so the engine recomputes table, coefficients and
        transform, in one `lhv_bounds` call per t; and the separate
        per-assignment formula `lhv_value` must give each witness's bound at
        the argmax the engine reports for it.
        """
        if not self.reps:
            raise ValueError("empty census")
        evaluate_started = time.perf_counter()
        rows = rows_of_codes(self.n, self.reps)
        bounds = {t: [one.bound for one in lhv_bounds(self.n, rows, t)] for t in ts}
        verify_started = time.perf_counter()
        self.stages["evaluate"] += verify_started - evaluate_started
        found = {}
        for t in ts:
            best = min(bounds[t])
            witnesses = sorted(code for code, bound in zip(self.reps, bounds[t]) if bound == best)
            forms = [CanonicalForm(self.n, code) for code in witnesses[:max_witnesses]]
            graphs = [Graph(self.n, tuple(row)).relabel(range(self.n - 1, -1, -1))
                      for row in rows_of_codes(self.n, witnesses[:max_witnesses]).tolist()]
            for g, check in zip(graphs, lhv_bounds(self.n, [g.adj for g in graphs], t)):
                value = lhv_value(g, bell_coefficients(g, t), check.argmax)
                if not check.bound == value == best:
                    raise AssertionError(
                        f"witness re-verification failed: bound {check.bound}, "
                        f"value at argmax {value}, search minimum {best}"
                    )
            found[t] = best, tuple((form, form.to_graph6()) for form in forms), len(witnesses)
        self.stages["verify"] += time.perf_counter() - verify_started
        wall_time = time.perf_counter() - started
        return {
            t: SearchReport(
                n=self.n,
                t=t,
                best_bound=best,
                witnesses=emitted,
                graphs_examined=self.records,
                lc_classes_examined=len(self.reps),
                wall_time=wall_time,
                witness_classes_total=total,
                records_skipped=records_skipped,
                orbit_cap_fallbacks=self.orbit_cap_fallbacks,
                stages=dict(self.stages),
            )
            for t, (best, emitted, total) in found.items()
        }


def _as_ts(t) -> tuple[int, ...]:
    ts = (t,) if isinstance(t, int) else tuple(t)
    if not ts:
        raise ValueError("no t given; pass one or more of 0..3")
    if len(set(ts)) < len(ts):
        raise ValueError(f"t repeated in {ts}; pass each t once")
    for one in ts:
        if not 0 <= one <= 3:
            raise ValueError(f"t={one} outside 0..3")
    return ts


# ---------------------------------------------------------------------------
# every class on n vertices, by one-vertex extension

def _extensions(k: int, codes: Sequence[int]) -> np.ndarray:
    """Adjacency rows of every graph on k - 1 vertices with the given codes
    joined by a new last vertex with each of the 2^(k-1) neighborhoods."""
    adj = rows_of_codes(k - 1, codes)
    nb = np.arange(1 << (k - 1), dtype=np.int64)
    ext = np.empty((len(codes), len(nb), k), dtype=np.int64)
    ext[:, :, :-1] = adj[:, None, :] | (nb[:, None] >> np.arange(k - 1) & 1) << (k - 1)
    ext[:, :, -1] = nb
    return ext.reshape(-1, k)


def _level_range(n: int) -> range:
    """Levels 1..n; an n outside 1..EXHAUSTIVE_MAX_N is rejected before any is built."""
    check_vertex_count(n)
    if n > EXHAUSTIVE_MAX_N:
        raise ValueError(f"n={n} above {EXHAUSTIVE_MAX_N}, the largest vertex count "
                         "searched exhaustively; search a census file instead")
    return range(1, n + 1)


def _levels(n: int) -> Iterator[tuple[_Pipeline, float]]:
    """Levels 1..n chained from the empty graph, as `class_reps` describes:
    each level's pipeline run with its start time."""
    codes = [0]  # the empty graph on 0 vertices
    for k in _level_range(n):
        started = time.perf_counter()
        pipe = _Pipeline()
        pipe.feed(_extensions(k, codes))
        if pipe.orbit_cap_fallbacks:
            raise OrbitCapExceeded(
                f"{pipe.orbit_cap_fallbacks} LC orbits on {k} vertices exceed "
                f"{canon.ORBIT_CAP} isomorphism classes"
            )
        codes = sorted(pipe.reps)
        yield pipe, started


def class_reps(n: int) -> list[Graph]:
    """One representative per LC class of graphs on n vertices, sorted by code:
    the least canonical form of its LC orbit, canonically labeled.

    Deleting a vertex v commutes with relabeling and with local
    complementation at any a != v, so every class on k vertices contains a
    one-vertex extension of a representative on k - 1 vertices (Danielsen &
    Parker, JCTA 2006). Starting from the empty graph, each level k is one
    search pipeline run on the 2^(k-1) extensions of every level k - 1
    representative, and carries the sorted codes of its representatives to
    the next level.
    """
    for pipe, _ in _levels(n):
        pass
    return [Graph(n, tuple(row)) for row in rows_of_codes(n, sorted(pipe.reps)).tolist()]


def iso_class_reps(n: int) -> list[Graph]:
    """One canonically labeled graph per isomorphism class, sorted by code,
    from the level walk of `class_reps` without LC. It writes isomorphism
    censuses for the tests and `perfbench/make_census8.py`; no search mode."""
    codes = [0]
    for k in _level_range(n):
        codes = sorted(set(canonical_codes(k, _extensions(k, codes))))
    return [Graph(n, tuple(row)) for row in rows_of_codes(n, codes).tolist()]


def search_labeled_all(
    n: int,
    t,
    *,
    max_witnesses: int = DEFAULT_MAX_WITNESSES,
):
    """Exhaustive search over all labeled graphs on n vertices.

    The classes of level n of `class_reps` are evaluated once, by its
    reports. graphs_examined counts the 2^(n(n-1)/2) labeled graphs the
    classes cover; the dedup stage is building levels 1..n.
    """
    ts = _as_ts(t)
    started = time.perf_counter()
    for pipe, _ in _levels(n):
        pass
    pipe.records = 1 << (n * (n - 1) // 2)
    pipe.stages["dedup"] = time.perf_counter() - started
    reports = pipe.reports(ts, started, max_witnesses)
    return reports[ts[0]] if isinstance(t, int) else reports


# ---------------------------------------------------------------------------
# graph6 file searches with checkpointing

def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


CHECKPOINT_HEADER = "bellgraph-checkpoint v6"


@dataclass
class Checkpoint:
    """A census search's representatives in one plain-text file.

    After the header come `key=value` lines for the census hash, orbit cap,
    n and the number of good records consumed; then one
    `rep=<hex code>` line per representative, in stream order. No bound is
    stored: the reports evaluate every representative, so a resumed run may
    ask for other t. A class's LC orbit, and whether it passes the cap, do
    not depend on where the walk starts, so the seen-set and the fallback
    count are not stored either: `restore` rebuilds them by replaying the
    representatives through `_Pipeline.new_classes` in one call, which must
    give back exactly the stored codes. That validates the file, at the
    price of redoing the orbit walks of the classes found so far.
    """

    path: str
    census_sha256: str

    def _settings(self) -> dict[str, str]:
        """What a resumed run must share with the run that wrote the file."""
        return {
            "census_sha256": self.census_sha256,
            "orbit_cap": str(canon.ORBIT_CAP),
        }

    def write(self, state: _Pipeline) -> None:
        lines = [CHECKPOINT_HEADER]
        lines += [f"{key}={val}" for key, val in self._settings().items()]
        lines += [f"n={state.n}", f"records={state.records}"]
        lines += [f"rep={code:x}" for code in state.reps]
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, self.path)

    def restore(self) -> _Pipeline:
        """The saved state, rejected unless written with this run's settings;
        the replay's time opens its dedup stage."""
        with open(self.path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
        header = lines[0] if lines else ""
        if header != CHECKPOINT_HEADER:
            if header.startswith("bellgraph-checkpoint"):
                raise ValueError(
                    f"{self.path}: {header} checkpoints cannot resume exactly; "
                    "delete the file and rerun"
                )
            raise ValueError(f"{self.path}: not a checkpoint file")
        pairs = [line.partition("=")[::2] for line in lines[1:]]
        kv = {key: val for key, val in pairs if key != "rep"}
        for key, want in self._settings().items():
            if kv.get(key) != want:
                raise ValueError(
                    f"{self.path}: checkpoint has {key}={kv.get(key)} but this run "
                    f"has {key}={want}; delete the file to start over"
                )
        try:
            state = _Pipeline(records=int(kv["records"]))
            state.reps = [int(val, 16) for key, val in pairs if key == "rep"]
            if state.records < len(state.reps):
                raise ValueError(f"records={state.records} is below its "
                                 f"{len(state.reps)} representatives")
            n = int(kv["n"])
            check_vertex_count(n)
            if state.new_classes(rows_of_codes(n, state.reps)) != state.reps:
                raise ValueError("its representatives are not the classes a replay finds")
        except (KeyError, ValueError) as err:
            raise ValueError(f"{self.path}: corrupt checkpoint: {err}") from None
        return state


def search_file(
    path: str,
    t,
    *,
    lenient: bool = False,
    max_witnesses: int = DEFAULT_MAX_WITNESSES,
    checkpoint_path: str | None = None,
):
    """Search a graph6 census file, optionally checkpointing as it goes.

    Malformed records abort with their line number unless lenient, in which
    case they are skipped and counted in `records_skipped`. The census is
    read CHUNK_SIZE lines at a time and their good records are canonicalized
    together. With a checkpoint path the record count and the
    representatives found so far are saved after each such block that added
    records. A resumed run replays them through dedup to rebuild its
    seen-set, canonicalizes the records the file covers as it skips them,
    and goes on after them; since the reports evaluate every
    representative, it yields the report of an uninterrupted run at any t.
    A rerun with a completed file writes nothing. A file written for
    another census or `canon.ORBIT_CAP`, or in an older format, is
    rejected, and so is one that covers more records than the census holds
    or a record in none of its classes (a lost `rep=` line).
    """
    ts = _as_ts(t)
    started = time.perf_counter()
    pipe = _Pipeline()
    checkpoint = None
    if checkpoint_path:
        checkpoint = Checkpoint(checkpoint_path, _file_sha256(path))
        if os.path.exists(checkpoint_path):
            pipe = checkpoint.restore()
    covered = pipe.records  # records the restored state already holds
    skipped = 0
    read_started = time.perf_counter()
    for rows, bad in read_graph6(path, CHUNK_SIZE, lenient=lenient):
        pipe.stages["read"] += time.perf_counter() - read_started
        skipped += bad
        done, rows = rows[:covered], rows[covered:]
        covered -= len(done)
        if len(done) and (done.shape[1] != pipe.n
                          or not pipe.seen.issuperset(canonical_codes(pipe.n, done))):
            raise ValueError(f"{checkpoint_path}: corrupt checkpoint: a record it "
                             "covers is in none of its classes")
        if len(rows):
            pipe.feed(rows)
            if checkpoint:
                checkpoint.write(pipe)
        read_started = time.perf_counter()
    pipe.stages["read"] += time.perf_counter() - read_started
    if covered:
        raise ValueError(f"{checkpoint_path}: corrupt checkpoint: records={pipe.records} "
                         f"but the census holds {pipe.records - covered}")
    reports = pipe.reports(ts, started, max_witnesses, records_skipped=skipped)
    return reports[ts[0]] if isinstance(t, int) else reports


# ---------------------------------------------------------------------------
# optimal-bound grid reproduction

def _d(num, den):
    return Dyadic(num, den.bit_length() - 1)


# published optimal bounds D_t(n) this tool reproduces, keyed (t, n)
TABLE1: dict[tuple[int, int], Dyadic] = {
    (0, 3): _d(3, 4), (0, 4): _d(3, 4), (0, 5): _d(5, 8), (0, 6): _d(7, 16),
    (0, 7): _d(6, 16), (0, 8): _d(10, 32), (0, 9): _d(13, 64), (0, 10): _d(11, 64),
    (1, 3): Dyadic(1), (1, 4): Dyadic(1), (1, 5): Dyadic(1), (1, 6): _d(15, 16),
    (1, 7): _d(15, 16), (1, 8): _d(29, 32), (1, 9): _d(54, 64), (1, 10): _d(48, 64),
    (2, 3): Dyadic(1), (2, 4): Dyadic(1), (2, 5): Dyadic(1), (2, 6): Dyadic(1),
    (2, 7): Dyadic(1), (2, 8): Dyadic(1), (2, 9): _d(63, 64), (2, 10): _d(63, 64),
}


@dataclass(frozen=True)
class TableCell:
    t: int
    n: int
    value: Dyadic
    expected: Dyadic | None
    mode: ClassVar[str] = "exhaustive"  # perfbench/workloads.py reads it

    @property
    def matches(self) -> bool | None:
        return None if self.expected is None else self.value == self.expected

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "n": self.n,
            "value": self.value.to_json(),
            "expected": None if self.expected is None else self.expected.to_json(),
            "matches": self.matches,
        }


def reproduce_table1(max_n: int = 7, ts: Sequence[int] = (0, 1, 2)) -> list[TableCell]:
    """Recompute the optimal-bound grid for 3 <= n <= max_n, every cell exhaustive.

    One walk of levels 1..max_n, as in `class_reps`, reports each level from
    n = 3 on, and the cell (t, n) is the least bound over the classes on n
    vertices. A max_n outside 3..EXHAUSTIVE_MAX_N is rejected before any
    level is built.
    """
    ts = _as_ts(ts)
    if not 3 <= max_n <= EXHAUSTIVE_MAX_N:
        raise ValueError(f"max_n={max_n} outside 3..{EXHAUSTIVE_MAX_N}, "
                         "the grid's exhaustive columns")
    cells: list[TableCell] = []
    for pipe, started in _levels(max_n):
        if pipe.n >= 3:  # t <= 3 <= n
            reports = pipe.reports(ts, started, DEFAULT_MAX_WITNESSES)
            cells += [TableCell(t, pipe.n, reports[t].best_bound, TABLE1.get((t, pipe.n)))
                      for t in ts]
    return cells


def minimal_violating_n(cells: Iterable[TableCell]) -> dict[int, int]:
    """Per t: the smallest n whose cell is below 1, for the t that have one."""
    by_t: dict[int, int] = {}
    for cell in sorted(cells, key=lambda c: c.n):
        if cell.value < 1:
            by_t.setdefault(cell.t, cell.n)
    return by_t
