"""Census search for the graphs whose Bell operators violate hardest.

One pipeline deduplicates a stream of graphs and evaluates one
representative per class, held as a canonical code. Under "lc" dedup it is
the least canonical code of the class's local-complementation orbit, under
"iso" the class's canonical code. A representative depends only on its
class, so reports do not depend on the order of the records or on how they
are cut into chunks. Bounds are constant on classes, which the test suite
checks against every labeled graph.

The pipeline takes records as (B, n) arrays of adjacency rows: stacked
from any iterable of graphs (`search`), decoded from a graph6 census file a
chunk of lines at a time (`search_file`, with checkpoints that store the
whole pipeline state, so an interrupted and resumed run reports the same),
or broadcast as the one-vertex extensions of the classes on n - 1. One such
level is one pipeline run, and one walk of levels from the empty graph
(`_levels`) serves `class_reps`, `search_labeled_all` and
`reproduce_table1`; the last two have the runs evaluate the classes they
find. `search` and `search_file` reject a record on another vertex count
than the census's with its position, "record i" or "line L".

Each chunk is canonicalized in one batch, and under "lc" the orbits of all
its unseen classes are walked in one breadth-first search (`lc_orbits`):
walks that meet are merged, since they lie in one orbit, and every level is
canonicalized `canon.SLICE` graphs at a time, so memory stays bounded by the
slice and the seen-set, not by the chunk or the orbit. A `Graph` is built
from a code only to compute a bound or to read or write graph6.
"""
from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import canon
from .bell import bell_coefficients, lhv_bound, lhv_value
from .canon import CanonicalForm, OrbitCapExceeded, canonical_codes, lc_orbits
from .dyadic import Dyadic
from .graph6 import code_of_rows, parse_graph6, read_graph6, rows_of_code
from .graphs import MAX_VERTICES, Graph
from .families import parse_family

EXHAUSTIVE_MAX_N = 9  # class_reps(9, "lc") takes about 25 s on 2 cores
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
# the search pipeline: records -> n check and count -> dedup -> evaluate -> reduce

STAGES = ("read", "dedup", "evaluate", "verify")


@dataclass
class _Pipeline:
    """State of one search, fed one chunk of records at a time.

    A chunk is canonicalized in one batch, the LC orbits of its unseen
    classes are walked together (`lc_orbits`), its new classes are picked
    out in stream order and their representatives evaluated, so the state
    after any chunk holds everything the final reports depend on;
    `Checkpoint` saves and restores exactly this. `stages` holds the
    seconds this process spent per stage; it is not saved.
    """

    ts: tuple[int, ...]
    dedup: str
    n: int | None = None
    records: int = 0
    orbit_cap_fallbacks: int = 0
    reps: list[int] = field(default_factory=list)  # canonical codes, in stream order
    results: list[dict[int, Dyadic]] = field(default_factory=list)  # bound per t, per rep
    seen: set[int] = field(default_factory=set)  # canonical codes
    stages: dict[str, float] = field(default_factory=lambda: dict.fromkeys(STAGES, 0.0))

    def __post_init__(self):
        if self.dedup not in ("lc", "iso"):
            raise ValueError(f"unknown dedup mode {self.dedup!r}")

    def feed(
        self,
        blocks: Iterable[np.ndarray],
        on_chunk: Callable[["_Pipeline"], None] | None = None,
    ) -> None:
        """Take records as (B, n) arrays of adjacency rows, all on one n.

        Each array is cut into chunks of at most CHUNK_SIZE records, and
        on_chunk runs after each chunk. Reports do not depend on where the
        cuts fall. The sources check the vertex count, since they know the
        position of a record on another one.
        """
        blocks = iter(blocks)
        while True:
            started = time.perf_counter()
            rows = next(blocks, None)
            self.stages["read"] += time.perf_counter() - started
            if rows is None:
                return
            for at in range(0, len(rows), CHUNK_SIZE):
                self._take(rows[at:at + CHUNK_SIZE], on_chunk)

    def _take(self, chunk: np.ndarray, on_chunk: Callable[["_Pipeline"], None] | None) -> None:
        """Count the records, evaluate each new class's representative, run on_chunk.

        The representative is the least canonical code of the class: the LC
        orbit's minimum under "lc", the canonical code under "iso". The
        chunk's unseen classes are taken in stream order, each once; one
        whose orbit met an earlier one's is seen by then. An orbit past the
        cap is counted and split: each of its classes that the records reach
        is then its own representative, with its own fallback.
        """
        started = time.perf_counter()
        n = self.n = chunk.shape[1]
        self.records += len(chunk)
        first: dict[int, int] = {}
        for i, code in enumerate(canonical_codes(n, chunk)):
            if code not in self.seen:
                first.setdefault(code, i)
        if self.dedup == "lc":
            orbits = lc_orbits(n, list(first), chunk[list(first.values())])
        else:
            orbits = [frozenset((code,)) for code in first]
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
        for code in new:
            self.evaluate(code)
        if on_chunk:
            on_chunk(self)

    def evaluate(self, code: int) -> None:
        """Keep a canonical code as a class representative, with its LHV bound per t."""
        started = time.perf_counter()
        g = Graph(self.n, rows_of_code(self.n, code))
        self.reps.append(code)
        self.results.append({t: lhv_bound(g, t).bound for t in self.ts})
        self.stages["evaluate"] += time.perf_counter() - started

    def reports(
        self, started: float, max_witnesses: int, records_skipped: int = 0
    ) -> dict[int, SearchReport]:
        """Per-t reports; each emitted witness is checked twice before emission.

        The witnesses are the codes of the representatives that attain the
        bound, sorted. Each is rebuilt with its vertex order reversed, not the
        canonical labelling it was evaluated in, so the engine recomputes
        table, coefficients and transform; and the separate per-assignment
        formula `lhv_value` must give the bound at the argmax the engine
        reports.
        """
        if self.n is None:
            raise ValueError("empty census")
        verify_started = time.perf_counter()
        found = {}
        for t in self.ts:
            best = min(res[t] for res in self.results)
            witnesses = sorted(code for code, res in zip(self.reps, self.results) if res[t] == best)
            emitted = []
            for code in witnesses[:max_witnesses]:
                form = CanonicalForm(self.n, code)
                g = form.to_graph().relabel(range(self.n - 1, -1, -1))
                check = lhv_bound(g, t)
                value = lhv_value(g, bell_coefficients(g, t), check.argmax)
                if not check.bound == value == best:
                    raise AssertionError(
                        f"witness re-verification failed: bound {check.bound}, "
                        f"value at argmax {value}, search minimum {best}"
                    )
                emitted.append((form, form.to_graph6()))
            found[t] = best, tuple(emitted), len(witnesses)
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
    for one in ts:
        if not 0 <= one <= 3:
            raise ValueError(f"t={one} outside 0..3")
    return ts


# ---------------------------------------------------------------------------
# every class on n vertices, by one-vertex extension

def _check_vertex_count(n: int) -> None:
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")


def _level(k: int, codes: Sequence[int], dedup: str, ts: tuple[int, ...] = ()) -> _Pipeline:
    """One pipeline run, evaluating at each t in ts, on every level k - 1
    representative (sorted codes) joined by a new last vertex with each of
    the 2^(k-1) neighborhoods."""
    adj = np.array([rows_of_code(k - 1, code) for code in codes], dtype=np.int64)
    nb = np.arange(1 << (k - 1), dtype=np.int64)
    ext = np.empty((len(codes), len(nb), k), dtype=np.int64)
    ext[:, :, :-1] = adj[:, None, :] | (nb[:, None] >> np.arange(k - 1) & 1) << (k - 1)
    ext[:, :, -1] = nb
    pipe = _Pipeline(ts, dedup)
    pipe.feed([ext.reshape(-1, k)])
    if pipe.orbit_cap_fallbacks:
        raise OrbitCapExceeded(
            f"{pipe.orbit_cap_fallbacks} LC orbits on {k} vertices exceed "
            f"{canon.ORBIT_CAP} isomorphism classes"
        )
    return pipe


def _levels(n: int, dedup: str, ts: tuple[int, ...] = (), first: int = 1
            ) -> Iterator[tuple[_Pipeline, float]]:
    """Levels 1..n chained from the empty graph: each level's pipeline run
    with its start time, the runs of levels first..n evaluating at each t in ts."""
    codes = [0]  # the empty graph on 0 vertices
    for k in range(1, n + 1):
        started = time.perf_counter()
        pipe = _level(k, codes, dedup, ts if k >= first else ())
        codes = sorted(pipe.reps)
        yield pipe, started


def class_reps(n: int, dedup: str = "lc") -> list[Graph]:
    """One representative per class of graphs on n vertices, sorted by code.

    dedup "lc" takes joint isomorphism + local-complementation classes, each
    represented by its orbit's least canonical form; "iso" takes isomorphism
    classes, each represented by its canonical form; both come canonically
    labeled.

    Deleting a vertex v commutes with relabeling and with local
    complementation at any a != v, so every class on k vertices contains a
    one-vertex extension of a representative on k - 1 vertices (Danielsen &
    Parker, JCTA 2006). Starting from the empty graph, each level k is one
    search pipeline run on the 2^(k-1) extensions of every level k - 1
    representative, and carries the sorted codes of its representatives to
    the next level.
    """
    _check_vertex_count(n)
    for pipe, _ in _levels(n, dedup):
        pass
    return [Graph(n, rows_of_code(n, code)) for code in sorted(pipe.reps)]


def iso_class_reps(n: int) -> list[Graph]:
    """One canonically labeled graph per isomorphism class, sorted by code."""
    return class_reps(n, "iso")


def search_labeled_all(
    n: int,
    t,
    *,
    dedup: str = "lc",
    max_witnesses: int = DEFAULT_MAX_WITNESSES,
):
    """Exhaustive search over all labeled graphs on n vertices.

    Level n of `class_reps` is one pipeline run that evaluates each of its
    classes as it finds it. graphs_examined counts the 2^(n(n-1)/2) labeled
    graphs the classes cover; the dedup stage is building levels 1..n.
    """
    ts = _as_ts(t)
    _check_vertex_count(n)
    started = time.perf_counter()
    for pipe, _ in _levels(n, dedup, ts, first=n):
        pass
    pipe.records = 1 << (n * (n - 1) // 2)
    pipe.stages["dedup"] = time.perf_counter() - started - pipe.stages["evaluate"]
    reports = pipe.reports(started, max_witnesses)
    return reports[ts[0]] if isinstance(t, int) else reports


# ---------------------------------------------------------------------------
# search over arbitrary graph streams (census files)

def _stacked(census: Iterable[Graph]) -> Iterator[np.ndarray]:
    """The graphs' adjacency rows, stacked in blocks of at most CHUNK_SIZE.

    A graph on another vertex count than the first fails with its position.
    """
    rows: list[tuple[int, ...]] = []
    n = None
    for i, g in enumerate(census, start=1):
        n = n or g.n
        if g.n != n:
            raise ValueError(f"record {i}: census mixes vertex counts {n} and {g.n}")
        rows.append(g.adj)
        if len(rows) == CHUNK_SIZE:
            yield np.array(rows, dtype=np.int64)
            rows = []
    if rows:
        yield np.array(rows, dtype=np.int64)


def search(
    census: Iterable[Graph],
    t,
    *,
    dedup: str = "lc",
    max_witnesses: int = DEFAULT_MAX_WITNESSES,
):
    """Search a stream of graphs; dedup via canonical LC-orbit seen-sets."""
    ts = _as_ts(t)
    started = time.perf_counter()
    pipe = _Pipeline(ts, dedup)
    pipe.feed(_stacked(census))
    reports = pipe.reports(started, max_witnesses)
    return reports[ts[0]] if isinstance(t, int) else reports


# ---------------------------------------------------------------------------
# graph6 file searches with checkpointing

def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


CHECKPOINT_HEADER = "bellgraph-checkpoint v3"


@dataclass
class Checkpoint:
    """A census search's whole pipeline state in one plain-text file.

    After the header come `key=value` lines for the census hash, ts, dedup,
    orbit cap, n, the number of good records consumed and the orbit-cap
    fallbacks so far; then one `rep=<graph6> <bound per t>` line per
    representative in stream order, the graph6 of its canonically labeled
    graph; then one `seen=<hex code>` line per canonical form in the
    seen-set, sorted by code.
    """

    path: str
    census_sha256: str

    def _settings(self, state: _Pipeline) -> dict[str, str]:
        """What a resumed run must share with the run that wrote the file."""
        return {
            "census_sha256": self.census_sha256,
            "ts": ",".join(map(str, state.ts)),
            "dedup": state.dedup,
            "orbit_cap": str(canon.ORBIT_CAP),
        }

    def write(self, state: _Pipeline) -> None:
        lines = [CHECKPOINT_HEADER]
        lines += [f"{key}={val}" for key, val in self._settings(state).items()]
        lines += [f"n={state.n}", f"records={state.records}",
                  f"orbit_cap_fallbacks={state.orbit_cap_fallbacks}"]
        for code, res in zip(state.reps, state.results):
            lines.append(f"rep={CanonicalForm(state.n, code).to_graph6()} "
                         + " ".join(str(res[t]) for t in state.ts))
        lines += [f"seen={code:x}" for code in sorted(state.seen)]
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, self.path)

    def restore(self, fresh: _Pipeline) -> _Pipeline:
        """The saved state; rejected unless written with fresh's settings."""
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
        kv: dict[str, str] = {}
        reps: list[str] = []
        seen: list[str] = []
        for line in lines[1:]:
            key, _, val = line.partition("=")
            if key == "rep":
                reps.append(val)
            elif key == "seen":
                seen.append(val)
            else:
                kv[key] = val
        for key, want in self._settings(fresh).items():
            if kv.get(key) != want:
                raise ValueError(
                    f"{self.path}: checkpoint has {key}={kv.get(key)} but this run "
                    f"has {key}={want}; delete the file to start over"
                )
        try:
            state = _Pipeline(fresh.ts, fresh.dedup,
                              n=int(kv["n"]), records=int(kv["records"]),
                              orbit_cap_fallbacks=int(kv["orbit_cap_fallbacks"]))
            for line in reps:
                g6, *bounds = line.split(" ")
                if len(bounds) != len(state.ts):
                    raise ValueError(f"rep {g6} has {len(bounds)} bounds")
                g = parse_graph6(g6)
                state.reps.append(code_of_rows(g.n, g.adj))
                state.results.append(dict(zip(state.ts, map(Dyadic.parse, bounds))))
            state.seen = {int(code, 16) for code in seen}
        except (KeyError, ValueError) as err:
            raise ValueError(f"{self.path}: corrupt checkpoint: {err}") from None
        return state


def search_file(
    path: str,
    t,
    *,
    lenient: bool = False,
    dedup: str = "lc",
    max_witnesses: int = DEFAULT_MAX_WITNESSES,
    checkpoint_path: str | None = None,
):
    """Search a graph6 census file, optionally checkpointing as it goes.

    Malformed records abort with their line number unless lenient, in which
    case they are skipped and counted in `records_skipped`. The census is
    read CHUNK_SIZE lines at a time, their good records are canonicalized
    together, and with a checkpoint path the pipeline state is saved after
    every such chunk. A saved state resumes after the records it covers and
    yields the report of an uninterrupted run; one written for another
    census, ts, dedup or `canon.ORBIT_CAP` is rejected.
    """
    ts = _as_ts(t)
    started = time.perf_counter()
    pipe = _Pipeline(ts, dedup)
    checkpoint = None
    if checkpoint_path:
        checkpoint = Checkpoint(checkpoint_path, _file_sha256(path))
        if os.path.exists(checkpoint_path):
            pipe = checkpoint.restore(pipe)
    resume_at = pipe.records
    skipped = 0

    def blocks():
        nonlocal skipped
        good = 0
        for rows, bad in read_graph6(path, CHUNK_SIZE, lenient=lenient):
            skipped += bad
            drop = max(resume_at - good, 0)
            good += len(rows)
            yield rows[drop:]

    pipe.feed(blocks(), checkpoint.write if checkpoint else None)
    reports = pipe.reports(started, max_witnesses, records_skipped=skipped)
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

# named graphs known to attain grid cells, for spot checks beyond the
# exhaustive band (upper bounds only: they certify <=, not minimality)
SPOT_FAMILIES: dict[tuple[int, int], str] = {
    (0, 3): "ring(3)", (0, 4): "ring(4)", (0, 5): "ring(5)", (0, 6): "ring(6)",
    (1, 6): "complete_join(3,3)", (1, 7): "complete_join(3,4)",
    (1, 8): "complete_join(3,5)", (1, 9): "complete_join(3,3,3)",
    (2, 9): "complete_join(3,3,3)", (2, 10): "complete_join(3,3,4)",
}


@dataclass(frozen=True)
class TableCell:
    t: int
    n: int
    value: Dyadic | None
    mode: str  # "exhaustive" | "family-bound" | "missing"
    family: str | None
    expected: Dyadic | None

    @property
    def matches(self) -> bool | None:
        if self.value is None or self.expected is None:
            return None
        return self.value == self.expected

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "n": self.n,
            "value": None if self.value is None else self.value.to_json(),
            "mode": self.mode,
            "family": self.family,
            "expected": None if self.expected is None else self.expected.to_json(),
            "matches": self.matches,
        }


def reproduce_table1(max_n: int = 7, ts: Sequence[int] = (0, 1, 2)) -> list[TableCell]:
    """Recompute the optimal-bound grid for 3 <= n <= max_n.

    One walk of levels 1..min(max_n, EXHAUSTIVE_MAX_N), as in `class_reps`,
    has each level's pipeline run from n = 3 on evaluate its classes and
    report the exhaustive cells. Beyond EXHAUSTIVE_MAX_N the known optimal
    family is evaluated as an upper-bound spot check, and cells without one
    are reported missing. A max_n outside 3..MAX_VERTICES is rejected
    before any level is built.
    """
    ts = _as_ts(ts)
    if max_n < 3:
        raise ValueError(f"max_n={max_n} below 3, the grid's first column")
    _check_vertex_count(max_n)
    cells: list[TableCell] = []
    for pipe, started in _levels(min(max_n, EXHAUSTIVE_MAX_N), "lc", ts, first=3):  # t <= 3 <= n
        if pipe.n >= 3:
            reports = pipe.reports(started, DEFAULT_MAX_WITNESSES)
            cells += [TableCell(t, pipe.n, reports[t].best_bound, "exhaustive", None,
                                TABLE1.get((t, pipe.n))) for t in ts]
    for n in range(EXHAUSTIVE_MAX_N + 1, max_n + 1):
        for t in ts:
            spec = SPOT_FAMILIES.get((t, n))
            bound = None if spec is None else lhv_bound(parse_family(spec), t).bound
            mode = "missing" if spec is None else "family-bound"
            cells.append(TableCell(t, n, bound, mode, spec, TABLE1.get((t, n))))
    return cells


def minimal_violating_n(cells: Iterable[TableCell]) -> dict[int, tuple[int, bool]]:
    """Per t: smallest n with a bound < 1, and whether smaller n were all
    exhaustively confirmed at 1 (making the minimum exact rather than <=)."""
    by_t: dict[int, tuple[int, bool]] = {}
    grouped: dict[int, list[TableCell]] = {}
    for cell in cells:
        grouped.setdefault(cell.t, []).append(cell)
    for t, group in grouped.items():
        group.sort(key=lambda c: c.n)
        exact = True
        for cell in group:
            if cell.value is not None and cell.value < 1:
                by_t[t] = (cell.n, exact)
                break
            if cell.mode != "exhaustive":
                exact = False
    return by_t
