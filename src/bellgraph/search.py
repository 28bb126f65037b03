"""Census search for the graphs whose Bell operators violate hardest.

Two census shapes are supported:

  * the full labeled universe on n <= 7 vertices (built in), scanned over
    edge-bit codes with a bitmap: each newly met graph's whole class
    (relabelings plus, under "lc" dedup, local complementations) is marked
    seen in one sweep, so the bound is evaluated once per class;
  * arbitrary graph streams, e.g. graph6 census files, deduplicated through
    canonical forms of local-complementation orbits in a seen-set.

Both paths evaluate class representatives only; bounds are constant on
classes, which the test suite checks independently. Reports are
deterministic for a fixed census regardless of worker count: classes are
discovered by a single scanner in stream order and reduced in that order.
"""
from __future__ import annotations

import hashlib
import itertools
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial
from typing import Iterable, Iterator, Sequence

import numpy as np

from .bell import bell_coefficients, lhv_bound, lhv_value
from .canon import CanonicalForm, OrbitCapExceeded, canonicalize, lc_orbit
from .dyadic import Dyadic
from .graph6 import Graph6Error, iter_graph6_file, triangle_pairs
from .graphs import Graph
from .families import parse_family

ENUMERATION_MAX_N = 7
DEFAULT_ORBIT_CAP = 100_000
DEFAULT_MAX_WITNESSES = 32


def default_threads() -> int:
    env = os.environ.get("BELLGRAPH_THREADS")
    if env:
        return max(1, int(env))
    return min(os.cpu_count() or 1, 8)


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
            "wall_time_s": self.wall_time,
        }

    def comparable(self) -> tuple:
        """Everything but the wall time, for determinism checks."""
        return (
            self.n,
            self.t,
            self.best_bound,
            self.witnesses,
            self.graphs_examined,
            self.lc_classes_examined,
            self.witness_classes_total,
        )


# ---------------------------------------------------------------------------
# labeled universe plumbing

def _rows_from_code(n: int, code: int, pairs: list[tuple[int, int]]) -> list[int]:
    rows = [0] * n
    for idx, (a, b) in enumerate(pairs):
        if code >> idx & 1:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return rows


def _code_from_rows(rows: list[int], pairs: list[tuple[int, int]]) -> int:
    code = 0
    for idx, (a, b) in enumerate(pairs):
        if rows[a] >> b & 1:
            code |= 1 << idx
    return code


def _lc_rows(rows: list[int], a: int) -> list[int]:
    na = rows[a]
    out = list(rows)
    m = na
    while m:
        low = m & -m
        b = low.bit_length() - 1
        out[b] ^= na & ~low
        m ^= low
    return out


@lru_cache(maxsize=8)
def _perm_gather(n: int) -> np.ndarray:
    """gather[r, j] = source pair index of pair j under the r-th permutation."""
    pairs = triangle_pairs(n)
    index = {p: i for i, p in enumerate(pairs)}
    gather = np.empty((factorial(n), len(pairs)), dtype=np.int64)
    for r, perm in enumerate(itertools.permutations(range(n))):
        for j, (a, b) in enumerate(pairs):
            pa, pb = perm[a], perm[b]
            gather[r, j] = index[(pa, pb) if pa < pb else (pb, pa)]
    return gather


def enumerate_labeled(n: int) -> Iterator[Graph]:
    """Every labeled simple graph on n vertices, ascending edge-bit code."""
    if n > ENUMERATION_MAX_N:
        raise ValueError(
            f"labeled enumeration capped at n={ENUMERATION_MAX_N} "
            f"(2^{n * (n - 1) // 2} graphs); supply a graph6 census file instead"
        )
    pairs = triangle_pairs(n)
    for code in range(1 << len(pairs)):
        yield Graph(n, tuple(_rows_from_code(n, code, pairs)))


def _labeled_class_rep_codes(n: int, dedup: str) -> tuple[list[int], int]:
    """Scan all labeled edge codes, marking whole classes per representative.

    Returns (representative codes, universe size). Each representative is the
    least edge code of its class. dedup "iso" marks relabelings, "lc"
    additionally closes under local complementation before marking, "none"
    returns every code.
    """
    pairs = triangle_pairs(n)
    m = len(pairs)
    total = 1 << m
    if dedup == "none":
        return list(range(total)), total
    weights = (np.int64(1) << np.arange(m, dtype=np.int64)) if m else np.zeros(0, np.int64)
    shifts = np.arange(m, dtype=np.int64)
    gather = _perm_gather(n)
    seen = np.zeros(total, dtype=bool)
    rep_codes: list[int] = []

    def mark_orbit(c: int):
        bits = (np.int64(c) >> shifts) & 1
        seen[bits[gather] @ weights] = True

    block = 1 << 16
    pos = 0
    while pos < total:
        hi = min(pos + block, total)
        for off in np.flatnonzero(~seen[pos:hi]):
            code = pos + int(off)
            if seen[code]:
                continue  # marked by a class handled earlier in this block
            stack = [code]
            local = {code}
            while stack:
                c = stack.pop()
                if seen[c]:
                    # an already-marked member's successors are relabelings
                    # of successors of an expanded member; skipping is safe
                    continue
                mark_orbit(c)
                if dedup == "lc":
                    rows = _rows_from_code(n, c, pairs)
                    for a in range(n):
                        c2 = _code_from_rows(_lc_rows(rows, a), pairs)
                        if c2 not in local:
                            local.add(c2)
                            stack.append(c2)
            rep_codes.append(code)
        pos = hi
    return rep_codes, total


def _labeled_class_reps(n: int, dedup: str) -> tuple[list[Graph], int]:
    if n > ENUMERATION_MAX_N:
        raise ValueError(f"class enumeration capped at n={ENUMERATION_MAX_N}")
    pairs = triangle_pairs(n)
    codes, total = _labeled_class_rep_codes(n, dedup)
    return [Graph(n, tuple(_rows_from_code(n, c, pairs))) for c in codes], total


def iso_class_reps(n: int) -> list[Graph]:
    """One representative per isomorphism class, ascending by least edge code."""
    return _labeled_class_reps(n, "iso")[0]


def lc_class_reps(n: int) -> list[Graph]:
    """One representative per joint isomorphism + LC class."""
    return _labeled_class_reps(n, "lc")[0]


# ---------------------------------------------------------------------------
# shared evaluation/reduction

def _evaluate_rep(g: Graph, ts: tuple[int, ...]) -> dict[int, Dyadic]:
    """LHV bound of g for each t."""
    return {t: lhv_bound(g, t).bound for t in ts}


def _map_reps(reps: list[Graph], ts: tuple[int, ...], threads: int):
    if threads <= 1 or len(reps) < 2:
        return [_evaluate_rep(g, ts) for g in reps]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda g: _evaluate_rep(g, ts), reps, chunksize=16))


def _reduce_reports(
    n: int,
    ts: tuple[int, ...],
    reps: list[Graph],
    results: list[dict[int, Dyadic]],
    graphs_examined: int,
    started: float,
    max_witnesses: int,
    seed_minima: dict[int, Dyadic] | None = None,
) -> dict[int, SearchReport]:
    """Per-t reports; each emitted witness is checked twice before emission.

    The witness is rebuilt from its canonical form, a different labelling,
    so the engine recomputes table, coefficients and transform; and the
    separate per-assignment formula `lhv_value` must give the bound at the
    argmax the engine reports.
    """
    reports = {}
    for t in ts:
        best = min((res[t] for res in results), default=None)
        if seed_minima and t in seed_minima:
            best = seed_minima[t] if best is None else min(best, seed_minima[t])
        if best is None:
            raise ValueError("empty census")
        attain = [g for g, res in zip(reps, results) if res[t] == best]
        witnesses = sorted({canonicalize(g) for g in attain})
        total = len(witnesses)
        emitted = []
        for form in witnesses[:max_witnesses]:
            g = form.to_graph()
            check = lhv_bound(g, t)
            value = lhv_value(g, bell_coefficients(g, t), check.argmax)
            if not check.bound == value == best:
                raise AssertionError(
                    f"witness re-verification failed: bound {check.bound}, "
                    f"value at argmax {value}, search minimum {best}"
                )
            emitted.append((form, form.to_graph6()))
        reports[t] = SearchReport(
            n=n,
            t=t,
            best_bound=best,
            witnesses=tuple(emitted),
            graphs_examined=graphs_examined,
            lc_classes_examined=len(reps),
            wall_time=time.perf_counter() - started,
            witness_classes_total=total,
        )
    return reports


def _as_ts(t) -> tuple[int, ...]:
    ts = (t,) if isinstance(t, int) else tuple(t)
    for one in ts:
        if not 0 <= one <= 3:
            raise ValueError(f"t={one} outside 0..3")
    return ts


# ---------------------------------------------------------------------------
# search over the full labeled universe

def search_labeled_all(
    n: int,
    t,
    *,
    dedup: str = "lc",
    threads: int | None = None,
    max_witnesses: int = DEFAULT_MAX_WITNESSES,
):
    """Exhaustive search over all labeled graphs on n vertices.

    dedup: "lc" marks whole isomorphism+LC classes per representative,
    "iso" isomorphism classes only, "none" evaluates every labeled graph.
    """
    if dedup not in ("lc", "iso", "none"):
        raise ValueError(f"unknown dedup mode {dedup!r}")
    ts = _as_ts(t)
    threads = default_threads() if threads is None else threads
    started = time.perf_counter()
    reps, total = _labeled_class_reps(n, dedup)
    results = _map_reps(reps, ts, threads)
    reports = _reduce_reports(n, ts, reps, results, total, started, max_witnesses)
    return reports[ts[0]] if isinstance(t, int) else reports


# ---------------------------------------------------------------------------
# search over arbitrary graph streams (census files)

def search(
    census: Iterable[Graph],
    t,
    *,
    dedup: str = "lc",
    threads: int | None = None,
    orbit_cap: int = DEFAULT_ORBIT_CAP,
    max_witnesses: int = DEFAULT_MAX_WITNESSES,
):
    """Search a stream of graphs; dedup via canonical LC-orbit seen-sets."""
    if dedup not in ("lc", "iso", "none"):
        raise ValueError(f"unknown dedup mode {dedup!r}")
    ts = _as_ts(t)
    threads = default_threads() if threads is None else threads
    started = time.perf_counter()
    seen: set[CanonicalForm] = set()
    reps: list[Graph] = []
    n = None
    count = 0
    for g in census:
        if n is None:
            n = g.n
        elif g.n != n:
            raise ValueError(f"census mixes vertex counts {n} and {g.n}")
        count += 1
        if dedup == "none":
            reps.append(g)
            continue
        form = canonicalize(g)
        if form in seen:
            continue
        if dedup == "lc":
            try:
                seen |= lc_orbit(g, max_size=orbit_cap)
            except OrbitCapExceeded:
                seen.add(form)  # evaluate orbit members individually instead
        else:
            seen.add(form)
        reps.append(g)
    if n is None:
        raise ValueError("empty census")
    results = _map_reps(reps, ts, threads)
    reports = _reduce_reports(n, ts, reps, results, count, started, max_witnesses)
    return reports[ts[0]] if isinstance(t, int) else reports


# ---------------------------------------------------------------------------
# graph6 file searches with checkpointing

def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class Checkpoint:
    census_sha256: str
    chunk_size: int
    chunks_done: int
    minima: dict[int, Dyadic] = field(default_factory=dict)

    def write(self, path: str):
        lines = [
            "bellgraph-checkpoint v1",
            f"census_sha256={self.census_sha256}",
            f"chunk_size={self.chunk_size}",
            f"chunks_done={self.chunks_done}",
        ]
        for t in sorted(self.minima):
            lines.append(f"min_t{t}={self.minima[t]}")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)

    @classmethod
    def read(cls, path: str) -> "Checkpoint":
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        if not lines or lines[0] != "bellgraph-checkpoint v1":
            raise ValueError(f"{path}: not a checkpoint file")
        kv = dict(ln.split("=", 1) for ln in lines[1:] if "=" in ln)
        for key in ("census_sha256", "chunk_size", "chunks_done"):
            if key not in kv:
                raise ValueError(f"{path}: checkpoint is missing {key}")
        minima = {
            int(key[len("min_t"):]): Dyadic.parse(val)
            for key, val in kv.items()
            if key.startswith("min_t")
        }
        return cls(kv["census_sha256"], int(kv["chunk_size"]), int(kv["chunks_done"]), minima)


def search_file(
    path: str,
    t,
    *,
    lenient: bool = False,
    dedup: str = "lc",
    threads: int | None = None,
    orbit_cap: int = DEFAULT_ORBIT_CAP,
    max_witnesses: int = DEFAULT_MAX_WITNESSES,
    chunk_size: int = 4096,
    checkpoint_path: str | None = None,
):
    """Search a graph6 census file, optionally checkpointing per chunk.

    Malformed records abort with their line number unless lenient, in which
    case they are counted and skipped. With a checkpoint path, completed
    chunks are recorded and a matching checkpoint resumes after them (the
    running minimum carries over; witnesses then only cover chunks processed
    after the resume point).
    """
    ts = _as_ts(t)
    threads = default_threads() if threads is None else threads
    started = time.perf_counter()
    sha = _file_sha256(path)
    skip_chunks = 0
    seed_minima: dict[int, Dyadic] | None = None
    if checkpoint_path and os.path.exists(checkpoint_path):
        ck = Checkpoint.read(checkpoint_path)
        if ck.census_sha256 != sha:
            raise ValueError(f"{checkpoint_path}: census file content changed")
        if ck.chunk_size != chunk_size:
            raise ValueError(f"{checkpoint_path}: chunk size {ck.chunk_size} != {chunk_size}")
        skip_chunks = ck.chunks_done
        seed_minima = ck.minima or None

    seen: set[CanonicalForm] = set()
    reps: list[Graph] = []
    results: list[dict[int, Dyadic]] = []
    n = None
    count = 0
    bad = 0
    record_index = 0
    chunk: list[Graph] = []
    chunks_done = skip_chunks
    minima: dict[int, Dyadic] = {}

    def flush_chunk():
        nonlocal chunks_done
        if not chunk:
            return
        fresh: list[Graph] = []
        for g in chunk:
            if dedup == "none":
                fresh.append(g)
                continue
            form = canonicalize(g)
            if form in seen:
                continue
            if dedup == "lc":
                try:
                    seen.update(lc_orbit(g, max_size=orbit_cap))
                except OrbitCapExceeded:
                    seen.add(form)
            else:
                seen.add(form)
            fresh.append(g)
        for res in _map_reps(fresh, ts, threads):
            results.append(res)
            for tt in ts:
                if tt not in minima or res[tt] < minima[tt]:
                    minima[tt] = res[tt]
        reps.extend(fresh)
        chunk.clear()
        chunks_done += 1
        if checkpoint_path:
            Checkpoint(
                sha,
                chunk_size,
                chunks_done,
                minima,
            ).write(checkpoint_path)

    for lineno, item in iter_graph6_file(path, lenient=lenient):
        if isinstance(item, Graph6Error):
            bad += 1
            continue
        record_index += 1
        if record_index <= skip_chunks * chunk_size:
            continue
        g = item
        if n is None:
            n = g.n
        elif g.n != n:
            raise ValueError(f"line {lineno}: census mixes vertex counts {n} and {g.n}")
        count += 1
        chunk.append(g)
        if len(chunk) >= chunk_size:
            flush_chunk()
    flush_chunk()
    if n is None:
        raise ValueError(f"{path}: no graphs processed")
    if seed_minima and any(bound.log2_den > n for bound in seed_minima.values()):
        raise ValueError("checkpoint minimum finer than 2^-n")
    reports = _reduce_reports(
        n, ts, reps, results, count, started, max_witnesses, seed_minima=seed_minima
    )
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


def reproduce_table1(
    max_n: int = 7,
    ts: Sequence[int] = (0, 1, 2),
    max_exhaustive_n: int | None = None,
    census_dir: str | None = None,
    threads: int | None = None,
) -> list[TableCell]:
    """Recompute the optimal-bound grid for 3 <= n <= max_n.

    Cells inside the built-in enumeration band are exhaustive; beyond it a
    census file `n<k>.g6` in census_dir is searched when present, otherwise
    the known optimal family is evaluated as an upper-bound spot check, and
    cells with neither are reported missing.
    """
    if max_exhaustive_n is None:
        max_exhaustive_n = min(max_n, ENUMERATION_MAX_N)
    ts = tuple(ts)
    cells: list[TableCell] = []
    for n in range(3, max_n + 1):
        if n <= max_exhaustive_n:
            reports = search_labeled_all(n, ts, threads=threads)
            for t in ts:
                cells.append(TableCell(t, n, reports[t].best_bound, "exhaustive",
                                       None, TABLE1.get((t, n))))
            continue
        census = os.path.join(census_dir, f"n{n}.g6") if census_dir else None
        if census and os.path.exists(census):
            reports = search_file(census, ts, threads=threads)
            for t in ts:
                cells.append(TableCell(t, n, reports[t].best_bound, "exhaustive",
                                       None, TABLE1.get((t, n))))
            continue
        for t in ts:
            spec = SPOT_FAMILIES.get((t, n))
            if spec is None:
                cells.append(TableCell(t, n, None, "missing", None, TABLE1.get((t, n))))
                continue
            bound = lhv_bound(parse_family(spec), t).bound
            cells.append(TableCell(t, n, bound, "family-bound", spec, TABLE1.get((t, n))))
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
