"""Spans around the public functions of each bellgraph layer.

A traced run replaces every binding of a target function in the loaded
bellgraph modules with a wrapper that records one span per call: id, parent
id, name, start, end and thread, plus a small note taken from the arguments
or result. Bindings are replaced wherever a caller looks the name up, so
`bellgraph.bell.lhv_bound` and the copy imported into `bellgraph.search` are
both traced. Spans stay in memory; per-layer numbers are computed from them
after the run. Nothing in the library changes.

The search evaluation pool runs on worker threads. A span opened on a worker
thread with no open span of its own takes the span open on the main thread as
its parent, which is the search call waiting on the pool.
"""
from __future__ import annotations

import importlib
import itertools
import math
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

# layer -> public names wrapped in that layer
TARGETS = {
    "search": ("reproduce_table1", "search_labeled_all", "search", "search_file"),
    "canon": ("canonicalize", "lc_orbit"),
    "bell": ("lhv_bound", "lhv_value_table", "bell_coefficients", "stabilizer_table", "fwht_inplace"),
    "coverable": ("coverable_set",),
    "graph6": ("parse_graph6",),
}
ROOT = "bench.workload"
REPORT_SPANS = ("search.search_labeled_all", "search.search", "search.search_file")

# per-layer metrics -> the end-to-end metric they should move, and where
LAYER_MAP = {
    "search.verify_s, search.*witnesses_verified": "wall_s on table1 and census8",
    "search.dedup_s, search.dedup_ratio": "wall_s on census8",
    "search.evaluate_s": "wall_s on census8 and table1 only slightly; must not grow when the engine changes",
    "search.self_s": "wall_s on table1 (bitmap enumeration and reduce)",
    "canon.*": "wall_s on census8; no change on bounds12",
    "bell.lhv_bound_*, bell.lhv_value_table_s, bell.bell_coefficients_s":
        "wall_s on bounds12, and the verify stage of table1 and census8",
    "bell.fwht_*": "wall_s and peak_rss_mb on bounds12",
    "bell.stabilizer_*, coverable.*": "wall_s on all three workloads",
    "graph6.*": "wall_s on census8, bounding what a faster parser could save",
    "trace.overhead_s": "none: traced minus untraced wall_s within one run",
}


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    start: float
    end: float
    thread: int
    note: object


def _first_report(result):
    return result if hasattr(result, "graphs_examined") else next(iter(result.values()))


# notes recorded per span name, from (args, result)
NOTES = {
    "bell.fwht_inplace": lambda args, res: (args[0].size, args[0].itemsize),
    "bell.lhv_bound": lambda args, res: res.bound == 1,
    "canon.lc_orbit": lambda args, res: len(res),
    "coverable.coverable_set": lambda args, res: res.count,
    **{
        name: lambda args, res: (
            _first_report(res).graphs_examined,
            _first_report(res).lc_classes_examined,
        )
        for name in REPORT_SPANS
    },
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._next_id = itertools.count(1).__next__
        self._main: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            main = self._main
            parent = stack[-1] if stack else (main[-1] if main else 0)
            sid = self._next_id()
            stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                extra = None
                if note is not None and result is not None:
                    try:
                        extra = note(args, result)
                    except (AttributeError, TypeError, IndexError, StopIteration):
                        extra = None
                self.spans.append(Span(sid, parent, name, start, end, threading.get_ident(), extra))

        return traced

    def install(self):
        """Wrap every target; a name missing from its module is recorded as absent."""
        self.absent = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "bellgraph" or key.startswith("bellgraph."))]
        for layer, names in TARGETS.items():
            try:
                home = importlib.import_module(f"bellgraph.{layer}")
            except ImportError:
                home = None
            for name in names:
                full = f"{layer}.{name}"
                orig = getattr(home, name, None)
                if orig is None:
                    self.absent.append(full)
                    continue
                wrapper = self.wrap(full, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches = []

    def run_root(self, fn):
        """Call fn under the root span; returns (result, spans of this call)."""
        self.spans = []
        result = self.wrap(ROOT, fn)()
        return result, self.spans


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans: list[Span], stabilizer_cache) -> dict[str, float]:
    """Per-layer metrics of one traced call.

    A span's self time is its duration minus the part of that interval its
    child spans cover. Children that ran concurrently on pool threads
    overlap; the sum of their durations beyond the covered interval is
    reported as trace.parallel_overlap_s, so the self times of all layers sum
    to the traced wall time plus that overlap.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    root = next(s for s in spans if s.name == ROOT)

    def dur(s):
        return s.end - s.start

    def layer(s):
        return s.name.split(".", 1)[0]

    def parent_layer(s):
        p = by_id.get(s.parent)
        return None if p is None else layer(p)

    layer_self: dict[str, float] = defaultdict(float)
    overlap = 0.0
    for s in spans:
        kids = children.get(s.id, [])
        covered = _covered([(max(k.start, s.start), min(k.end, s.end)) for k in kids])
        layer_self[layer(s)] += dur(s) - covered
        overlap += sum(dur(k) for k in kids) - covered

    named: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def total(name, where=None):
        return sum(dur(s) for s in named[name] if where is None or where(s))

    def count(name, where=None):
        return sum(1 for s in named[name] if where is None or where(s))

    def from_search(s):
        return parent_layer(s) == "search"

    def outermost_report(s):
        p = by_id.get(s.parent)
        while p is not None:
            if p.name in REPORT_SPANS:
                return False
            p = by_id.get(p.parent)
        return True

    reports = [s.note for name in REPORT_SPANS for s in named[name]
               if s.note is not None and outermost_report(s)]
    graphs = sum(r[0] for r in reports)
    classes = sum(r[1] for r in reports)
    threads = max(
        (len({k.thread for k in children.get(s.id, []) if k.name == "bell.lhv_value_table"})
         for s in spans if layer(s) == "search"),
        default=0,
    )
    fwht = [s.note for s in named["bell.fwht_inplace"] if s.note is not None]
    fwht_ops = sum(size * math.log2(size) for size, _ in fwht if size > 1)
    wall = dur(root)
    return {
        "search.verify_s": total("bell.lhv_bound", from_search),
        "search.witnesses_verified": count("bell.lhv_bound", from_search),
        "search.trivial_witnesses_verified": count(
            "bell.lhv_bound", lambda s: from_search(s) and s.note is True),
        "search.dedup_s": total("canon.canonicalize", from_search) + total("canon.lc_orbit", from_search),
        "search.dedup_ratio": classes / graphs if graphs else 0.0,
        "search.evaluate_s": total("bell.lhv_value_table", from_search),
        "search.self_s": layer_self["search"],
        "search.graphs_examined": graphs,
        "search.classes_evaluated": classes,
        "search.threads": threads,
        "canon.canonicalize_calls": count("canon.canonicalize"),
        "canon.canonicalize_s": total("canon.canonicalize"),
        "canon.lc_orbit_calls": count("canon.lc_orbit"),
        "canon.lc_orbit_s": total("canon.lc_orbit"),
        "canon.lc_orbit_self_s": sum(
            dur(s) - _covered([(k.start, k.end) for k in children.get(s.id, [])])
            for s in named["canon.lc_orbit"]),
        "canon.orbit_forms": sum(s.note for s in named["canon.lc_orbit"] if s.note is not None),
        "canon.self_s": layer_self["canon"],
        "bell.lhv_bound_calls": count("bell.lhv_bound"),
        "bell.lhv_bound_s": total("bell.lhv_bound"),
        "bell.lhv_value_table_s": total("bell.lhv_value_table"),
        "bell.bell_coefficients_s": total("bell.bell_coefficients"),
        "bell.fwht_calls": count("bell.fwht_inplace"),
        "bell.fwht_s": total("bell.fwht_inplace"),
        "bell.fwht_elements": sum(size for size, _ in fwht),
        "bell.fwht_ops": fwht_ops,
        # model, not a measurement: each butterfly stage reads and writes every element once
        "bell.fwht_bytes_computed": sum(
            2 * size * math.log2(size) * itemsize for size, itemsize in fwht if size > 1),
        "bell.stabilizer_table_s": total("bell.stabilizer_table"),
        "bell.stabilizer_cache_hits": stabilizer_cache[0],
        "bell.stabilizer_cache_misses": stabilizer_cache[1],
        "bell.self_s": layer_self["bell"],
        "coverable.coverable_set_calls": count("coverable.coverable_set"),
        "coverable.coverable_set_s": total("coverable.coverable_set"),
        "coverable.members": sum(s.note for s in named["coverable.coverable_set"] if s.note is not None),
        "coverable.self_s": layer_self["coverable"],
        "graph6.records": count("graph6.parse_graph6"),
        "graph6.parse_s": total("graph6.parse_graph6"),
        "graph6.self_s": layer_self["graph6"],
        "bench.self_s": layer_self["bench"],
        "trace.wall_s": wall,
        "trace.parallel_overlap_s": overlap,
        "trace.spans": len(spans),
    }
