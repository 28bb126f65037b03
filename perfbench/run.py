"""bellgraph benchmark: one workload, one seed, one fresh process per run.

    python3 perfbench/run.py --workload census8 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the library is imported from ./src.
Workloads are described in perfbench/workloads.py.

With --trace 0 the run repeats the workload call until the calls have taken
--seconds (the last call may end past it), and reports the end-to-end metrics:
the median wall time per call, items per second at that median, the median
set-up time of nine fresh processes (interpreter start, `import bellgraph`
and building the inputs) and the peak RSS of this process. With --trace 1 it
alternates untraced and traced calls within the same budget and reports the
per-layer metrics of the traced call with the median wall time, plus
trace.overhead_s, the median traced minus the median untraced wall time.

Every call starts from cold caches: all `functools` caches in bellgraph are
cleared before each one, as in a fresh process. BELLGRAPH_THREADS is cleared
so the library picks its default worker count. Correctness checks run
outside the timed region: the first result is checked against the goldens
and every later one must equal it. The last line of standard output is the
result as JSON; the line before it is a report with the environment, the
checks that failed and the layer-to-end-to-end mapping. Spans of the
reported traced call are written to .perfbench_runs/spans-<workload>.json.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_runs")
SETUP_PROBES = 9

sys.path.insert(0, HERE)
from workloads import WORKLOADS, plant_wrong  # noqa: E402


def import_bellgraph():
    os.environ.pop("BELLGRAPH_THREADS", None)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "bellgraph")):
        sys.exit(f"perfbench: no bellgraph sources under {src}")
    sys.path.insert(0, src)
    return importlib.import_module("bellgraph")


def metric_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def cache_clearers():
    """cache_clear of every functools cache in the loaded bellgraph modules."""
    found = {}
    for key, mod in list(sys.modules.items()):
        if mod is None or not (key == "bellgraph" or key.startswith("bellgraph.")):
            continue
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value.cache_clear
    return list(found.values())


def probe_setup(args) -> list[float]:
    """Seconds from spawning a fresh interpreter to its inputs being ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.toy:
        cmd.append("--toy")
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]) - started)
    return samples


def timed_calls(call, clear, budget: float, traced_call=None):
    """Repeat the call until the calls made so far have taken the budget.

    With traced_call, untraced and traced calls alternate and both are
    returned as (results, times) lists.
    """
    plain, traced = ([], []), ([], [])
    started = time.perf_counter()
    while time.perf_counter() - started < budget:
        for fn, (results, times) in ((call, plain), (traced_call, traced)):
            if fn is None:
                continue
            for clear_one in clear:
                clear_one()
            t0 = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - t0)
            results.append(result)
    return plain, traced


def environment(args) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None  # a checkout without git metadata
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "bellgraph")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    search = importlib.import_module("bellgraph.search")
    threads = search.default_threads() if hasattr(search, "default_threads") else None
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": args.seed,
        "worker_count": threads,
    }


def run_checks(workload, bg, inputs, results) -> tuple[int, list[str]]:
    attempted, failed = 0, []
    for label, ok in workload.checks(bg, inputs, results[0]):
        attempted += 1
        if not ok:
            failed.append(label)
    first = workload.fingerprint(results[0])
    for i, result in enumerate(results[1:], start=1):
        attempted += 1
        if workload.fingerprint(result) != first:
            failed.append(f"call {i} differs from call 0")
    return attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes, for the smoke check")
    parser.add_argument("--plant-wrong-golden", action="store_true",
                        help="break one golden value, for the smoke check")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.toy)
    if args.plant_wrong_golden:
        workload.golden = plant_wrong(workload.golden)
    bg = import_bellgraph()
    os.makedirs(WORKDIR, exist_ok=True)
    if args.setup_probe:
        inputs = workload.setup(bg, args.seed, WORKDIR)
        print(repr(time.perf_counter()))
        workload.cleanup(inputs)
        return 0

    setup_samples = [] if args.trace else probe_setup(args)
    inputs = workload.setup(bg, args.seed, WORKDIR)
    clear = cache_clearers()
    try:
        report = {"workload": workload.name, "seed_used": workload.seed_used,
                  "environment": environment(args)}

        def call():
            return workload.run(bg, inputs)

        if args.trace:
            from spans import LAYER_MAP, Span, Tracer, summarize

            tracer = Tracer()
            stabilizer = getattr(importlib.import_module("bellgraph.bell"), "stabilizer_table", None)
            traces = []

            def traced():
                tracer.install()
                try:
                    result, spans = tracer.run_root(call)
                finally:
                    tracer.uninstall()
                info = stabilizer.cache_info() if hasattr(stabilizer, "cache_info") else None
                traces.append((spans, (info.hits, info.misses) if info else (0, 0)))
                return result

            (results, times), (traced_results, traced_times) = timed_calls(
                call, clear, args.seconds, traced_call=traced)
            results += traced_results
            by_time = sorted(range(len(traced_times)), key=traced_times.__getitem__)
            spans, stabilizer_cache = traces[by_time[(len(by_time) - 1) // 2]]
            metrics = summarize(spans, stabilizer_cache)
            metrics["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(times)
            report.update(absent=tracer.absent, layer_map=LAYER_MAP,
                          traced_calls=len(traced_times), untraced_calls=len(times))
            label = f"{workload.name}{'-toy' if args.toy else ''}"
            with open(os.path.join(WORKDIR, f"spans-{label}.json"), "w", encoding="ascii") as fh:
                json.dump({"seed": args.seed, "fields": Span._fields, "spans": spans}, fh)
        else:
            (results, times), _ = timed_calls(call, clear, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            wall = statistics.median(times)
            metrics = {
                "wall_s": wall,
                "items_per_s": workload.items / wall,
                "setup_s": statistics.median(setup_samples),
                "peak_rss_mb": peak_rss_mb,
            }
            report.update(call_times_s=times, setup_samples_s=setup_samples)

        attempted, failed = run_checks(workload, bg, inputs, results)
        report.update(checks_attempted=attempted, checks_failed=failed,
                      error_rate=len(failed) / attempted)
    finally:
        workload.cleanup(inputs)

    units = metric_units()
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
