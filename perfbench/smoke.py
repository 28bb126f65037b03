"""Smoke check of the benchmark at toy size, in about half a minute.

    python3 perfbench/smoke.py

Runs every workload at toy size (census8 on tests/data/census5.g6, table1 to
max_n=5, bounds12 on n=6 graphs), untraced and traced, and checks that each
run is correct and prints exactly the metrics BENCHMARK.json names. Then it
plants a wrong golden value in each workload and checks that the run reports
the failure, and runs the benchmark in a directory holding only
BENCHMARK.json and perfbench/, where it must exit nonzero without a result.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--seed", "1", "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    expected = {0: {m["name"] for m in bench["end_to_end"]}, 1: {m["name"] for m in bench["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            out = run("--workload", workload, "--toy", "--trace", str(trace))
            if out.returncode:
                problems.append(f"{workload} trace={trace}: exit {out.returncode}\n{out.stderr}")
                continue
            result = json.loads(out.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: incorrect {result}")
            if set(result["metrics"]) != expected[trace]:
                problems.append(f"{workload} trace={trace}: metrics {sorted(set(result['metrics']) ^ expected[trace])}")
        out = run("--workload", workload, "--toy", "--trace", "0", "--plant-wrong-golden")
        lines = out.stdout.splitlines()
        result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
        if result["correct"] or not result["failed"] or not report["error_rate"] > 0:
            problems.append(f"{workload}: planted wrong golden not detected")
        print(f"{workload}: ok" if not problems else f"{workload}: {len(problems)} problem(s) so far")

    bare = os.path.join(ROOT, ".perfbench_runs", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    out = run("--workload", "table1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    if out.returncode == 0 or '"correct"' in out.stdout:
        problems.append("a directory without the library still produced a result")
    else:
        print("bare directory: exits nonzero without a result")

    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
