"""The benchmark's own checks, on tiny boxes; takes about a minute.

    python3 perfbench/selfcheck.py

For every workload it asserts that:
  * an end-to-end run and a traced run print every metric BENCHMARK.json
    names, with its unit, both in the readable lines and in the last-line
    JSON, and that the outputs check as correct;
  * every recorded span lies inside its parent's interval, and pool
    workers' spans nest under the runner on the main thread (scan);
  * a planted wrong expectation makes passes fail (ok_frac < 1).
It also asserts that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and perfbench/.
Exit status 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 5


def expect(condition, message="") -> None:
    if not condition:
        raise AssertionError(message)


def bench(*extra, cwd=ROOT, script=os.path.join(HERE, "run.py")) -> subprocess.CompletedProcess:
    cmd = [sys.executable, script, "--seed", str(SEED), "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(proc: subprocess.CompletedProcess) -> tuple:
    expect(proc.returncode == 0, proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys())
    info = json.loads(next(line for line in lines if line.startswith("info: "))[6:])
    return lines[:-1], result, info


def check_metrics(lines, result, spec) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == want, f"metrics {got} differ from BENCHMARK.json {want}")
    for name, unit in want.items():
        value = result["metrics"][name]["value"]
        expect(isinstance(value, (int, float)), (name, value))
        expect(any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines), (
            f"{name} is not printed with its unit {unit}"))


def check_spans(path: str, workload: str) -> None:
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        doc = json.load(fh)
    cross_thread = 0
    for rows in doc["passes"]:
        expect(tracer.nesting_violations(rows) == 0, "a span outlives its parent")
        threads = {row[0]: row[3] for row in rows}
        cross_thread += sum(1 for row in rows if row[1] is not None and threads[row[1]] != row[3])
    if workload == "scan":
        expect(cross_thread > 0, "no pool worker span nested under the runner")


def check_refuses_without_source() -> None:
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = bench("--workload", "scan", "--trace", "0", cwd=bare,
                     script=os.path.join(bare, "perfbench", "run.py"))
        expect(proc.returncode != 0, "ran without a source tree")
        expect(not proc.stdout.strip(), f"printed {proc.stdout!r} without a source tree")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS))
    for workload in workloads.WORKLOADS:
        lines, result, _ = parse(bench("--workload", workload, "--trace", "0", "--tiny"))
        check_metrics(lines, result, spec["end_to_end"])
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result)
        expect(result["metrics"]["ok_frac"]["value"] == 1.0)

        lines, result, info = parse(bench("--workload", workload, "--trace", "1", "--tiny"))
        check_metrics(lines, result, spec["per_layer"])
        expect(result["correct"] and result["failed"] == 0, result)
        expect(info["nesting_violations"] == 0 and not info["missing_targets"], info)
        check_spans(info["spans_file"], workload)

        lines, result, info = parse(bench("--workload", workload, "--trace", "0", "--tiny",
                                          "--inject-failure"))
        expect(not result["correct"] and result["failed"] > 0, result)
        expect(result["metrics"]["ok_frac"]["value"] < 1.0 and info["failed_frac"] > 0)
        print(f"ok  {workload}: metrics and units, span nesting, injected failure counted")
    check_refuses_without_source()
    print("ok  refuses to run without src/nctorus")
    return 0


if __name__ == "__main__":
    sys.exit(main())
