"""nctorus benchmark: times the real CLI end to end and, traced, per module.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the root of a source tree holding ``src/nctorus``.  Each run
starts fresh interpreters (worker.py) one after another, so there is one
closed loop: a single process running passes back to back, never two
processes at once.  The grid thread pool and BLAS threads keep their
defaults, which the environment record shows.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics from a traced run, with the tracing overhead.  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Fresh interpreters per end-to-end run.  Each runs a cold pass, then warm
# passes for its share of --seconds, so the warm samples spread over the
# whole run.  setup_s, cold_pass_s and peak_rss_mb are medians over the
# interpreters; pass_s and cpu_s over all their warm passes.
FRESH = 4
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "cold_pass_s": "s",
    "pass_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NCTORUS_THREADS")


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "threads_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


class Runner:
    """Starts worker interpreters one at a time within the run's deadline."""

    def __init__(self, args, work_dir: str) -> None:
        self.args = args
        self.work_dir = work_dir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0

    def start(self, mode: str, seconds: float = 0.0, spans: str | None = None) -> dict:
        self.count += 1
        tag = f"{mode}-{self.count}"
        out_dir = os.path.join(self.work_dir, tag)
        os.makedirs(out_dir)
        result_path = os.path.join(self.work_dir, tag + ".json")
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--seconds", str(seconds), "--out-dir", out_dir, "--result", result_path,
        ]
        if spans:
            cmd += ["--spans", spans]
        if self.args.tiny:
            cmd.append("--tiny")
        launched = time.monotonic()
        # subprocess.run kills and reaps the worker if the deadline passes
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, self.deadline - launched))
        if proc.returncode != 0 or not os.path.exists(result_path):
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"worker {tag} exited with status {proc.returncode}")
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        result["setup_s"] = result["ready"] - launched
        return result


def judge(passes, reference, expected, args) -> list:
    """Mark each pass ok or not; returns the problems found."""
    problems = workloads.check(args.workload, reference["outputs"], expected, args.tiny,
                               args.inject_failure)
    for record in passes:
        bad_codes = [c for c in record["codes"] if c != 0]
        record["ok"] = not problems and not bad_codes and record["digest"] == reference["digest"]
        if bad_codes:
            problems.append(f"{record['kind']} pass exited with {bad_codes}")
        elif record["digest"] != reference["digest"]:
            problems.append(f"{record['kind']} pass output differs from the first pass")
    return problems


def end_to_end(runner: Runner) -> tuple:
    args = runner.args
    count = 1 if args.tiny else FRESH
    fresh = [runner.start("measure", seconds=args.seconds / count) for _ in range(count)]
    passes = [p for proc in fresh for p in proc["passes"]]
    warm = [p for p in passes if p["kind"] == "warm"]
    q1, med, q3 = statistics.quantiles([p["wall"] for p in warm], n=4)
    metrics = {
        "setup_s": statistics.median(proc["setup_s"] for proc in fresh),
        "cold_pass_s": statistics.median(proc["passes"][0]["wall"] for proc in fresh),
        "pass_s": med,
        "cpu_s": statistics.median(p["cpu"] for p in warm),
        "peak_rss_mb": statistics.median(proc["maxrss_kb"] for proc in fresh) / 1024.0,
    }
    info = {"pass_s_q1": q1, "pass_s_q3": q3, "warm_passes": len(warm),
            "fresh_interpreters": count}
    return fresh[0]["passes"][0], passes, metrics, info


def traced(runner: Runner, spans_path: str) -> tuple:
    proc = runner.start("trace", seconds=runner.args.seconds, spans=spans_path)
    passes = proc["passes"]
    layers = [p["layers"] for p in passes if p["kind"] == "traced"]
    metrics = {name: statistics.median(layer[name] for layer in layers)
               for name in layers[0]}
    traced_wall = statistics.median(p["wall"] for p in passes if p["kind"] == "traced")
    plain_wall = statistics.median(p["wall"] for p in passes if p["kind"] == "untraced")
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    info = {
        "traced_passes": len(layers),
        "traced_pass_s": traced_wall,
        "untraced_pass_s": plain_wall,
        "spans_per_pass": statistics.median(p["spans"] for p in passes if p["kind"] == "traced"),
        "nesting_violations": sum(p["nesting_violations"] for p in passes if p["kind"] == "traced"),
        "missing_targets": proc["missing_targets"],
    }
    return passes[0], passes, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small boxes and fewer interpreters, for the benchmark's own checks")
    parser.add_argument("--inject-failure", action="store_true",
                        help="plant a wrong expectation (the benchmark's own checks)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "nctorus", "cli.py")):
        print(f"error: no nctorus source under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # importing here first fills the bytecode and file caches, so no timed
    # interpreter pays for them
    import nctorus.cli  # noqa: F401

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    out_root = os.path.join(HERE, "out")
    work_dir = os.path.join(out_root, f"{label}-{os.getpid()}")
    os.makedirs(work_dir)
    runner = Runner(args, work_dir)
    try:
        # expectations come from the public API before anything is timed
        expected = (workloads.scan_expectations(args.seed, args.tiny)
                    if args.workload == "scan" else {})
        env = environment()
        if args.trace:
            spans_path = os.path.join(out_root, label + "-spans.json")
            reference, passes, metrics, info = traced(runner, spans_path)
            info["spans_file"] = os.path.relpath(spans_path, ROOT)
            units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        else:
            reference, passes, metrics, info = end_to_end(runner)
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    problems = judge(passes, reference, expected, args)
    failed = sum(1 for p in passes if not p["ok"])
    if not args.trace:
        metrics["ok_frac"] = 1.0 - failed / len(passes)
    info["failed_frac"] = failed / len(passes)

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "env": env, "info": info,
              "problems": problems,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    with open(os.path.join(out_root, label + ".json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"env: {json.dumps(env)}")
    print(f"info: {json.dumps(info)}")
    for problem in problems:
        print(f"check failed: {problem}")
    for name, value in metrics.items():
        print(f"{name:30s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(passes),
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
