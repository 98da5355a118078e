"""One fresh interpreter of the benchmark: imports nctorus.cli, then runs passes.

Started by run.py; not meant to be run by hand.  The first statements
import the program, so that the parent can time a fresh interpreter up to
the moment ``nctorus.cli`` is importable (``ready`` in the result, a
CLOCK_MONOTONIC reading comparable across processes).

Modes:
  measure  one cold pass, then warm passes until --seconds have passed
  trace    one cold pass, then untraced and traced passes in turn
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
import nctorus.cli  # noqa: E402

READY = time.monotonic()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402

MIN_TRACED = 2  # traced (and untraced) passes per trace run


def run_pass(steps, out_dir, tracer=None) -> dict:
    """Run one pass through nctorus.cli.main and collect what it wrote."""
    codes = []
    gc.collect()
    c0 = time.process_time()
    t0 = time.perf_counter()
    for argv, name in steps:
        argv = argv + ["--out", os.path.join(out_dir, name)]
        try:
            if tracer is None:
                code = nctorus.cli.main(argv)
            else:
                with tracer.span("cli.main"):
                    code = nctorus.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed pass, not a failed benchmark
            traceback.print_exc()
            code = "exception"
        codes.append(code)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    outputs = {}
    out_bytes = 0
    for _, name in steps:
        path = os.path.join(out_dir, name)
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(path)
        except OSError:
            text = ""
        out_bytes += len(text.encode())
        outputs[name] = workloads.normalize(text)
    digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    return {"wall": wall, "cpu": cpu, "codes": codes, "digest": digest,
            "outputs": outputs, "out_bytes": out_bytes}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("measure", "trace"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    result = {"ready": READY, "passes": []}
    steps = workloads.steps(args.workload, args.seed, args.tiny)
    passes = result["passes"]

    passes.append(dict(run_pass(steps, args.out_dir), kind="cold"))
    # the high-water mark after one pass; later passes raise it through
    # allocator fragmentation, by an amount that depends on their count
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if args.mode == "measure":
        start = time.monotonic()
        while True:
            record = run_pass(steps, args.out_dir)
            passes.append(dict(record, kind="warm"))
            # at least one warm pass; stop at the boundary nearest to --seconds
            if time.monotonic() - start + record["wall"] / 2 >= args.seconds:
                break

    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        all_spans = []
        start = time.monotonic()
        traced = 0
        while traced < MIN_TRACED or time.monotonic() - start < args.seconds:
            passes.append(dict(run_pass(steps, args.out_dir), kind="untraced"))
            tracer.install()
            try:
                record = run_pass(steps, args.out_dir, tracer)
            finally:
                tracer.uninstall()
            spans = tracer.take()
            rows = [s.row() for s in spans]
            record["layers"] = tracing.layer_metrics(spans, record["out_bytes"])
            record["nesting_violations"] = tracing.nesting_violations(rows)
            record["spans"] = len(spans)
            passes.append(dict(record, kind="traced"))
            all_spans.append(rows)
            traced += 1
        result["missing_targets"] = sorted(set(tracer.missing))
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"columns": tracing.SPAN_COLUMNS, "passes": all_spans}, fh)

    # outputs travel once; later passes are compared by digest
    for record in passes[1:]:
        record.pop("outputs")
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
