"""The outputs the runners promise to keep, committed under tests/golden/.

Each command of GOLDEN runs in-process, in CSV (text for suite) and in
JSON, with its wall_ms timings dropped.  Tier-1 compares the outputs
with the committed files: the text around the numbers exactly, and the
numbers at a relative 1e-12, since another CPU or numpy build may round
a last digit differently.  Numbers within 1e-13 of each other count as
equal: below that sit only identity residuals, which are rounding noise,
and the smallest check tolerance; pass flags are compared exactly.

    python tests/test_golden.py                  # rewrite the golden set
    python tests/test_golden.py --check --exact  # compare byte for byte

With PYTHONPATH set to another tree's src, the script writes (or checks)
that tree's outputs; --dir names the directory to use.  Writing a parent
commit's set into a scratch directory and checking this tree against it
with --exact is the byte-identity check for a change that keeps outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

try:
    from nctorus.cli import main
except ImportError:  # run as a script from a checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from nctorus.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# file stem -> argv; d = 3 stops at N = 4: N = 8 (n = 4,913) would take seconds of SVD
GOLDEN = {
    "suite-7": ["suite", "--seed", "7"],
    "scan-d2": ["scan", "--n-grid", "4,6,8"],
    "scan-d3": ["scan", "--d", "3", "--n-grid", "2,3,4"],
    "factor": ["factor"],
    "schwartz-8": ["schwartz", "--n", "8"],
    "decay": ["decay", "--n-grid", "40,80,160"],
}

_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|NaN|-?Infinity|nan|-?inf")


def _without_wall_ms(text: str, fmt: str) -> str:
    """text with the scan's wall_ms timings dropped; other text passes unchanged."""
    if fmt == "json":
        doc = json.loads(text)
        for rec in doc.get("records", []):
            rec.pop("wall_ms", None)
        return json.dumps(doc, indent=2) + "\n"
    rows = [line.split(",") for line in text.splitlines()]
    if not rows or "wall_ms" not in rows[0]:
        return text
    drop = rows[0].index("wall_ms")
    return "".join(",".join(row[:drop] + row[drop + 1:]) + "\n" for row in rows)


def outputs() -> dict:
    """File name -> output of every golden command, wall_ms dropped."""
    out = {}
    for stem, argv in GOLDEN.items():
        for fmt in ("csv", "json"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv + ["--format", fmt])
            if code != 0:
                raise RuntimeError(f"{' '.join(argv)} --format {fmt} exited {code}")
            suffix = "txt" if fmt == "csv" and argv[0] == "suite" else fmt
            out[f"{stem}.{suffix}"] = _without_wall_ms(buf.getvalue(), fmt)
    return out


def differences(got: dict, directory: Path, exact: bool) -> list:
    """Names of the golden files in directory that got does not reproduce."""
    wrong = []
    for name, text in got.items():
        path = directory / name
        want = path.read_text(encoding="utf-8") if path.exists() else None
        if want is None or (text != want if exact else not _close(text, want)):
            wrong.append(name)
    return wrong


def _close(got: str, want: str) -> bool:
    numbers = [[float(m) for m in _NUMBER.findall(t)] for t in (got, want)]
    return _NUMBER.sub("#", got) == _NUMBER.sub("#", want) and all(
        a == b or (math.isnan(a) and math.isnan(b))
        or math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-13)
        for a, b in zip(*numbers)
    )


def test_outputs_match_the_golden_set():
    assert differences(outputs(), GOLDEN_DIR, exact=False) == []


def test_golden_comparison_sees_a_changed_digit():
    want = "N,r\n4,1.2345678901234567\n"
    assert _close("N,r\n4,1.2345678901234569\n", want)
    assert not _close("N,r\n4,1.2345678901294567\n", want)
    assert not _close("N,s\n4,1.2345678901234567\n", want)
    assert not _close("pass  x: max error nan (tol 1.0e-12)", "pass  x: max error 0 (tol 1.0e-12)")
    assert _close("max error 3.1e-16", "max error 8.0e-17")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write or check the golden output set.")
    parser.add_argument("--dir", type=Path, default=GOLDEN_DIR, help="golden directory")
    parser.add_argument("--check", action="store_true", help="compare instead of writing")
    parser.add_argument("--exact", action="store_true", help="with --check: byte for byte")
    args = parser.parse_args()
    got = outputs()
    if args.check:
        wrong = differences(got, args.dir, args.exact)
        print("\n".join(f"differs: {name}" for name in wrong) or "all outputs match")
        sys.exit(1 if wrong else 0)
    args.dir.mkdir(parents=True, exist_ok=True)
    for name, text in got.items():
        (args.dir / name).write_text(text, encoding="utf-8")
    print(f"wrote {len(got)} files to {args.dir}")
