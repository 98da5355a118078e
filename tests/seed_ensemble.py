"""The scan's sampling spread: which printed digits of S_r and weak_r are the draw's.

A scan row is one seed's draw of the random kernel.  This runs the scan
of the default config (d = 2, alpha = (1, 1), r = 1.1 r_star, 1 and 2)
once per seed over a seed range, and prints one CSV row per (N, r,
column): the mean over the seeds, the relative standard deviation, and
the range (min, max and max - min over the mean):

    python tests/seed_ensemble.py                       # N = 6, 12 over seeds 0-39, about 8 s
    python tests/seed_ensemble.py --n-grid 4,6 --seeds 0:10

It reads the library through its public API only.  pytest does not
collect it; tests/test_experiments.py pins the spread at N = 6 itself.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

try:
    import nctorus
except ImportError:  # run as a script from a checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import nctorus

COLUMNS = ("s_r_norm", "weak_r_norm")


def ensemble(radii: tuple, seeds: range) -> dict:
    """(N, r, column) -> that column's values over the seeds, in seed order."""
    values = {}
    for seed in seeds:
        for rec in nctorus.run_theorem_scan(nctorus.ExperimentConfig(N_grid=radii, seed=seed)):
            for column in COLUMNS:
                values.setdefault((rec.N, rec.r, column), []).append(getattr(rec, column))
    return values


def rows(values: dict) -> list:
    """CSV rows N, r, column, seeds, mean, rel_std, min, max, rel_range."""
    out = []
    for (radius, r, column), v in sorted(values.items()):
        v = np.asarray(v)
        mean = float(np.mean(v))
        out.append(
            f"{radius},{r:.6g},{column},{len(v)},{mean:.6g},{np.std(v) / mean:.2e},"
            f"{np.min(v):.6g},{np.max(v):.6g},{np.ptp(v) / mean:.2e}"
        )
    return out


def _seed_range(text: str) -> range:
    start, _, stop = text.partition(":")
    seeds = range(int(start), int(stop))
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"a seed range start:stop of two seeds or more, got {text}")
    return seeds


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Spread of the scan's norms over seeds.")
    parser.add_argument("--n-grid", default="6,12", help="comma-separated box radii (default 6,12)")
    parser.add_argument(
        "--seeds", type=_seed_range, default=range(40), help="seeds start:stop (default 0:40)"
    )
    args = parser.parse_args()
    radii = tuple(int(v) for v in args.n_grid.split(","))
    print("N,r,column,seeds,mean,rel_std,min,max,rel_range")
    print("\n".join(rows(ensemble(radii, args.seeds))))
