#!/usr/bin/env python3
"""Run the full experiment set at desk scale and write results/ CSVs.

Covers: synthetic pair generation, diagonal-NCC alignment, the full-vs-diag
wall-clock benchmark (a full 1080x1920 frame unless --quick), the
multiplier-noise sweep, both robustness modes, and the 64-channel power
budget. Everything is seeded, so re-runs reproduce identical CSV bodies
(benchmark timings excepted).
"""

import argparse
import sys
from pathlib import Path

from nccalign.cli import main as nccalign

QUADRANTS = ["--pattern", "quadrant:3,5:-4,2:6,-7:-2,-6", "--noise-floor", "0.01", "--gen-seed", "7"]
PAIR = ["--width", "512", "--height", "512", *QUADRANTS]
ALIGN = PAIR + ["--block", "64", "--crop", "0.0", "--search-du=-8:8", "--search-dv=-8:8"]
# The paper workload: a 1080x1920 frame, 128-pixel blocks, +/-16.
PAPER = [
    "--width", "1920", "--height", "1080", *QUADRANTS,
    "--block", "128", "--crop", "0.10", "--search-du=-16:16", "--search-dv=-16:16",
]


def run(argv, out_dir):
    print(f"\n=== nccalign {' '.join(argv)}")
    code = nccalign([*argv, "--out", str(out_dir)])
    if code != 0:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output root directory")
    parser.add_argument("--quick", action="store_true",
                        help="benchmark at 512x512 instead of 1080x1920")
    args = parser.parse_args()
    out = Path(args.out)

    run(["gen", *PAIR], out / "pair")
    run(["align", *ALIGN, "--method", "diag"], out / "align_diag")
    run(["align", *ALIGN, "--method", "stream", "--noise-mult", "0.01", "--seed", "1"],
        out / "align_stream")

    run(["bench", *(ALIGN if args.quick else PAPER), "--runs", "5"], out / "bench")

    run(["noise-sweep", *ALIGN, "--fractions", "0.01,0.1,0.2", "--seeds", "10"],
        out / "noise_sweep")
    run(["robustness", *ALIGN, "--method", "diag", "--mode", "uniform", "--parameter", "0.1"],
        out / "robustness_uniform")
    # larger blocks: 128 diagonal samples average out the +/-50% pixel noise
    run(["robustness", *PAIR, "--block", "128", "--crop", "0.0",
         "--search-du=-8:8", "--search-dv=-8:8",
         "--method", "diag", "--mode", "random", "--parameter", "0.5"],
        out / "robustness_random")
    run(["power", "--channels", "64"], out / "power")

    print(f"\nall experiment outputs under {out}/")


if __name__ == "__main__":
    main()
