"""Frame-level benchmark of ``nccalign align``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hd-diag-fast --seed 1 --seconds 45 --trace 0

One operation is one aligned frame: ``nccalign.cli.main(["align", ...])``
called in-process on a PGM pair the benchmark generated and wrote, writing
``disparity.csv``, ``metrics.csv`` and three PGMs. The loop is closed, with
one client in one process. The last line of standard output is a JSON object
with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``); the full record of the run, including the machine and build
it ran on, goes to ``.perfbench-work/<run>/results.json``. The exit status is
0 only when every frame and the oracle spot-check passed. See README.md for
why each workload exists.

This file imports nothing outside the standard library before it times the
import of ``nccalign``, so set-up time includes numpy and scipy.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SWEEP_FRACTIONS = ("0.01", "0.1", "0.2")
SWEEP_SEEDS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    width: int
    height: int
    method: str
    block: int
    crop: float
    radius: int
    # A new generated pair per frame (True) or one pair for the whole run.
    fresh_pairs: bool

    def flags(self, frame: int, seed: int) -> tuple[str, ...]:
        r = self.radius
        flags = ("--method", self.method, "--block", str(self.block), "--crop", str(self.crop),
                 f"--search-du=-{r}:{r}", f"--search-dv=-{r}:{r}")
        if self.method != "stream":
            return flags
        # noise-sweep traffic: the fraction cycles fastest, the noise seed
        # advances once per sweep, and the 30 configurations then repeat.
        k = frame % (len(SWEEP_FRACTIONS) * SWEEP_SEEDS)
        return flags + ("--noise-int", "0.20",
                        "--noise-mult", SWEEP_FRACTIONS[k % len(SWEEP_FRACTIONS)],
                        "--seed", str(seed + k // len(SWEEP_FRACTIONS)))


WORKLOADS = {w.name: w for w in (
    Workload("hd-diag-fast", 1920, 1080, "diag-fast", 128, 0.10, 16, fresh_pairs=True),
    Workload("vga-stream-sweep", 512, 512, "stream", 64, 0.0, 8, fresh_pairs=False),
)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nccalign" / "__init__.py").is_file():
        print(f"error: no nccalign sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import nccalign
    import nccalign.cli
    import_s = perf_counter() - start
    if Path(nccalign.__file__).resolve().parent != (SRC / "nccalign").resolve():
        print(f"error: imported nccalign from {nccalign.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import frames

    return frames.run(nccalign, WORKLOADS[args.workload], args, import_s, ROOT)


if __name__ == "__main__":
    sys.exit(main())
