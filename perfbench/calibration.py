"""Machine-speed calibration, so run-to-run drift of a shared host cancels.

On a shared host the same frame can take 50% longer for minutes at a time,
while other tenants load the physical cores, the shared cache and memory.
So the benchmark times a fixed numpy/scipy kernel of its own right before
and right after each timed interval, and scales the interval's wall time by
how much slower than its reference time the kernel ran around it. The
kernel works on arrays of the workload's image size and mixes the operation
kinds a frame spends its time in: prefix sums, a jittered gather like a
warp, elementwise blends with fresh temporaries, a finiteness scan and
direct 2D correlation. It never calls ``nccalign``, so a change to the
program cannot move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
from scipy.signal import correlate2d

# Seconds one kernel run takes, by image (height, width), on the 2-vCPU Xeon
# host the bounds were set on (numpy 2.4, OpenBLAS 0.3.31) when it is lightly
# loaded. They only fix the unit: scaled times read as wall times on that host.
REFERENCE_S = {(1080, 1920): 0.033, (512, 512): 0.0056}
# A sample repeats the kernel for at least MIN_SAMPLE_S, and for at least
# SPAN_SHARE of the interval it brackets, so that it averages the machine's
# speed over a stretch comparable to the interval itself.
MIN_SAMPLE_S = 0.025
SPAN_SHARE = 0.10


class Calibration:
    def __init__(self, height: int, width: int):
        self.reference_s = REFERENCE_S[(height, width)]
        rng = np.random.default_rng(20141114)
        self._image = rng.random((height, width))
        self._weights = rng.random((height, width))
        rows = height // 4
        self._ys = np.clip(np.arange(rows)[:, None] + rng.integers(-3, 4, (rows, width)), 0, height - 1)
        self._xs = np.clip(np.arange(width)[None, :] + rng.integers(-3, 4, (rows, width)), 0, width - 1)
        self._region = rng.random((56, 56))
        self._kernel = rng.random((40, 40))
        self.samples = []  # seconds per kernel run, one entry per sample
        for _ in range(3):  # the first runs pay for page faults and cold caches
            self._run()

    def _run(self) -> None:
        image, w = self._image, self._weights
        np.cumsum(np.cumsum(image, axis=0), axis=1)
        image[self._ys, self._xs]
        blended = image * (1.0 - w) + image[::-1] * w
        bool(np.all(np.isfinite(blended)))
        for _ in range(3):
            correlate2d(self._region, self._kernel, mode="valid")

    def sample(self, span_s: float = 0.0) -> float:
        """Time the kernel next to an interval of about ``span_s`` seconds;
        record and return the seconds per kernel run."""
        target = max(MIN_SAMPLE_S, SPAN_SHARE * span_s)
        runs = 0
        start = perf_counter()
        while True:
            self._run()
            runs += 1
            elapsed = perf_counter() - start
            if elapsed >= target:
                break
        self.samples.append(elapsed / runs)
        return self.samples[-1]

    def scale(self, before: float, after: float) -> float:
        """Factor that turns a wall time measured between two samples into
        reference-speed time."""
        return self.reference_s / statistics.fmean((before, after))
