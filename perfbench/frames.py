"""The benchmark proper: set-up, the timed loop of frames, and the result.

Imported by run.py once ``nccalign`` (and with it numpy and scipy) is loaded.
"""

from __future__ import annotations

import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy
import scipy

from calibration import Calibration
from checks import block_truth, check_frame, oracle_spot_check
from spans import COMMON_SPANS, Tracer, TraceError

QUADRANT_SHIFTS = ((3, 5), (-4, 2), (6, -7), (-2, -6))
NOISE_FLOOR = 0.01
# Lowest per-frame match_rate accepted. At the seed commit the lowest
# per-frame value over ten seeds of every workload was well above it (see
# README.md).
MATCH_FLOOR = 0.90
# Set-up runs this many times per run; setup_s reports the median.
SETUP_REPS = 3
# Every run times at least this many frames, so the quality metrics and the
# traced/untraced comparison always have samples.
MIN_FRAMES = 4
# match_rate and corr_after average the first frames only, so they do not
# depend on how many frames a run's time allows.
QUALITY_FRAMES = 3

KERNEL_SPANS = {
    "diag-fast": ("diagonal.build_diag_tables", "diagonal.ncc_diag_fast"),
    "stream": ("diagonal.build_diag_tables", "streaming.ncc_stream"),
}


@dataclass
class Pair:
    pair_id: int
    template_path: Path
    reference_path: Path
    truth: numpy.ndarray  # per-block ground truth, (rows, cols, 2)


@dataclass
class Frame:
    seconds: float  # wall time
    traced: bool
    match_rate: float
    corr_after: float
    scale: float = 1.0  # calibration factor to reference machine speed

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * self.scale


class Bench:
    def __init__(self, nccalign, workload, seed: int, run_dir: Path, trace: bool):
        self.nccalign = nccalign
        self.wl = workload
        self.seed = seed
        self.inputs = run_dir / "in"
        self.out = run_dir / "out"
        self.inputs.mkdir(parents=True)
        self.out.mkdir()
        self.tracer = Tracer(nccalign) if trace else None
        self.calibration = Calibration(workload.height, workload.width)
        self.seen = {}
        self.failures = []

    def make_pair(self, pair_id: int):
        """Generate pair ``pair_id`` from the workload seed and write it as PGMs."""
        images = self.nccalign.images
        wl = self.wl
        spec = images.SyntheticSpec(
            width=wl.width, height=wl.height,
            regions=images.quadrant_pattern(wl.width, wl.height, QUADRANT_SHIFTS),
            texture_seed=self.seed * 100_000 + pair_id, noise_floor=NOISE_FLOOR,
        )
        template, reference, truth = images.make_synthetic_stereo(spec)
        pair = Pair(pair_id, self.inputs / f"pair{pair_id}-template.pgm",
                    self.inputs / f"pair{pair_id}-reference.pgm",
                    block_truth(truth, wl.width, wl.height, wl.block, wl.crop))
        images.save_pgm(template, pair.template_path, maxval=65535)
        images.save_pgm(reference, pair.reference_path, maxval=65535)
        return pair, template, reference

    def run_frame(self, pair: Pair, frame: int, traced: bool) -> Frame:
        for stale in self.out.iterdir():
            stale.unlink()
        flags = self.wl.flags(frame, self.seed)
        argv = ["align", "--template", str(pair.template_path),
                "--reference", str(pair.reference_path), *flags, "--out", str(self.out)]
        scope = self.tracer.frame_scope(frame) if traced else nullcontext()
        with scope, redirect_stdout(io.StringIO()):
            start = perf_counter()
            try:
                code = self.nccalign.cli.main(argv)
            except Exception:  # a crashed frame is a failed frame; keep measuring
                traceback.print_exc()
                code = "exception"
            seconds = perf_counter() - start
        check = check_frame(code, self.out, pair.truth, MATCH_FLOOR, self.seen,
                            (pair.pair_id, flags))
        if not check.ok:
            self.failures.append({"pair": pair.pair_id, "frame": frame, "why": check.failures})
            print(f"frame {frame} (pair {pair.pair_id}) failed: {'; '.join(check.failures)}",
                  file=sys.stderr)
        return Frame(seconds, traced, check.match_rate, check.corr_after)

    def setup(self):
        """Write the first pair, run one warm-up frame on it and the oracle."""
        pair, template, reference = self.make_pair(0)
        self.run_frame(pair, 0, traced=False)
        oracle = oracle_spot_check(self.nccalign, template, reference,
                                   self.wl.block, self.wl.crop, self.wl.radius, self.seed)
        return pair, oracle

    def measure(self, pair: Pair, seconds: float) -> list[Frame]:
        """Closed loop of frames for ``seconds``; in a traced run every other
        frame is traced, so both halves see the same machine conditions."""
        frames = []
        marks = []  # calibration sample taken just before each frame, and one after the last
        start = perf_counter()
        while len(frames) < MIN_FRAMES or perf_counter() - start < seconds:
            index = len(frames)
            if self.wl.fresh_pairs:
                previous = pair
                pair, _, _ = self.make_pair(index + 1)
                previous.template_path.unlink()
                previous.reference_path.unlink()
            marks.append(self.calibration.sample(frames[-1].seconds if frames else 0.0))
            frames.append(self.run_frame(pair, index, traced=self.tracer is not None and index % 2 == 0))
        marks.append(self.calibration.sample(frames[-1].seconds))
        for frame, before, after in zip(frames, marks, marks[1:]):
            frame.scale = self.calibration.scale(before, after)
        return frames


def environment(seed: int, workload) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 only prints its config
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            numpy.show_config()
        blas = buffer.getvalue()
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "workload_seed": seed,
        "input": {"width": workload.width, "height": workload.height,
                  "block": workload.block, "crop": workload.crop,
                  "search_radius": workload.radius, "method": workload.method},
    }


def run(nccalign, wl, args, import_s: float, root: Path) -> int:
    """Set up, measure and report one run; returns the exit status."""
    run_dir = root / ".perfbench-work" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    bench = Bench(nccalign, wl, args.seed, run_dir, trace=bool(args.trace))
    calibration = bench.calibration
    try:
        before = calibration.sample()
        setup_reps = []
        scaled_reps = []
        for _ in range(SETUP_REPS):
            start = perf_counter()
            pair, oracle = bench.setup()
            setup_reps.append(perf_counter() - start)
            after = calibration.sample(setup_reps[-1])
            scaled_reps.append(setup_reps[-1] * calibration.scale(before, after))
            before = after
        # The import ran before the calibration existed; scale it by the
        # median speed seen over set-up.
        speed = statistics.median(calibration.samples)
        setup_s = [import_s * calibration.scale(speed, speed)] + scaled_reps
        frames = bench.measure(pair, args.seconds)
        if bench.tracer is not None:
            bench.tracer.require(COMMON_SPANS + KERNEL_SPANS[wl.method], wl.name)
            bench.tracer.write_spans(run_dir / "spans.jsonl")
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(bench.inputs, ignore_errors=True)
        shutil.rmtree(bench.out, ignore_errors=True)

    attempted = SETUP_REPS + len(frames)
    failed = len(bench.failures)
    correct = failed == 0 and not oracle.failed
    if oracle.failed:
        print(f"error: oracle spot-check mismatch: {oracle.as_dict()}", file=sys.stderr)

    untraced = [f.scaled_seconds for f in frames if not f.traced]
    quality = frames[:QUALITY_FRAMES]
    end_to_end = {
        "frames_per_s": (len(untraced) / sum(untraced), "1/s"),
        "frame_ms_p50": (statistics.median(untraced) * 1000.0, "ms"),
        "setup_s": (setup_s[0] + statistics.median(setup_s[1:]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "match_rate": (statistics.fmean(f.match_rate for f in quality), "ratio"),
        "corr_after": (statistics.fmean(f.corr_after for f in quality), "ratio"),
        "pass_rate": ((attempted - failed) / attempted, "ratio"),
    }
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed, wl),
        "frames_per_run": len(frames),
        "setup": {"import_s": import_s, "reps_s": setup_reps, "scaled_s": setup_s},
        "frame_ms": [f.seconds * 1000.0 for f in frames],
        "frame_scale": [f.scale for f in frames],
        "frame_traced": [f.traced for f in frames],
        "frame_match_rate": [f.match_rate for f in frames],
        "calibration_s": calibration.samples,
        "oracle": oracle.as_dict(), "failures": bench.failures,
    }
    if bench.tracer is None:
        metrics = end_to_end
    else:
        traced = [f.scaled_seconds for f in frames if f.traced]
        metrics = bench.tracer.layer_metrics()
        metrics.update({
            "ncc.oracle_mismatch": (oracle.full_mismatch, "count"),
            "diagonal.oracle_mismatch": (oracle.diag_mismatch, "count"),
            "streaming.oracle_agree_ratio": (oracle.stream_agree / oracle.blocks, "ratio"),
            "oracle.ncc_full_fast_ms": (1000.0 * oracle.full_fast_s / oracle.blocks, "ms"),
            "oracle.ncc_diag_fast_ms": (1000.0 * oracle.diag_fast_s / oracle.blocks, "ms"),
            "oracle.multiply_ratio": (oracle.multiply_ratio, "ratio"),
            "oracle.wall_ratio": (oracle.wall_ratio, "ratio"),
            "trace.overhead_pct": (100.0 * (1.0 - statistics.fmean(untraced)
                                            / statistics.fmean(traced)), "%"),
        })
        record["end_to_end_untraced_frames"] = {k: v for k, (v, _) in end_to_end.items()}
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    (run_dir / "results.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload={wl.name} seed={args.seed} frames={len(frames)} setup_reps={SETUP_REPS} "
          f"nproc={record['environment']['nproc']} "
          f"results={run_dir.relative_to(root) / 'results.json'}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1
