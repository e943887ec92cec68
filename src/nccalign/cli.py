"""Command-line surface: alignment runs, benchmarks, noise sweeps,
robustness runs, the power table, and the synthetic pair generator.

Every output CSV starts with '#'-prefixed UTF-8 header lines that serialize
the flags the run reads; re-running with the same configuration reproduces
the CSV body byte for byte (benchmark wall-clock columns excepted, since
they measure real time). Exit statuses: 0 success, 1 computation error,
2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .alignment import (
    BLOCK_STATUS_NAMES,
    BLOCK_VALID,
    METHODS,
    BlockGrid,
    DenseDisparity,
    DisparityField,
    estimate_disparity,
    fill_invalid,
    global_correlation,
    improvement_percent,
    interpolate_disparity,
    partition_template,
    random_intensity_perturbation,
    scale_intensity,
    warp,
)
from .errors import PgmError, UnalignableError, UndefinedMetricError
from .images import (
    GroundTruth,
    SyntheticSpec,
    load_pgm,
    make_synthetic_stereo,
    quadrant_pattern,
    save_pgm,
    uniform_pattern,
)
from .ncc import OpCounter, ShiftRange
from .streaming import MovingAverageConfig, NoiseModel, power_budget

SCHEMA_VERSION = "v1"
# Flags only --method stream reads; other methods leave them out (robustness's --mode random reads --seed).
STREAM_ONLY = {"align": {"ma", "noise_mult", "noise_int", "seed"},
               "robustness": {"ma", "noise_mult", "noise_int"}}

DEFAULT_PATTERN = "quadrant:3,5:-4,2:6,-7:-2,-6"
DEFAULT_FRACTIONS = "0.01,0.1,0.2"


@dataclass(frozen=True)
class RunConfig:
    """Canonical (flag, value) form of one invocation, for output headers."""

    command: str
    options: tuple[tuple[str, str], ...]

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        unread = STREAM_ONLY[args.command] if getattr(args, "method", "stream") != "stream" else ()
        pairs = []
        for key, value in sorted(vars(args).items()):
            if key in ("func", "command") or key in unread or value is None:
                continue
            flag, text = "--" + key.replace("_", "-"), str(value)
            if "\n" in text or "\r" in text:
                raise ValueError(f"{flag}={text!r}: a line break cannot go in an output header")
            pairs.append((flag, text))
        return cls(command=args.command, options=tuple(pairs))

    def comment_lines(self, schema: str) -> list[str]:
        lines = [f"nccalign {schema}/{SCHEMA_VERSION}", f"command: {self.command}"]
        lines.extend(f"arg: {flag}={value}" for flag, value in self.options)
        return lines


def argv_from_header(path) -> list[str]:
    """Reconstruct the argv that produced an output file from its header."""
    command = None
    flags = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            text = line[1:].strip()
            if text.startswith("command:"):
                command = text.split(":", 1)[1].strip()
            elif text.startswith("arg:"):
                flags.append(text.split(":", 1)[1].strip())
    if command is None:
        raise ValueError(f"no config header found in {path}")
    return [command] + flags


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    if math.isnan(x):
        return "nan"
    return format(x, ".10g")


def _write_csv(path: Path, config: RunConfig, schema: str, columns, rows) -> None:
    with open(path, "w", newline="\n", encoding="utf-8", errors="surrogateescape") as fh:
        for line in config.comment_lines(schema):
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(cell) for cell in row) + "\n")


@contextlib.contextmanager
def _naming(args, *names: str):
    """Re-raise a ValueError from the body prefixed with the flags it read,
    ``--flag=value`` for each of ``names`` that the command sets in ``args``."""
    try:
        yield
    except ValueError as exc:
        flags = " ".join(f"--{name.replace('_', '-')}={_fmt(getattr(args, name))}"
                         for name in names if getattr(args, name, None) is not None)
        raise ValueError(f"{flags}: {exc}") from exc


def _parse_span(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise ValueError(f"must be MIN:MAX with integer bounds, got {text!r}") from exc
    if lo > hi:
        raise ValueError(f"must be MIN:MAX with MIN <= MAX, got {text!r}")
    return lo, hi


def _parse_pattern(text: str, width: int, height: int):
    kind, *rest = text.split(":")
    pairs = []
    for chunk in rest:
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"pattern shift {chunk!r} must be DU,DV")
        pairs.append((int(parts[0]), int(parts[1])))
    if kind == "uniform":
        if len(pairs) != 1:
            raise ValueError("uniform pattern takes exactly one DU,DV pair")
        return uniform_pattern(width, height, *pairs[0])
    if kind == "quadrant":
        if len(pairs) != 4:
            raise ValueError("quadrant pattern takes exactly four DU,DV pairs")
        return quadrant_pattern(width, height, pairs)
    raise ValueError(f"unknown pattern kind {kind!r}, expected uniform or quadrant")


def _load_or_generate(args) -> tuple[np.ndarray, np.ndarray, GroundTruth | None]:
    """File inputs when given, otherwise the deterministic synthetic pair."""
    if args.template or args.reference:
        if not (args.template and args.reference):
            raise ValueError("--template and --reference must be given together")
        for path in (args.template, args.reference):
            if not Path(path).is_file():
                raise FileNotFoundError(f"input image not found: {path}")
        return load_pgm(args.template), load_pgm(args.reference), None
    return make_synthetic_stereo(_synthetic_spec(args))


def _synthetic_spec(args) -> SyntheticSpec:
    with _naming(args, "width", "height", "pattern", "noise_floor", "gen_seed"):
        return SyntheticSpec(
            width=args.width,
            height=args.height,
            regions=_parse_pattern(args.pattern, args.width, args.height),
            texture_seed=args.gen_seed,
            noise_floor=args.noise_floor,
        )


def _shift_range(args) -> ShiftRange:
    radius = max(1, args.block // 8)
    with _naming(args, "search_du"):
        du = _parse_span(args.search_du) if args.search_du else (-radius, radius)
    with _naming(args, "search_dv"):
        dv = _parse_span(args.search_dv) if args.search_dv else (-radius, radius)
    return ShiftRange(du_min=du[0], du_max=du[1], dv_min=dv[0], dv_max=dv[1])


def _block_truth(truth: GroundTruth, grid: BlockGrid) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth shift sampled at each block's center pixel."""
    tdu = np.zeros((grid.rows, grid.cols), dtype=np.int64)
    tdv = np.zeros((grid.rows, grid.cols), dtype=np.int64)
    half = grid.block_size // 2
    for row, col, x0, y0 in grid.origins():
        tdu[row, col], tdv[row, col] = truth.at(x0 + half, y0 + half)
    return tdu, tdv


def match_rate(field: DisparityField, truth: GroundTruth, grid: BlockGrid) -> float:
    """Fraction of blocks whose estimated shift equals the ground truth exactly."""
    tdu, tdv = _block_truth(truth, grid)
    hits = (field.status == BLOCK_VALID) & (field.du == tdu) & (field.dv == tdv)
    return float(hits.mean())


@dataclass
class AlignmentResult:
    grid: BlockGrid
    raw_field: DisparityField
    filled_field: DisparityField
    dense: DenseDisparity
    warped: np.ndarray
    corr_before: float
    corr_after: float
    improvement_pct: float


def run_alignment(template, reference, args, *, noise: NoiseModel | None = None) -> AlignmentResult:
    """The full per-run pipeline: partition, estimate, fill, warp, score.

    Pre/post correlations are both computed over the warp validity mask so
    the improvement metric compares identical pixel sets. The scores need
    equal extents, so unequal ones fail before the estimate. Only ``stream``
    reads ``noise`` and ``args.ma``, as :func:`_stream_noises` parsed it.
    """
    if np.shape(template) != np.shape(reference):
        raise ValueError(f"template {np.shape(template)} and reference {np.shape(reference)} "
                         "extents differ")
    with _naming(args, "block", "crop"):
        grid = partition_template(template, args.block, args.crop)
    shifts = _shift_range(args)
    raw = estimate_disparity(template, reference, grid, args.method, shifts, orientation=args.orientation,
                             ma_config=args.ma if args.method == "stream" else None, noise=noise)
    filled = fill_invalid(raw)
    h, w = template.shape
    dense = interpolate_disparity(filled, grid, extent=(w, h))
    warped, mask = warp(template, dense)
    corr_before, corr_after = global_correlation((template, warped), reference, mask)
    return AlignmentResult(
        grid=grid,
        raw_field=raw,
        filled_field=filled,
        dense=dense,
        warped=warped,
        corr_before=corr_before,
        corr_after=corr_after,
        improvement_pct=improvement_percent(corr_before, corr_after),
    )


def _stream_noises(args, fractions, seeds) -> list[list[NoiseModel]]:
    """Build the stream settings once, before any alignment: parse ``args.ma``
    in place (None: a boxcar of the block) and return the NoiseModel of each
    seed (outer) and multiplier fraction (inner). Errors name their flags."""
    with _naming(args, "ma"):
        args.ma = MovingAverageConfig.parse(args.ma) if args.ma else None
    with _naming(args, "fractions", "noise_mult", "noise_int", "seed"):
        return [[NoiseModel(fraction, args.noise_int, seed) for fraction in fractions] for seed in seeds]


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen(args) -> int:
    config = RunConfig.from_args(args)
    spec = _synthetic_spec(args)
    template, reference, _ = make_synthetic_stereo(spec)
    out = _out_dir(args)
    comments = config.comment_lines("image")
    save_pgm(template, out / "template.pgm", maxval=65535, comments=comments)
    save_pgm(reference, out / "reference.pgm", maxval=65535, comments=comments)
    rows = [
        (r.x0, r.y0, r.width, r.height, r.du, r.dv)
        for r in spec.regions
    ]
    _write_csv(out / "truth.csv", config, "truth",
               ("region_x0", "region_y0", "region_width", "region_height", "du", "dv"), rows)
    print(f"wrote synthetic pair ({args.width}x{args.height}) to {out}")
    return 0


def cmd_align(args) -> int:
    config = RunConfig.from_args(args)
    noise = _stream_noises(args, [args.noise_mult], [args.seed])[0][0] if args.method == "stream" else None
    template, reference, truth = _load_or_generate(args)
    result = run_alignment(template, reference, args, noise=noise)
    out = _out_dir(args)

    rows = []
    filled = result.filled_field
    for row in range(result.grid.rows):
        for col in range(result.grid.cols):
            rows.append((
                row, col,
                filled.du[row, col], filled.dv[row, col],
                filled.coeff[row, col],
                BLOCK_STATUS_NAMES[int(filled.status[row, col])],
            ))
    _write_csv(out / "disparity.csv", config, "block_disparity",
               ("block_row", "block_col", "du", "dv", "coeff", "status"), rows)

    comments = config.comment_lines("image")
    # Each dense map is scaled onto [0, 1] chunk by chunk as it is quantised.
    save_pgm(result.dense.du, out / "disparity_x.pgm", comments=comments, _normalize=True)
    save_pgm(result.dense.dv, out / "disparity_y.pgm", comments=comments, _normalize=True)
    save_pgm(result.warped, out / "aligned.pgm", comments=comments)

    _write_csv(out / "metrics.csv", config, "metrics",
               ("corr_before", "corr_after", "improvement_pct"),
               [(result.corr_before, result.corr_after, result.improvement_pct)])

    summary = (
        f"corr_before={_fmt(result.corr_before)} corr_after={_fmt(result.corr_after)} "
        f"improvement_pct={_fmt(result.improvement_pct)}"
    )
    if truth is not None:
        summary += f" match_rate={_fmt(match_rate(result.raw_field, truth, result.grid))}"
    print(summary)
    return 0


def cmd_bench(args) -> int:
    if args.runs < 1:
        raise ValueError(f"--runs must be >= 1, got {args.runs}")
    config = RunConfig.from_args(args)
    template, reference, _ = _load_or_generate(args)
    with _naming(args, "block", "crop"):
        grid = partition_template(template, args.block, args.crop)
    shifts = _shift_range(args)

    counters = {method: OpCounter() for method in ("full-fast", "diag-fast")}
    for method, counter in counters.items():
        estimate_disparity(template, reference, grid, method, shifts,
                           orientation=args.orientation, counter=counter)  # warmup
        if counter.shifts == 0:
            raise UnalignableError(f"empty search range --search-du={shifts.du_min}:{shifts.du_max} "
                                   f"--search-dv={shifts.dv_min}:{shifts.dv_max}: no block window "
                                   "stays inside the reference")
    # The methods alternate run by run, so host drift lands on both alike.
    timings = {method: [] for method in counters}
    for _ in range(args.runs):
        for method, runs in timings.items():
            start = time.perf_counter()
            estimate_disparity(template, reference, grid, method, shifts,
                               orientation=args.orientation)
            runs.append((time.perf_counter() - start) * 1000.0)

    medians = {method: statistics.median(runs) for method, runs in timings.items()}
    out = _out_dir(args)
    rows = []
    for method, counter in counters.items():
        ms = medians[method]
        rows.append((
            method,
            grid.rows * grid.cols,
            counter.shifts,
            counter.multiplies,
            counter.adds,
            counter.multiplies // counter.shifts,
            ms,
            ms / (grid.rows * grid.cols),
            medians["full-fast"] / ms,
        ))
    columns = ("method", "blocks", "shifts_evaluated", "numerator_multiplies",
               "numerator_adds", "multiplies_per_shift", "wall_ms_median",
               "ms_per_block", "speedup_vs_full_fast")
    _write_csv(out / "bench.csv", config, "bench", columns, rows)

    full, diag = (dict(zip(columns, row)) for row in rows)
    print(f"full-fast={_fmt(full['wall_ms_median'])}ms diag-fast={_fmt(diag['wall_ms_median'])}ms "
          f"speedup={_fmt(diag['speedup_vs_full_fast'])} "
          f"multiply_ratio={full['multiplies_per_shift'] // diag['multiplies_per_shift']}")
    return 0


def cmd_noise_sweep(args) -> int:
    with _naming(args, "fractions"):
        fractions = [float(f) for f in args.fractions.split(",") if f != ""]
    if not fractions:
        raise ValueError(f"--fractions must name at least one fraction, got {args.fractions!r}")
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    config = RunConfig.from_args(args)
    args.method = "stream"  # after the header, so it lists only flags noise-sweep takes
    seeds = [args.seed + i for i in range(args.seeds)]
    noises = _stream_noises(args, fractions, seeds)
    template, reference, truth = _load_or_generate(args)

    # Seeds outer, fractions inner: a seed's noise streams do not depend on
    # the fraction, so its later fractions reuse the draws its first one
    # cached (streaming.DRAW_CACHE_STREAMS bounds the cache).
    corrs_by_fraction = [[] for _ in fractions]
    matches_by_fraction = [[] for _ in fractions]
    for seed_noises in noises:
        for noise, corrs, matches in zip(seed_noises, corrs_by_fraction, matches_by_fraction):
            result = run_alignment(template, reference, args, noise=noise)
            corrs.append(result.corr_after)
            if truth is not None:
                matches.append(match_rate(result.raw_field, truth, result.grid))

    rows = []
    for fraction, corrs, matches in zip(fractions, corrs_by_fraction, matches_by_fraction):
        corrs = np.asarray(corrs)
        match_mean = float(np.mean(matches)) if matches else float("nan")
        match_std = float(np.std(matches)) if matches else float("nan")
        rows.append((
            fraction,
            ";".join(str(s) for s in seeds),
            float(np.mean(corrs)),
            float(np.std(corrs)),
            match_mean,
            match_std,
        ))
    out = _out_dir(args)
    _write_csv(out / "noise_sweep.csv", config, "noise_sweep",
               ("multiplier_fraction", "seeds", "corr_after_mean", "corr_after_std",
                "match_rate_mean", "match_rate_std"), rows)
    for row in rows:
        print(f"fraction={_fmt(row[0])} corr_after_mean={_fmt(row[2])} match_rate_mean={_fmt(row[4])}")
    return 0


def cmd_robustness(args) -> int:
    config = RunConfig.from_args(args)
    noise = _stream_noises(args, [args.noise_mult], [args.seed])[0][0] if args.method == "stream" else None
    template, reference, truth = _load_or_generate(args)
    if args.parameter is None:
        parameter = 0.1 if args.mode == "uniform" else 0.5
    else:
        parameter = args.parameter

    # A default parameter is valid, so the flags named are those given.
    with _naming(args, "mode", "parameter", *(("seed",) if args.mode == "random" else ())):
        if args.mode == "uniform":
            perturbed = scale_intensity(template, parameter)
        else:
            perturbed = random_intensity_perturbation(template, args.seed, parameter)
    baseline = run_alignment(template, reference, args, noise=noise)
    run = run_alignment(perturbed, reference, args, noise=noise)

    def _rate(result):
        if truth is None:
            return float("nan")
        return match_rate(result.raw_field, truth, result.grid)

    fields_equal = int(
        np.array_equal(run.raw_field.du, baseline.raw_field.du)
        and np.array_equal(run.raw_field.dv, baseline.raw_field.dv)
        and np.array_equal(run.raw_field.status, baseline.raw_field.status)
    )
    rows = [
        ("none", 0.0, baseline.corr_before, baseline.corr_after,
         baseline.improvement_pct, _rate(baseline), 1),
        (args.mode, parameter, run.corr_before, run.corr_after,
         run.improvement_pct, _rate(run), fields_equal),
    ]
    out = _out_dir(args)
    _write_csv(out / "robustness.csv", config, "robustness",
               ("mode", "parameter", "corr_before", "corr_after", "improvement_pct",
                "match_rate", "field_equals_baseline"), rows)
    print(f"mode={args.mode} parameter={_fmt(parameter)} "
          f"corr_after={_fmt(run.corr_after)} field_equals_baseline={fields_equal}")
    return 0


def cmd_power(args) -> int:
    config = RunConfig.from_args(args)
    with _naming(args, "channels"):
        budget = power_budget(args.channels)
    header = f"{'component':<12}{'quantity':>10}{'unit_mW':>12}{'power_mW':>12}"
    print(header)
    rows = []
    for comp in budget.components:
        print(f"{comp.name:<12}{comp.quantity:>10}{comp.unit_power_mw:>12.6g}{comp.power_mw:>12.6g}")
        rows.append((comp.name, comp.quantity, comp.unit_power_mw, comp.power_mw))
    print(f"{'total':<12}{'':>10}{'':>12}{budget.total_mw:>12.6g}")
    rows.append(("total", "", "", budget.total_mw))
    out = _out_dir(args)
    _write_csv(out / "power.csv", config, "power",
               ("component", "quantity", "unit_power_mw", "power_mw"), rows)
    return 0


def _add_synthetic_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--width", type=int, default=512, help="synthetic image width")
    parser.add_argument("--height", type=int, default=512, help="synthetic image height")
    parser.add_argument("--pattern", default=DEFAULT_PATTERN,
                        help="ground-truth pattern: uniform:DU,DV or quadrant:DU,DV:DU,DV:DU,DV:DU,DV")
    parser.add_argument("--noise-floor", dest="noise_floor", type=float, default=0.01,
                        help="standard deviation, in [0, 1], of the noise added to the synthetic template")
    parser.add_argument("--gen-seed", dest="gen_seed", type=int, default=7,
                        help="texture seed for the synthetic pair")


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--template", default=None, help="template PGM path (default: synthetic)")
    parser.add_argument("--reference", default=None, help="reference PGM path (default: synthetic)")


def _add_search_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--block", type=int, default=128, help="square block size in pixels")
    parser.add_argument("--crop", type=float, default=0.10,
                        help="total cropped fraction of the template per axis")
    parser.add_argument("--search-du", dest="search_du", default=None,
                        help="horizontal shift range MIN:MAX (default +/- block/8)")
    parser.add_argument("--search-dv", dest="search_dv", default=None,
                        help="vertical shift range MIN:MAX (default +/- block/8)")
    parser.add_argument("--orientation", choices=("main", "anti"), default="main")


def _add_stream_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ma", default=None,
                        help="moving average for the stream method: boxcar:L or pole:ALPHA (default boxcar:block)")
    parser.add_argument("--noise-int", dest="noise_int", type=float, default=0.20,
                        help="integrator noise fraction for the stream method")
    parser.add_argument("--seed", type=int, default=0, help="noise / perturbation seed")


def _add_align_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", choices=METHODS, default="diag-fast")
    _add_search_flags(parser)
    _add_stream_flags(parser)
    parser.add_argument("--noise-mult", dest="noise_mult", type=float, default=0.0,
                        help="multiplier noise fraction for the stream method")


def _add_out_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="out", help="output directory")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each `add_argument`
    makes a help formatter that queries the terminal size. The commands look
    up the module's names when they run, so rebinding one still takes
    effect."""
    parser = argparse.ArgumentParser(
        prog="nccalign",
        description="Stereo alignment with full, diagonal, and streaming NCC variants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic stereo pair and its ground truth")
    _add_synthetic_flags(p)
    _add_out_flag(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("align", help="align a stereo pair and report metrics")
    _add_input_flags(p)
    _add_synthetic_flags(p)
    _add_align_flags(p)
    _add_out_flag(p)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("bench", help="time full-fast vs diag-fast and count operations")
    _add_input_flags(p)
    _add_synthetic_flags(p)
    _add_search_flags(p)
    p.add_argument("--runs", type=int, default=5, help="timed runs per method (after one warmup)")
    _add_out_flag(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("noise-sweep", help="stream alignment across multiplier noise fractions")
    _add_input_flags(p)
    _add_synthetic_flags(p)
    _add_search_flags(p)
    _add_stream_flags(p)
    p.add_argument("--fractions", default=DEFAULT_FRACTIONS,
                   help="comma-separated multiplier noise fractions")
    p.add_argument("--seeds", type=int, default=10, help="number of seeds per fraction")
    _add_out_flag(p)
    p.set_defaults(func=cmd_noise_sweep)

    p = sub.add_parser("robustness", help="align after an intensity perturbation")
    _add_input_flags(p)
    _add_synthetic_flags(p)
    _add_align_flags(p)
    p.add_argument("--mode", choices=("uniform", "random"), default="uniform")
    p.add_argument("--parameter", type=float, default=None,
                   help="scale factor (uniform) or amplitude (random); defaults 0.1 / 0.5")
    _add_out_flag(p)
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("power", help="analog power budget table")
    p.add_argument("--channels", type=int, default=64, help="analog channel count (even)")
    _add_out_flag(p)
    p.set_defaults(func=cmd_power)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UnalignableError, UndefinedMetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PgmError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
