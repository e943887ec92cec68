"""Correctness checks: per-frame output checks and the set-up oracle spot-check.

Frame checks read only what ``nccalign align`` wrote; ground truth comes
from the benchmark's own generated inputs. The oracle spot-check compares
each accelerated kernel with its direct reference at the workload's real
image size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

# Largest |C_fast - C_reference| accepted by the oracle spot-check.
ORACLE_TOL = 1e-9
ORACLE_BLOCKS = 3
PGM_OUTPUTS = ("disparity_x.pgm", "disparity_y.pgm", "aligned.pgm")


def grid_shape(width: int, height: int, block: int, crop: float) -> tuple[int, int, int, int]:
    """(rows, cols, margin_x, margin_y) of the block grid ``align`` partitions into."""
    margin_x = int(math.floor(crop / 2 * width))
    margin_y = int(math.floor(crop / 2 * height))
    return ((height - 2 * margin_y) // block, (width - 2 * margin_x) // block, margin_x, margin_y)


def block_truth(truth, width, height, block, crop) -> np.ndarray:
    """Ground-truth (du, dv) at each block's centre pixel, shape (rows, cols, 2)."""
    rows, cols, mx, my = grid_shape(width, height, block, crop)
    ys = my + np.arange(rows) * block + block // 2
    xs = mx + np.arange(cols) * block + block // 2
    return np.stack([truth.du[np.ix_(ys, xs)], truth.dv[np.ix_(ys, xs)]], axis=-1)


def csv_body(path: Path) -> tuple[list[str], list[list[str]]]:
    """Column names and data rows of an ``nccalign`` CSV, header comments skipped."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


@dataclass
class FrameCheck:
    failures: list[str] = field(default_factory=list)
    match_rate: float = 0.0
    corr_after: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def check_frame(exit_code, out: Path, truth: np.ndarray, match_floor: float,
                seen: dict, key) -> FrameCheck:
    """Check one ``align`` frame's outputs.

    ``truth`` is the per-block ground truth; ``seen`` maps a (input, config)
    key to the CSV bodies of the first frame that ran it, so a repeat must
    reproduce them byte for byte.
    """
    check = FrameCheck()
    if exit_code != 0:
        check.failures.append(f"exit code {exit_code}")
        return check
    try:
        disparity = (out / "disparity.csv").read_bytes()
        metrics = (out / "metrics.csv").read_bytes()
        columns, rows = csv_body(out / "disparity.csv")
        metric_columns, (metric_row,) = csv_body(out / "metrics.csv")
    except (OSError, ValueError) as exc:
        check.failures.append(f"unreadable output: {exc}")
        return check
    missing = [name for name in PGM_OUTPUTS if not (out / name).is_file()]
    if missing:
        check.failures.append(f"missing outputs {missing}")

    n_rows, n_cols = truth.shape[:2]
    if len(rows) != n_rows * n_cols:
        check.failures.append(f"disparity.csv has {len(rows)} rows, expected {n_rows * n_cols}")
    else:
        col = {name: i for i, name in enumerate(columns)}
        hits = 0
        for row in rows:
            r, c = int(row[col["block_row"]]), int(row[col["block_col"]])
            if (row[col["status"]] == "valid"
                    and float(row[col["du"]]) == truth[r, c, 0]
                    and float(row[col["dv"]]) == truth[r, c, 1]):
                hits += 1
        check.match_rate = hits / len(rows)
        if check.match_rate < match_floor:
            check.failures.append(f"match_rate {check.match_rate:.4f} below floor {match_floor}")

    scores = dict(zip(metric_columns, metric_row))
    corr_before, check.corr_after = float(scores["corr_before"]), float(scores["corr_after"])
    if not check.corr_after > corr_before:
        check.failures.append(f"corr_after {check.corr_after} not above corr_before {corr_before}")

    bodies = tuple(_strip_header(blob) for blob in (disparity, metrics))
    first = seen.setdefault(key, bodies)
    if first != bodies:
        check.failures.append("repeated input and config gave different CSV bodies")
    return check


def _strip_header(blob: bytes) -> bytes:
    return b"".join(line for line in blob.splitlines(keepends=True) if not line.startswith(b"#"))


@dataclass
class OracleReport:
    blocks: int = 0
    full_mismatch: int = 0
    diag_mismatch: int = 0
    stream_agree: int = 0
    full_fast_multiplies: int = 0
    diag_fast_multiplies: int = 0
    full_fast_s: float = 0.0
    diag_fast_s: float = 0.0

    @property
    def failed(self) -> bool:
        return self.full_mismatch > 0 or self.diag_mismatch > 0

    def as_dict(self) -> dict:
        return {
            "blocks": self.blocks,
            "ncc_full_fast_vs_naive_mismatch": self.full_mismatch,
            "ncc_diag_fast_vs_diag_mismatch": self.diag_mismatch,
            "stream_vs_diag_argmax_agree": self.stream_agree,
            "multiply_ratio_full_fast_over_diag_fast": self.multiply_ratio,
            "wall_ratio_full_fast_over_diag_fast": self.wall_ratio,
        }

    @property
    def multiply_ratio(self) -> float:
        return self.full_fast_multiplies / self.diag_fast_multiplies

    @property
    def wall_ratio(self) -> float:
        return self.full_fast_s / self.diag_fast_s


def _same_map(fast, reference) -> bool:
    if not np.array_equal(fast.validity, reference.validity):
        return False
    return float(np.max(np.abs(fast.values - reference.values))) <= ORACLE_TOL


def _argmax(best):
    return None if best is None else (best.du, best.dv)


def oracle_spot_check(nccalign, template, reference, block, crop, radius, seed) -> OracleReport:
    """Fast kernels against their direct references on a few seeded blocks.

    ``ncc_full_fast`` must equal ``ncc_full_naive`` and ``ncc_diag_fast`` must
    equal ``ncc_diag``: identical validity maps and max |dC| <= ORACLE_TOL.
    The noiseless ``ncc_stream`` argmax is compared with ``ncc_diag``'s and
    only reported, since streaming mean removal is an approximation. The two
    fast kernels run on the same blocks, so their multiply counts and wall
    times give the D:1 cost-model ratio next to the measured one.
    """
    ncc, diagonal, streaming = nccalign.ncc, nccalign.diagonal, nccalign.streaming
    height, width = reference.shape
    rows, cols, mx, my = grid_shape(width, height, block, crop)
    picks = np.random.default_rng([seed, 0x0AC1E]).choice(rows * cols, ORACLE_BLOCKS, replace=False)
    shifts = ncc.ShiftRange(-radius, radius, -radius, radius)
    sum_tables = ncc.build_sum_tables(reference)
    diag_tables = diagonal.build_diag_tables(reference)
    noiseless = streaming.NoiseModel()

    report = OracleReport(blocks=len(picks))
    full_counter, diag_counter = ncc.OpCounter(), ncc.OpCounter()
    for pick in picks:
        row, col = divmod(int(pick), cols)
        origin = (mx + col * block, my + row * block)
        tile = template[origin[1]:origin[1] + block, origin[0]:origin[0] + block]

        start = perf_counter()
        full_fast = ncc.ncc_full_fast(tile, reference, origin, shifts, sum_tables, counter=full_counter)
        report.full_fast_s += perf_counter() - start
        full_naive = ncc.ncc_full_naive(tile, reference, origin, shifts)
        report.full_mismatch += not _same_map(full_fast, full_naive)

        start = perf_counter()
        diag_fast = diagonal.ncc_diag_fast(tile, reference, origin, shifts, diag_tables,
                                           counter=diag_counter)
        report.diag_fast_s += perf_counter() - start
        diag_direct = diagonal.ncc_diag(tile, reference, origin, shifts)
        report.diag_mismatch += not _same_map(diag_fast, diag_direct)

        stream = streaming.ncc_stream(tile, reference, origin, shifts, noise=noiseless,
                                      tables=diag_tables, block_id=int(pick))
        report.stream_agree += (_argmax(ncc.best_shift(stream))
                                == _argmax(ncc.best_shift(diag_direct)))
    report.full_fast_multiplies = full_counter.multiplies
    report.diag_fast_multiplies = diag_counter.multiplies
    return report
