"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria 4, 5 and 8 run the experiment set's `bench`, `align` and
`noise-sweep` (scripts/run_experiments.py) through the CLI and read what they
write or print; 6 and 7 share the session-scoped 512x512 quadrant pair fixture.
"""

import time

import numpy as np
import pytest

from nccalign import (
    NoiseModel,
    ShiftRange,
    build_diag_tables,
    build_sum_tables,
    estimate_disparity,
    ncc_diag,
    ncc_diag_fast,
    ncc_full_fast,
    ncc_full_naive,
    power_budget,
    scale_intensity,
)
from nccalign import dynamic_range_to_noise
from nccalign.cli import main as cli_main
from nccalign.ncc import OpCounter
from run_experiments import ALIGN, PAPER

from conftest import csv_body, csv_rows, random_image


def report(num: int, description: str, passed: bool) -> None:
    print(f"\nACCEPTANCE {num:02d} [{'PASS' if passed else 'FAIL'}] {description}")
    assert passed, f"criterion {num}: {description}"


def test_criterion_1_full_fast_equals_naive():
    start = time.perf_counter()
    worst = 0.0
    shifts = ShiftRange.symmetric(8)
    for case in range(100):
        ref = random_image(7000 + case, 48, 48)
        block = random_image(8000 + case, 16, 16)
        tables = build_sum_tables(ref)
        naive = ncc_full_naive(block, ref, (16, 16), shifts)
        fast = ncc_full_fast(block, ref, (16, 16), shifts, tables)
        assert np.array_equal(naive.validity, fast.validity)
        worst = max(worst, float(np.abs(naive.values - fast.values).max()))
    elapsed = time.perf_counter() - start
    report(1, f"full-fast vs naive max|dC|={worst:.2e} (<=1e-9), {elapsed:.1f}s (<10s)",
           worst <= 1e-9 and elapsed < 10.0)


def test_criterion_2_diag_fast_equals_diag():
    worst = 0.0
    shifts = ShiftRange.symmetric(4)
    for case in range(100):
        ref = random_image(9000 + case, 32, 32)
        block = random_image(10_000 + case, 8, 8)
        orientation = "main" if case % 2 == 0 else "anti"
        tables = build_diag_tables(ref, orientation)
        slow = ncc_diag(block, ref, (12, 12), shifts, orientation)
        fast = ncc_diag_fast(block, ref, (12, 12), shifts, tables)
        assert np.array_equal(slow.validity, fast.validity)
        worst = max(worst, float(np.abs(slow.values - fast.values).max()))

    img = random_image(11_000, 32, 32)
    worst_var = 0.0
    d = 8
    k = np.arange(d)
    for orientation, rows in (("main", k), ("anti", d - 1 - k)):
        tables = build_diag_tables(img, orientation)
        for y0 in range(32 - d):
            for x0 in range(32 - d):
                samples = img[y0 + rows, x0 + k]
                direct = float(np.sum((samples - samples.mean()) ** 2))
                table = float(tables.window_var_sum(x0, y0, d))
                worst_var = max(worst_var, abs(table - direct))
    report(2, f"diag-fast vs diag max|dC|={worst:.2e} (<=1e-9); table variance err={worst_var:.2e} (<=1e-12)",
           worst <= 1e-9 and worst_var <= 1e-12)


@pytest.mark.parametrize("d,ref_side", [(128, 192), (16, 48)])
def test_criterion_3_cost_ratio_is_block_side(d, ref_side):
    ref = random_image(12_000 + d, ref_side, ref_side)
    origin = ((ref_side - d) // 2, (ref_side - d) // 2)
    block = ref[origin[1]:origin[1] + d, origin[0]:origin[0] + d].copy()
    shifts = ShiftRange.symmetric(2)
    full_counter, diag_counter = OpCounter(), OpCounter()
    ncc_full_fast(block, ref, origin, shifts, build_sum_tables(ref), counter=full_counter)
    ncc_diag_fast(block, ref, origin, shifts, build_diag_tables(ref), counter=diag_counter)
    full_per_shift = full_counter.multiplies // full_counter.shifts
    diag_per_shift = diag_counter.multiplies // diag_counter.shifts
    ratio = full_per_shift // diag_per_shift
    report(3, f"numerator multiplies per shift: full={full_per_shift} diag={diag_per_shift} ratio={ratio} (== {d})",
           full_per_shift == d * d and diag_per_shift == d and ratio == d
           and full_per_shift % diag_per_shift == 0)


def test_criterion_4_wall_clock_speedup(tmp_path):
    start = time.perf_counter()
    assert cli_main(["bench", *PAPER, "--runs", "5", "--out", str(tmp_path)]) == 0
    rows = {row["method"]: row for row in csv_rows(tmp_path / "bench.csv")}
    seconds = {method: float(row["wall_ms_median"]) / 1000.0 for method, row in rows.items()}
    speedup = float(rows["diag-fast"]["speedup_vs_full_fast"])
    elapsed = time.perf_counter() - start
    report(4, f"1080x1920 block128 +/-16: full-fast={seconds['full-fast']:.2f}s "
              f"diag-fast={seconds['diag-fast']:.2f}s speedup={speedup:.1f}x (>=2.0), total {elapsed:.0f}s (<300s)",
           speedup >= 2.0 and elapsed < 300.0)


def test_criterion_5_ground_truth_recovery(tmp_path, capsys):
    assert cli_main(["align", *ALIGN, "--method", "diag", "--out", str(tmp_path)]) == 0
    rate = float(dict(item.split("=") for item in capsys.readouterr().out.split())["match_rate"])
    metrics, = csv_rows(tmp_path / "metrics.csv")
    before, after = float(metrics["corr_before"]), float(metrics["corr_after"])
    report(5, f"quadrant pair, diag: match={rate:.3f} (>=0.95); corr {before:.4f} -> {after:.4f} (increases)",
           rate >= 0.95 and after > before)


def test_criterion_6_intensity_invariance(quadrant_pair):
    p = quadrant_pair
    dark = scale_intensity(p["template"], 0.1)
    ok = True
    worst = 0.0
    for method in ("full", "diag"):
        base = estimate_disparity(p["template"], p["reference"], p["grid"], method, p["shifts"])
        scaled = estimate_disparity(dark, p["reference"], p["grid"], method, p["shifts"])
        ok &= np.array_equal(base.du, scaled.du)
        ok &= np.array_equal(base.dv, scaled.dv)
        ok &= np.array_equal(base.status, scaled.status)
        worst = max(worst, float(np.abs(base.coeff - scaled.coeff).max()))
    report(6, f"x0.1 template: full/diag fields bit-identical={ok}, max|dcoeff|={worst:.2e} (<=1e-9)",
           ok and worst <= 1e-9)


def test_criterion_7_streaming_fidelity(quadrant_pair):
    p = quadrant_pair
    f_diag = estimate_disparity(p["template"], p["reference"], p["grid"], "diag", p["shifts"])
    f_stream = estimate_disparity(p["template"], p["reference"], p["grid"], "stream", p["shifts"],
                                  noise=NoiseModel(0.0, 0.0, 0))
    agree = float(np.mean((f_diag.du == f_stream.du) & (f_diag.dv == f_stream.dv)))
    report(7, f"stream (no noise, boxcar L=D) vs diag argmax agreement={agree:.3f} (>=0.90)",
           agree >= 0.90)


def test_criterion_8_noise_robustness(tmp_path):
    argv = ["noise-sweep", *ALIGN, "--fractions", "0.01,0.1,0.2", "--seeds", "10", "--out", str(tmp_path)]
    assert cli_main(argv) == 0
    rows = csv_rows(tmp_path / "noise_sweep.csv")
    fractions = tuple(float(row["multiplier_fraction"]) for row in rows)
    means = [float(row["match_rate_mean"]) for row in rows]
    nonincreasing = means[0] >= means[1] >= means[2]
    report(8, f"stream match rates at mult {fractions}: {[f'{m:.3f}' for m in means]} "
              f"(first >=0.90, nonincreasing)",
           means[0] >= 0.90 and nonincreasing)


def test_criterion_9_dynamic_range_and_power():
    dr_ok = dynamic_range_to_noise(40.0) == 0.01
    budget = power_budget(64)
    rows = {c.name: c for c in budget.components}
    rows_ok = (
        rows["lpf"].quantity == 64 and abs(rows["lpf"].power_mw - 179.2) < 1e-9
        and rows["summer"].quantity == 64 and abs(rows["summer"].power_mw - 35.13) < 1e-9
        and rows["multiplier"].quantity == 32 and abs(rows["multiplier"].power_mw - 0.058) < 1e-9
        and rows["integrator"].quantity == 32 and abs(rows["integrator"].power_mw - 0.768) < 1e-9
    )
    total_ok = abs(budget.total_mw - 215.15) <= 0.01
    report(9, f"dynamic_range(40dB)={dynamic_range_to_noise(40.0)} (==0.01); "
              f"power(64)={budget.total_mw:.3f}mW (215.15+/-0.01), rows match",
           dr_ok and rows_ok and total_ok)


def test_criterion_10_determinism(tmp_path):
    align_args = [
        "align", "--width", "96", "--height", "96", "--pattern", "uniform:2,3",
        "--noise-floor", "0.01", "--gen-seed", "5", "--block", "16", "--crop", "0.0",
        "--search-du=-4:4", "--search-dv=-4:4", "--method", "stream",
        "--noise-mult", "0.05", "--seed", "3",
    ]
    sweep_args = [
        "noise-sweep", "--width", "96", "--height", "96", "--pattern", "uniform:2,3",
        "--noise-floor", "0.01", "--gen-seed", "5", "--block", "16", "--crop", "0.0",
        "--search-du=-4:4", "--search-dv=-4:4", "--fractions", "0.01,0.1", "--seeds", "3",
    ]
    ok = True
    for args, names in (
        (align_args, ("disparity.csv", "metrics.csv")),
        (sweep_args, ("noise_sweep.csv",)),
    ):
        out1 = tmp_path / f"{args[0]}_1"
        out2 = tmp_path / f"{args[0]}_2"
        assert cli_main([*args, "--out", str(out1)]) == 0
        assert cli_main([*args, "--out", str(out2)]) == 0
        for name in names:
            ok &= csv_body(out1 / name) == csv_body(out2 / name)
    report(10, "align and noise-sweep reruns reproduce byte-identical CSV bodies", ok)
