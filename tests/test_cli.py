import numpy as np
import pytest

from nccalign import load_pgm
from nccalign.cli import argv_from_header, main


def csv_body(path):
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def csv_rows(path):
    body = csv_body(path)
    header = body[0].split(",")
    return [dict(zip(header, line.split(","))) for line in body[1:]]


SMALL_PAIR = [
    "--width", "96", "--height", "96", "--pattern", "uniform:2,3",
    "--noise-floor", "0.0", "--gen-seed", "5",
]
SMALL_ALIGN = SMALL_PAIR + [
    "--block", "16", "--crop", "0.0", "--search-du=-4:4", "--search-dv=-4:4",
]


class TestGen:
    def test_writes_pair_and_truth(self, tmp_path):
        out = tmp_path / "gen"
        assert main(["gen", *SMALL_PAIR, "--out", str(out)]) == 0
        template = load_pgm(out / "template.pgm")
        reference = load_pgm(out / "reference.pgm")
        assert template.shape == (96, 96)
        assert reference.shape == (96, 96)
        rows = csv_rows(out / "truth.csv")
        assert rows[0]["du"] == "2"
        assert rows[0]["dv"] == "3"


class TestAlign:
    def test_outputs_and_schema(self, tmp_path):
        out = tmp_path / "align"
        assert main(["align", *SMALL_ALIGN, "--method", "diag", "--out", str(out)]) == 0
        for name in ("disparity.csv", "metrics.csv", "aligned.pgm", "disparity_x.pgm", "disparity_y.pgm"):
            assert (out / name).exists()
        body = csv_body(out / "disparity.csv")
        assert body[0] == "block_row,block_col,du,dv,coeff,status"
        rows = csv_rows(out / "disparity.csv")
        assert len(rows) == 36
        assert all(r["status"] in ("valid", "interpolated", "invalid") for r in rows)

    def test_identical_images_give_unit_correlation(self, tmp_path):
        gen_dir = tmp_path / "gen"
        main(["gen", *SMALL_PAIR, "--out", str(gen_dir)])
        out = tmp_path / "align"
        code = main([
            "align",
            "--template", str(gen_dir / "template.pgm"),
            "--reference", str(gen_dir / "template.pgm"),
            "--block", "16", "--crop", "0.0", "--method", "diag",
            "--out", str(out),
        ])
        assert code == 0
        row = csv_rows(out / "metrics.csv")[0]
        assert float(row["corr_before"]) == 1.0
        assert float(row["corr_after"]) == 1.0
        assert float(row["improvement_pct"]) == 0.0

    def test_synthetic_quadrant_alignment_improves_correlation(self, tmp_path):
        out = tmp_path / "quad"
        code = main([
            "align", "--width", "256", "--height", "256",
            "--pattern", "quadrant:2,3:-3,1:4,-2:-1,-4", "--noise-floor", "0.01",
            "--gen-seed", "5", "--block", "32", "--crop", "0.0",
            "--search-du=-4:4", "--search-dv=-4:4", "--method", "diag",
            "--out", str(out),
        ])
        assert code == 0
        row = csv_rows(out / "metrics.csv")[0]
        assert float(row["corr_after"]) > float(row["corr_before"])

    def test_missing_input_exits_2_naming_path(self, tmp_path, capsys):
        code = main([
            "align", "--template", str(tmp_path / "nope.pgm"),
            "--reference", str(tmp_path / "nope.pgm"), "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "nope.pgm" in err
        assert err.count("\n") == 1

    def test_bad_crop_exits_2(self, tmp_path, capsys):
        code = main(["align", *SMALL_PAIR, "--crop", "0.5", "--block", "16", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "crop" in capsys.readouterr().err

    def test_flat_pair_unalignable_exits_1(self, tmp_path, capsys):
        # all-flat synthetic: noise floor 0 over a zero-texture pattern is
        # impossible via gen, so use a flat PGM pair on disk.
        from nccalign import save_pgm
        flat = tmp_path / "flat.pgm"
        save_pgm(np.full((64, 64), 0.5), flat)
        code = main([
            "align", "--template", str(flat), "--reference", str(flat),
            "--block", "16", "--crop", "0.0", "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "valid" in capsys.readouterr().err


class TestDeterminism:
    def test_rerun_reproduces_csv_bodies(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        argv = ["align", *SMALL_ALIGN, "--method", "stream", "--noise-mult", "0.05", "--seed", "3"]
        assert main([*argv, "--out", str(out1)]) == 0
        assert main([*argv, "--out", str(out2)]) == 0
        for name in ("disparity.csv", "metrics.csv"):
            assert csv_body(out1 / name) == csv_body(out2 / name)
        # PGM headers carry the config (including --out); payloads must match
        a1, a2 = load_pgm(out1 / "aligned.pgm"), load_pgm(out2 / "aligned.pgm")
        assert a1.tobytes() == a2.tobytes()

    def test_header_round_trip(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["align", *SMALL_ALIGN, "--out", str(out1)]) == 0
        argv = argv_from_header(out1 / "disparity.csv")
        argv = [a if not a.startswith("--out=") else f"--out={out2}" for a in argv]
        assert main(argv) == 0
        assert csv_body(out1 / "disparity.csv") == csv_body(out2 / "disparity.csv")
        assert csv_body(out1 / "metrics.csv") == csv_body(out2 / "metrics.csv")


class TestBench:
    def test_counts_reproducible_and_ratio_exact(self, tmp_path):
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        argv = [
            "bench", "--width", "160", "--height", "160", "--pattern", "uniform:2,3",
            "--noise-floor", "0.0", "--gen-seed", "5", "--block", "16", "--crop", "0.0",
            "--search-du=-3:3", "--search-dv=-3:3", "--runs", "2",
        ]
        assert main([*argv, "--out", str(out1)]) == 0
        assert main([*argv, "--out", str(out2)]) == 0
        rows1 = {r["method"]: r for r in csv_rows(out1 / "bench.csv")}
        rows2 = {r["method"]: r for r in csv_rows(out2 / "bench.csv")}
        for method in ("full-fast", "diag-fast"):
            for col in ("blocks", "shifts_evaluated", "numerator_multiplies", "numerator_adds", "multiplies_per_shift"):
                assert rows1[method][col] == rows2[method][col]
        assert int(rows1["full-fast"]["multiplies_per_shift"]) == 256
        assert int(rows1["diag-fast"]["multiplies_per_shift"]) == 16

    def test_empty_search_range_exits_1(self, tmp_path, capsys):
        code = main([
            "bench", "--width", "64", "--height", "64", "--block", "16", "--crop", "0",
            "--search-du=100:101", "--search-dv=0:0", "--runs", "1", "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "empty search range --search-du=100:101" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()


class TestNoiseSweep:
    def test_zero_fraction_matches_noiseless_align(self, tmp_path):
        sweep_out = tmp_path / "sweep"
        align_out = tmp_path / "align"
        common = [*SMALL_ALIGN, "--noise-int", "0.0", "--seed", "4"]
        assert main(["noise-sweep", *common, "--fractions", "0.0", "--seeds", "1",
                     "--out", str(sweep_out)]) == 0
        assert main(["align", *common, "--method", "stream", "--noise-mult", "0.0",
                     "--out", str(align_out)]) == 0
        sweep_row = csv_rows(sweep_out / "noise_sweep.csv")[0]
        align_row = csv_rows(align_out / "metrics.csv")[0]
        assert sweep_row["corr_after_mean"] == align_row["corr_after"]
        assert sweep_row["corr_after_std"] == "0"

    def test_fractions_in_input_order_with_seeds(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["noise-sweep", *SMALL_ALIGN, "--fractions", "0.2,0.01", "--seeds", "2",
                     "--seed", "10", "--out", str(out)]) == 0
        rows = csv_rows(out / "noise_sweep.csv")
        assert [r["multiplier_fraction"] for r in rows] == ["0.2", "0.01"]
        assert all(r["seeds"] == "10;11" for r in rows)

    @pytest.mark.parametrize("flags, named", [
        (["--seeds", "0"], "--seeds"),
        (["--seeds", "-3"], "--seeds"),
        (["--fractions", ""], "--fractions"),
        (["--fractions", ","], "--fractions"),
    ], ids=["seeds-zero", "seeds-negative", "fractions-empty", "fractions-comma"])
    def test_empty_sweep_is_usage_error(self, tmp_path, capsys, flags, named):
        out = tmp_path / "sweep"
        assert main(["noise-sweep", *SMALL_ALIGN, *flags, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_unparsable_fraction_names_flag(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["noise-sweep", *SMALL_ALIGN, "--fractions", "0.1,abc", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--fractions" in err and "0.1,abc" in err
        assert not out.exists()


class TestRobustness:
    def test_uniform_scale_keeps_field_identical(self, tmp_path):
        out = tmp_path / "rob"
        assert main(["robustness", *SMALL_ALIGN, "--method", "diag", "--mode", "uniform",
                     "--parameter", "0.1", "--out", str(out)]) == 0
        rows = {r["mode"]: r for r in csv_rows(out / "robustness.csv")}
        assert rows["uniform"]["field_equals_baseline"] == "1"

    def test_random_amplitude_zero_matches_baseline(self, tmp_path):
        out = tmp_path / "rob"
        assert main(["robustness", *SMALL_ALIGN, "--method", "diag", "--mode", "random",
                     "--parameter", "0.0", "--out", str(out)]) == 0
        rows = {r["mode"]: r for r in csv_rows(out / "robustness.csv")}
        assert rows["random"]["field_equals_baseline"] == "1"
        assert rows["random"]["corr_after"] == rows["none"]["corr_after"]


class TestPower:
    def test_table_and_csv(self, tmp_path, capsys):
        out = tmp_path / "power"
        assert main(["power", "--channels", "64", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "lpf" in stdout and "215.15" in stdout
        rows = csv_rows(out / "power.csv")
        by_name = {r["component"]: r for r in rows}
        assert by_name["lpf"]["power_mw"] == "179.2"
        assert by_name["summer"]["power_mw"] == "35.13"
        assert by_name["multiplier"]["power_mw"] == "0.058"
        assert by_name["integrator"]["power_mw"] == "0.768"
        assert abs(float(by_name["total"]["power_mw"]) - 215.15) <= 0.01

    def test_odd_channels_exit_2(self, tmp_path, capsys):
        assert main(["power", "--channels", "7", "--out", str(tmp_path / "p")]) == 2
        assert "even" in capsys.readouterr().err
