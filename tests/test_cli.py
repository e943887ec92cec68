import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import nccalign
from nccalign import alignment, cli, load_pgm, save_pgm
from nccalign.cli import argv_from_header, main
from nccalign.streaming import DRAW_CACHE_STREAMS, _front_ends, _stream_draws
from run_experiments import ALIGN

from conftest import csv_body, csv_rows


SMALL_PAIR = [
    "--width", "96", "--height", "96", "--pattern", "uniform:2,3",
    "--noise-floor", "0.0", "--gen-seed", "5",
]
SMALL_ALIGN = SMALL_PAIR + [
    "--block", "16", "--crop", "0.0", "--search-du=-4:4", "--search-dv=-4:4",
]
# The flags only the stream method reads.
STREAM_FLAGS = ("--ma", "--noise-mult", "--noise-int", "--seed")


def unequal_pair_argv(tmp_path):
    """Input flags for a 40 x 56 template and a 48 x 64 reference."""
    template, reference = tmp_path / "t.pgm", tmp_path / "r.pgm"
    save_pgm(np.random.default_rng(1).random((40, 56)), template)
    save_pgm(np.random.default_rng(2).random((48, 64)), reference)
    return ["--template", str(template), "--reference", str(reference), "--block", "16", "--crop", "0.0"]


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

    @pytest.mark.parametrize("method", ("diag-fast", "stream"))
    def test_frame_starts_no_thread(self, tmp_path, monkeypatch, method):
        # A frame runs on the calling thread (numpy/BLAS threads are not
        # Python threads), so a thread start anywhere in it is an error.
        def refuse(thread):
            raise RuntimeError(f"a frame started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        out = tmp_path / "align"
        assert main(["align", *SMALL_ALIGN, "--method", method, "--out", str(out)]) == 0

    def test_saving_leaves_dense_maps_unmodified(self, tmp_path, monkeypatch):
        results, run_alignment = [], cli.run_alignment

        def keep(*args, **kwargs):
            result = run_alignment(*args, **kwargs)
            results.append((result, result.dense.du.copy(), result.dense.dv.copy()))
            return result

        monkeypatch.setattr(cli, "run_alignment", keep)
        assert main(["align", *SMALL_ALIGN, "--out", str(tmp_path / "align")]) == 0
        (result, du, dv), = results
        np.testing.assert_array_equal(result.dense.du, du)
        np.testing.assert_array_equal(result.dense.dv, dv)
        assert result.dense.du.min() < result.dense.du.max()

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
        flat = tmp_path / "flat.pgm"
        save_pgm(np.full((64, 64), 0.5), flat)
        code = main([
            "align", "--template", str(flat), "--reference", str(flat),
            "--block", "16", "--crop", "0.0", "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "valid" in capsys.readouterr().err

    @pytest.mark.parametrize("method, code", [("diag", 0), ("stream", 2)])
    def test_ma_spec_read_only_by_stream(self, tmp_path, capsys, method, code):
        argv = ["align", *SMALL_ALIGN, "--method", method, "--ma", "bogus"]
        assert main([*argv, "--out", str(tmp_path / "o")]) == code
        assert ("moving-average spec 'bogus'" in capsys.readouterr().err) == (code == 2)

    @pytest.mark.parametrize("command", ("align", "robustness", "noise-sweep"))
    def test_unequal_extents_exit_2_before_estimate(self, tmp_path, capsys, monkeypatch, command):
        def refuse(*args, **kwargs):
            raise AssertionError("estimate_disparity ran on unequal extents")

        monkeypatch.setattr(cli, "estimate_disparity", refuse)
        code = main([command, *unequal_pair_argv(tmp_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "(40, 56)" in err and "(48, 64)" in err
        assert not (tmp_path / "o").exists()


# The names the benchmark's tracer (perfbench/spans.py) rebinds, by module.
# It sees the program's calls only if the program looks each name up in its
# module at call time.
TRACED_NAMES = {
    cli: ("main", "run_alignment", "load_pgm", "save_pgm", "partition_template",
          "estimate_disparity", "fill_invalid", "interpolate_disparity", "warp",
          "global_correlation"),
    alignment: ("best_shift", "build_diag_tables", "ncc_diag_fast", "ncc_stream"),
}


class TestTracedNames:
    @pytest.mark.parametrize("method, kernel", [("diag-fast", "ncc_diag_fast"),
                                                ("stream", "ncc_stream")])
    def test_rebound_names_see_the_calls(self, tmp_path, monkeypatch, method, kernel):
        assert main(["gen", *SMALL_PAIR, "--out", str(tmp_path / "pair")]) == 0
        calls = {}
        for module, names in TRACED_NAMES.items():
            for name in names:
                def counting(*args, _name=name, _fn=getattr(module, name), **kwargs):
                    calls.setdefault(_name, []).append(kwargs)
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(module, name, counting)
        argv = ["align", "--template", str(tmp_path / "pair" / "template.pgm"),
                "--reference", str(tmp_path / "pair" / "reference.pgm"), "--block", "16", "--crop", "0.0",
                "--search-du=-4:4", "--search-dv=-4:4", "--method", method, "--out", str(tmp_path / "align")]
        assert cli.main(argv) == 0
        other = "ncc_stream" if kernel == "ncc_diag_fast" else "ncc_diag_fast"
        expected = {name for names in TRACED_NAMES.values() for name in names} - {other}
        assert sorted(expected - calls.keys()) == []
        assert other not in calls
        # The tracer hands a kernel its OpCounter unless the call passes one.
        assert all("counter" in kwargs for kwargs in calls[kernel])


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

    @pytest.mark.parametrize("command, method, unread", [
        ("align", None, STREAM_FLAGS),
        ("align", "stream", ()),
        ("robustness", "diag-fast", STREAM_FLAGS[:3]),
        ("robustness", "stream", ()),
    ], ids=("align-default", "align-stream", "robustness-diag-fast", "robustness-stream"))
    def test_header_round_trip(self, tmp_path, command, method, unread):
        # Only stream runs record the stream settings; robustness keeps --seed,
        # which --mode random reads.
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        argv = [command, *SMALL_ALIGN, "--ma", "boxcar:16", "--noise-int", "0.3", "--seed", "2"]
        assert main([*argv, *(["--method", method] if method else []), "--out", str(out1)]) == 0
        name = "disparity.csv" if command == "align" else "robustness.csv"
        flags = {a.split("=", 1)[0] for a in argv_from_header(out1 / name)}
        assert flags.isdisjoint(unread) and flags.issuperset(set(STREAM_FLAGS) - set(unread))
        rerun_from_header(out1 / name, out2)
        for name in ("disparity.csv", "metrics.csv") if command == "align" else (name,):
            assert csv_body(out1 / name) == csv_body(out2 / name)


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

    def test_methods_alternate_after_one_counted_warmup_each(self, tmp_path, capsys, monkeypatch):
        calls, estimate = [], cli.estimate_disparity

        def spy(template, reference, grid, method, *args, **kwargs):
            calls.append((method, "counter" in kwargs))
            return estimate(template, reference, grid, method, *args, **kwargs)

        monkeypatch.setattr(cli, "estimate_disparity", spy)
        assert main(["bench", *SMALL_ALIGN, "--runs", "3", "--out", str(tmp_path / "o")]) == 0
        assert calls == [("full-fast", True), ("diag-fast", True)] + [("full-fast", False), ("diag-fast", False)] * 3
        assert capsys.readouterr().out.rstrip().endswith(" multiply_ratio=16")

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

    @pytest.mark.parametrize("runs", ("0", "-1"))
    def test_runs_below_one_is_usage_error(self, tmp_path, capsys, runs):
        out = tmp_path / "o"
        assert main(["bench", *SMALL_ALIGN, "--runs", runs, "--out", str(out)]) == 2
        assert f"--runs must be >= 1, got {runs}" in capsys.readouterr().err
        assert not out.exists()

    def test_larger_reference_accepted(self, tmp_path):
        # bench only estimates, so the reference may exceed the template.
        assert main(["bench", *unequal_pair_argv(tmp_path), "--runs", "1", "--out", str(tmp_path / "o")]) == 0


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

    def test_rows_equal_fraction_major_loop(self, tmp_path):
        # The sweep runs seeds outer; the rows equal a loop over fractions
        # outer and seeds inner.
        fractions, seeds = (0.3, 0.05, 0.15), (10, 11, 12)
        out = tmp_path / "sweep"
        assert main(["noise-sweep", *SMALL_ALIGN, "--noise-int", "0.2", "--fractions", "0.3,0.05,0.15",
                     "--seeds", "3", "--seed", "10", "--out", str(out)]) == 0
        args = cli.build_parser().parse_args(["align", *SMALL_ALIGN, "--method", "stream",
                                              "--noise-int", "0.2"])
        template, reference, truth = cli._load_or_generate(args)
        expected = ["multiplier_fraction,seeds,corr_after_mean,corr_after_std,match_rate_mean,match_rate_std"]
        for fraction in fractions:
            corrs, matches = [], []
            for seed in seeds:
                result = cli.run_alignment(template, reference, args,
                                           noise=nccalign.NoiseModel(fraction, 0.2, seed))
                corrs.append(result.corr_after)
                matches.append(cli.match_rate(result.raw_field, truth, result.grid))
            row = (fraction, "10;11;12", np.mean(corrs), np.std(corrs), np.mean(matches), np.std(matches))
            expected.append(",".join(cli._fmt(cell) for cell in row))
        assert csv_body(out / "noise_sweep.csv") == expected

    def test_seeds_outer_loop_reuses_each_seeds_draws(self, tmp_path):
        # 9 seeds x 64 blocks x 2 stages = 1152 streams, more than the draw
        # cache holds: only a seed's later fractions, run before the next
        # seed, find its draws still cached. A fractions-outer loop would
        # find none.
        streams = 9 * 64 * 2
        assert streams > DRAW_CACHE_STREAMS
        _stream_draws.cache_clear()
        assert main(["noise-sweep", "--width", "128", "--height", "128", "--block", "16",
                     "--crop", "0", "--fractions", "0.05,0.2", "--seeds", "9",
                     "--out", str(tmp_path)]) == 0
        info = _stream_draws.cache_info()
        assert (info.misses, info.hits) == (streams, streams)

    def test_experiment_sweep_repeats_in_one_process(self, tmp_path):
        # The experiment set's sweep, twice in one process that starts cold.
        # Its 10 seeds x 64 blocks x 2 stages outnumber the draw cache, so
        # the second run finds the first run's stream front ends cached but
        # not its draws.
        assert 10 * 64 * 2 > DRAW_CACHE_STREAMS
        _front_ends.clear()
        _stream_draws.cache_clear()
        bodies = []
        for run in ("first", "second"):
            out = tmp_path / run
            assert main(["noise-sweep", *ALIGN, "--fractions", "0.01,0.1,0.2", "--seeds", "10",
                         "--out", str(out)]) == 0
            bodies.append(csv_body(out / "noise_sweep.csv"))
        assert bodies[0] == bodies[1]

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


BENCH_COUNTS = ("method", "blocks", "shifts_evaluated", "numerator_multiplies", "numerator_adds",
                "multiplies_per_shift")


def rerun_from_header(path, out):
    argv = [a if not a.startswith("--out=") else f"--out={out}" for a in argv_from_header(path)]
    assert main(argv) == 0


@pytest.mark.parametrize("dirname", ("résultats", os.fsdecode(b"r\xe9sultats")), ids=("utf-8", "latin-1"))
@pytest.mark.parametrize("argv, csvs, pgms", [
    (["align", *SMALL_ALIGN], ("disparity.csv", "metrics.csv"), ("aligned.pgm", "disparity_x.pgm", "disparity_y.pgm")),
    (["gen", *SMALL_PAIR], ("truth.csv",), ("template.pgm", "reference.pgm")),
], ids=("align", "gen"))
def test_non_ascii_out_dir(tmp_path, dirname, argv, csvs, pgms):
    # The headers record --out; a path that is not UTF-8 keeps its bytes.
    out1, out2 = tmp_path / dirname, tmp_path / "rerun"
    assert main([*argv, "--out", str(out1)]) == 0
    assert f"--out={out1}" in argv_from_header(out1 / csvs[0])
    rerun_from_header(out1 / csvs[0], out2)
    for name in csvs:
        assert csv_body(out1 / name) == csv_body(out2 / name)
    for name in pgms:
        assert os.fsencode(f"# arg: --out={out1}\n") in (out1 / name).read_bytes()
        np.testing.assert_array_equal(load_pgm(out1 / name), load_pgm(out2 / name))


class TestFlagsReadOnly:
    """``bench`` and ``noise-sweep`` take only the flags they read, and their
    headers re-run them."""

    @pytest.mark.parametrize("command, flag", [
        ("bench", ["--method", "diag"]),
        ("bench", ["--ma", "boxcar:4"]),
        ("bench", ["--noise-mult", "0.1"]),
        ("bench", ["--noise-int", "0.1"]),
        ("bench", ["--seed", "1"]),
        ("noise-sweep", ["--method", "diag"]),
        ("noise-sweep", ["--noise-mult", "0.9"]),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_unread_flag_is_usage_error(self, tmp_path, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, *SMALL_ALIGN, *flag, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + flag[0] in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bench_header_round_trip(self, tmp_path):
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        assert main(["bench", *SMALL_ALIGN, "--orientation", "anti", "--runs", "1",
                     "--out", str(out1)]) == 0
        rerun_from_header(out1 / "bench.csv", out2)
        counts = [[r[c] for c in BENCH_COUNTS] for r in csv_rows(out1 / "bench.csv")]
        assert counts == [[r[c] for c in BENCH_COUNTS] for r in csv_rows(out2 / "bench.csv")]
        assert csv_body(out1 / "bench.csv")[0] == csv_body(out2 / "bench.csv")[0]

    def test_noise_sweep_header_round_trip(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["noise-sweep", *SMALL_ALIGN, "--fractions", "0.05,0.2", "--seeds", "2",
                     "--noise-int", "0.1", "--seed", "6", "--ma", "pole:0.25",
                     "--out", str(out1)]) == 0
        header = argv_from_header(out1 / "noise_sweep.csv")
        assert not any(a.startswith(("--method=", "--noise-mult=")) for a in header)
        rerun_from_header(out1 / "noise_sweep.csv", out2)
        assert csv_body(out1 / "noise_sweep.csv") == csv_body(out2 / "noise_sweep.csv")


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


@pytest.mark.parametrize("argv, named", [
    (["noise-sweep", "--fractions", "0.1,-0.5", "--seeds", "2"], "--fractions=0.1,-0.5"),
    (["robustness", "--mode", "random", "--parameter", "1.5"], "--parameter=1.5"),
    (["robustness", "--mode", "uniform", "--parameter=-1"], "--parameter=-1"),
    (["robustness", "--mode", "random", "--seed=-3"], "--seed=-3"),
    (["align", "--method", "stream", "--ma", "boxcar:abc"], "'boxcar:abc'"),
    (["align", "--method", "stream", "--noise-int=-1"], "--noise-int=-1"),
    (["robustness", "--method", "stream", "--noise-mult=-1"], "--noise-mult=-1"),
    (["align", "--method", "stream", "--ma", "boxcar:0"], "--ma=boxcar:0"),
    (["noise-sweep", "--ma", "pole:2"], "--ma=pole:2"),
    (["align", "--gen-seed=-1"], "--gen-seed=-1"),
    (["align", "--width", "0"], "--width=0"),
    (["align", "--noise-floor", "nan"], "--noise-floor=nan"),
    (["align", "--pattern", "uniform:40,0"], "--pattern=uniform:40,0"),
    (["align", "--pattern", "quadrant:1,1:1,1:1,1:x,1"], "--pattern=quadrant:1,1:1,1:1,1:x,1"),
    (["noise-sweep", "--search-du=5:-5"], "--search-du=5:-5"),
    (["align", "--block", "4"], "--block=4"),
    (["bench", "--crop", "0.5"], "--crop=0.5"),
    (["power", "--channels=-2"], "--channels=-2"),
    (["gen", "--noise-floor", "1e308"], "--noise-floor=1e+308"),
    (["align", "--noise-floor", "2"], "--noise-floor=2"),
], ids=("sweep-fraction", "random-amplitude", "uniform-factor", "random-seed", "ma-argument",
        "align-noise-int", "robustness-noise-mult", "ma-window", "sweep-ma-alpha", "gen-seed",
        "width", "noise-floor", "pattern-bound", "pattern-literal", "search-range", "block",
        "bench-crop", "power-channels", "gen-noise-floor-huge", "align-noise-floor-above-1"))
def test_bad_setting_exits_2_before_any_alignment(tmp_path, capsys, monkeypatch, argv, named):
    def refuse(*args, **kwargs):
        raise AssertionError("an alignment ran before the usage error")

    monkeypatch.setattr(cli, "estimate_disparity", refuse)
    out = tmp_path / "o"
    # power reads no image flags, gen no search flags.
    common = {"power": [], "gen": SMALL_PAIR}.get(argv[0], SMALL_ALIGN)
    assert main([argv[0], *common, *argv[1:], "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line_break", ["\n", "\r"], ids=("lf", "cr"))
@pytest.mark.parametrize("command, flag", [
    ("power", "--out"), ("gen", "--out"), ("align", "--out"), ("align", "--template"),
], ids=("power-out", "gen-out", "align-out", "align-input"))
def test_line_break_in_flag_value_exits_2_before_any_output(tmp_path, capsys, command, flag,
                                                            line_break):
    # A line break would end the value's header line, and the rest would
    # read as a bare line before the column line.
    inputs = tmp_path / "in"
    inputs.mkdir()
    template, reference = inputs / f"t{line_break}x.pgm", inputs / "r.pgm"
    save_pgm(np.random.default_rng(3).random((96, 96)), template)
    save_pgm(np.random.default_rng(4).random((96, 96)), reference)
    out = tmp_path / (f"o{line_break}x" if flag == "--out" else "o")
    argv = {"power": [], "gen": SMALL_PAIR, "align": SMALL_ALIGN}[command]
    if flag == "--template":
        argv = [*argv, "--template", str(template), "--reference", str(reference)]
    assert main([command, *argv, "--out", str(out)]) == 2
    assert f"{flag}=" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]


@pytest.mark.parametrize("command", ["gen", "align"])
def test_negative_gen_seed_exits_2_naming_texture_seed(tmp_path, capsys, command):
    out = tmp_path / "o"
    assert main([command, *SMALL_PAIR, "--gen-seed=-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--gen-seed=-1" in err and "texture_seed must be non-negative, got -1" in err
    assert not out.exists()


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


COLD_IMPORT = """
import sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
import nccalign.cli
assert nccalign.cli.main(sys.argv[1:]) == 0
loaded = sorted(name for name, module in sys.modules.items()
                if name.startswith("scipy") and module is not None)
assert loaded == [], loaded
"""


def fresh_python(*args):
    """Run ``python *args`` in a new process that imports this nccalign,
    under the tier-1 warning filters."""
    src = str(Path(nccalign.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                           "-W", "error::RuntimeWarning", *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


class TestColdImport:
    def test_pole_filter_runs_without_scipy(self, tmp_path):
        argv = ["align", *SMALL_ALIGN, "--method", "stream", "--ma", "pole:0.25",
                "--out", str(tmp_path / "o")]
        fresh_python("-c", COLD_IMPORT, *argv)
        assert (tmp_path / "o" / "disparity.csv").exists()


class TestStreamMemo:
    ALIGN_STREAM = ["align", "--method", "stream", "--seed", "3", "--block", "64", "--crop", "0",
                    "--search-du=-8:8", "--search-dv=-8:8"]
    FRACTIONS = ("0.01", "0.1", "0.2")

    def test_fresh_process_frames_equal_in_process_frames(self, tmp_path):
        # Each frame once in a fresh process, whose stream front-end memo is
        # cold, then all three in this process, where frames 2 and 3 reuse
        # the front ends of frame 1.
        for fraction in self.FRACTIONS:
            fresh_python("-m", "nccalign", *self.ALIGN_STREAM, "--noise-mult", fraction,
                         "--out", str(tmp_path / f"cold-{fraction}"))
        _front_ends.clear()
        _stream_draws.cache_clear()
        memo = []
        for fraction in self.FRACTIONS:
            assert main([*self.ALIGN_STREAM, "--noise-mult", fraction,
                         "--out", str(tmp_path / f"warm-{fraction}")]) == 0
            memo.append(set(_front_ends))
        assert memo[0] and memo[0] == memo[1] == memo[2]
        for fraction in self.FRACTIONS:
            for name in ("disparity.csv", "metrics.csv"):
                assert (csv_body(tmp_path / f"cold-{fraction}" / name)
                        == csv_body(tmp_path / f"warm-{fraction}" / name)), (fraction, name)
