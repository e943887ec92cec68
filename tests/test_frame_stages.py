"""Per-frame stages that do each whole-image pass once, in cache-sized
chunks of rows.

The warp and the dense interpolation work in one band of rows per usable
CPU; the correlation centres the reference side once for a tuple of
images; the diagonal tables are built only for the orientations a run
reads; PGM files are checked, quantised and read a chunk at a time. Each
is compared with the form it replaced: the one-band warp and the
``np.indices`` oracle, the whole-array interpolation and quantisation,
one ``global_correlation`` call per image, and the both-orientation table
build.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from nccalign import (
    ShiftRange,
    UndefinedMetricError,
    build_diag_tables,
    global_correlation,
    load_pgm,
    ncc_diag_fast,
    ncc_stream,
    save_pgm,
)
from nccalign import alignment, images
from nccalign.alignment import DenseDisparity, DisparityField, warp
from nccalign.cli import _normalized_map
from nccalign.diagonal import ORIENTATIONS

from conftest import random_image
from test_fast_paths import indices_warp


# -- warp bands ------------------------------------------------------------

def _fake_cpus(monkeypatch, n):
    """Make ``nccalign.alignment`` see ``n`` usable CPUs, and record the
    rows of each band (one entry per band) its row-band helper then runs."""
    monkeypatch.setattr(alignment, "os", SimpleNamespace(sched_getaffinity=lambda pid: set(range(n))))
    calls = []
    real = alignment._in_row_bands

    def counted(height, work, make_scratch):
        def counted_work(start, stop, scratch):
            calls.append(stop - start)
            return work(start, stop, scratch)

        return real(height, counted_work, make_scratch)

    monkeypatch.setattr(alignment, "_in_row_bands", counted)
    return calls


def _warp_case(seed, h, w, reach):
    rng = np.random.default_rng(seed)
    template = rng.random((h, w))
    du, dv = rng.uniform(-reach, reach, (2, h, w))
    return template, du, dv


class TestWarpBands:
    @pytest.mark.parametrize("cpus", (1, 2, 3, 8))
    @pytest.mark.parametrize("h, w, reach", ((1, 9, 3.0), (2, 5, 1.5), (5, 7, 4.0), (24, 19, 8.0), (37, 41, 30.0)))
    def test_equals_one_band_and_oracle(self, monkeypatch, cpus, h, w, reach):
        template, du, dv = _warp_case(1000 * h + w, h, w, reach)
        inputs = (template.copy(), du.copy(), dv.copy())
        with monkeypatch.context() as one:
            _fake_cpus(one, 1)
            want, want_mask = warp(template, DenseDisparity(du=du, dv=dv))
        calls = _fake_cpus(monkeypatch, cpus)
        got, got_mask = warp(template, DenseDisparity(du=du, dv=dv))

        assert len(calls) == min(cpus, h)
        assert max(calls) - min(calls) <= 1
        assert sum(calls) == h
        np.testing.assert_array_equal(got_mask, want_mask)
        np.testing.assert_array_equal(got, want)
        oracle, oracle_mask = indices_warp(template, du, dv)
        np.testing.assert_array_equal(got_mask, oracle_mask)
        np.testing.assert_array_equal(got, oracle)
        for before, after in zip(inputs, (template, du, dv)):
            np.testing.assert_array_equal(before, after)

    def test_cpu_count_without_affinity_api(self, monkeypatch):
        calls = _fake_cpus(monkeypatch, 1)
        monkeypatch.setattr(alignment, "os", SimpleNamespace(cpu_count=lambda: 3))
        template, du, dv = _warp_case(2, 7, 5, 2.0)
        got, got_mask = warp(template, DenseDisparity(du=du, dv=dv))
        assert len(calls) == 3
        oracle, oracle_mask = indices_warp(template, du, dv)
        np.testing.assert_array_equal(got_mask, oracle_mask)
        np.testing.assert_array_equal(got, oracle)

    def test_worker_error_reaches_caller(self, monkeypatch):
        _fake_cpus(monkeypatch, 2)

        def failing(*args, **kwargs):
            raise RuntimeError("band failed")

        monkeypatch.setattr(alignment, "_warp_rows", failing)
        template, du, dv = _warp_case(3, 6, 6, 1.0)
        with pytest.raises(RuntimeError, match="band failed"):
            warp(template, DenseDisparity(du=du, dv=dv))

    @pytest.mark.parametrize("cpus", (1, 3))
    @pytest.mark.parametrize("chunk", (1, 7, 40, images.CHUNK_PIXELS))
    def test_chunks_equal_oracle(self, monkeypatch, cpus, chunk):
        # Chunks of one row, of part of a band, and one chunk per band.
        _fake_cpus(monkeypatch, cpus)
        monkeypatch.setattr(images, "CHUNK_PIXELS", chunk)
        template, du, dv = _warp_case(4, 29, 13, 9.0)
        got, got_mask = warp(template, DenseDisparity(du=du, dv=dv))
        oracle, oracle_mask = indices_warp(template, du, dv)
        np.testing.assert_array_equal(got_mask, oracle_mask)
        np.testing.assert_array_equal(got, oracle)

    def test_edge_taps_keep_signed_zeros(self):
        # On the last column or row a +1 tap has weight 0, so only the sign
        # of a zero shows which pixel it read: the clamped one (-0.0 here),
        # not the next row's first pixel or the image's last one (0.75).
        template = np.full((6, 5), -0.0)
        template[:, 0] = template[5, 4] = 0.75
        du, dv = np.zeros((6, 5)), np.zeros((6, 5))
        du[0, 0], dv[0, 0] = -4.0, -1.5  # samples (4, 1.5): last column
        du[0, 1], dv[0, 1] = -0.5, -5.0  # samples (1.5, 5): last row
        got, got_mask = warp(template, DenseDisparity(du=du, dv=dv))
        oracle, oracle_mask = indices_warp(template, du, dv)
        assert got_mask[0, :2].all() and np.signbit(got[0, :2]).all()
        np.testing.assert_array_equal(got_mask, oracle_mask)
        np.testing.assert_array_equal(got.view(np.uint64), oracle.view(np.uint64))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cpus", (1, 2))
    def test_non_finite_field_masked_out(self, monkeypatch, cpus):
        _fake_cpus(monkeypatch, cpus)
        monkeypatch.setattr(images, "CHUNK_PIXELS", 30)
        template, du, dv = _warp_case(5, 12, 10, 3.0)
        bad = np.zeros((12, 10), dtype=bool)
        for i, value in enumerate((np.nan, np.inf, -np.inf)):
            du[i, i] = dv[i + 4, 9 - i] = value
            du[11 - i, 2] = dv[11 - i, 2] = value
            du[i + 7, 5] = value
            dv[i + 7, 5] = -value
            bad[i, i] = bad[i + 4, 9 - i] = bad[11 - i, 2] = bad[i + 7, 5] = True
        got, got_mask = warp(template, DenseDisparity(du=du, dv=dv))

        assert not got_mask[bad].any()
        assert np.all(got[bad] == 0.0)
        finite_du, finite_dv = np.where(bad, 0.0, du), np.where(bad, 0.0, dv)
        oracle, oracle_mask = indices_warp(template, finite_du, finite_dv)
        np.testing.assert_array_equal(got_mask[~bad], oracle_mask[~bad])
        np.testing.assert_array_equal(got[~bad], oracle[~bad])


# -- banded interpolation --------------------------------------------------

def whole_array_sample(centers_x, centers_y, values, query_x, query_y):
    """The separable interpolation as one whole-array y-blend and x-blend."""
    j0, j1, wx = alignment._axis_weights(np.asarray(centers_x, dtype=np.float64), np.asarray(query_x, dtype=np.float64))
    i0, i1, wy = alignment._axis_weights(np.asarray(centers_y, dtype=np.float64), np.asarray(query_y, dtype=np.float64))
    rows = values[i0] * (1.0 - wy)[:, None] + values[i1] * wy[:, None]
    return rows.take(j0, axis=1) * (1.0 - wx) + rows.take(j1, axis=1) * wx


class TestBandedInterpolation:
    @pytest.mark.parametrize("cpus", (1, 2, 3))
    @pytest.mark.parametrize("chunk", (1, 50, images.CHUNK_PIXELS))
    @pytest.mark.parametrize("height, width", ((1, 1), (1, 70), (45, 1), (31, 37)))
    def test_equals_whole_array_formula(self, monkeypatch, cpus, chunk, height, width):
        _fake_cpus(monkeypatch, cpus)
        monkeypatch.setattr(images, "CHUNK_PIXELS", chunk)
        rng = np.random.default_rng(height * 100 + width)
        cx = np.sort(rng.uniform(0, width, 5))
        cy = np.sort(rng.uniform(0, height, 4))
        values = rng.uniform(-8, 8, (4, 5))
        qx = np.arange(width, dtype=np.float64)
        qy = np.arange(height, dtype=np.float64)
        np.testing.assert_array_equal(alignment.bilinear_grid_sample(cx, cy, values, qx, qy),
                                      whole_array_sample(cx, cy, values, qx, qy))

    def test_full_size_field_in_one_pool(self, monkeypatch):
        # Each 200-row band of a 400 x 200 field spans two chunks; both
        # components share one pool, so there is one call per band.
        calls = _fake_cpus(monkeypatch, 2)
        field = DisparityField(*np.random.default_rng(6).uniform(-4, 4, (2, 5, 6)),
                               coeff=np.ones((5, 6)), status=np.zeros((5, 6), dtype=np.uint8))
        grid = alignment.BlockGrid(block_size=32, margin_x=4, margin_y=15, rows=5, cols=6)
        dense = alignment.interpolate_disparity(field, grid, (200, 400))
        assert calls == [200, 200]
        cx, cy = grid.center_coords()
        qx, qy = np.arange(200, dtype=np.float64), np.arange(400, dtype=np.float64)
        np.testing.assert_array_equal(dense.du, whole_array_sample(cx, cy, field.du, qx, qy))
        np.testing.assert_array_equal(dense.dv, whole_array_sample(cx, cy, field.dv, qx, qy))


# -- tuple correlation -----------------------------------------------------

def _error(call):
    with pytest.raises((ValueError, UndefinedMetricError)) as info:
        call()
    return type(info.value), str(info.value)


class TestTupleCorrelation:
    @pytest.mark.parametrize("masked", (False, True))
    def test_bit_identical_to_single_calls(self, masked):
        a1, a2, b = (random_image(seed, 33, 29) for seed in (1, 2, 3))
        a2 = 0.3 * a2 + 0.7 * b
        mask = random_image(4, 33, 29) > 0.3 if masked else None
        got = global_correlation((a1, a2), b, mask)
        assert isinstance(got, tuple)
        assert got == (global_correlation(a1, b, mask), global_correlation(a2, b, mask))
        assert global_correlation((a2,), b, mask) == (got[1],)

    @pytest.mark.parametrize("masked", (False, True))
    def test_inputs_unmodified(self, masked):
        image = random_image(5, 16, 18)
        before = image.copy()
        mask = image > 0.2 if masked else None
        assert global_correlation((image, image), image, mask) == (1.0, 1.0)
        assert global_correlation(image, image, mask) == 1.0
        np.testing.assert_array_equal(image, before)

    @pytest.mark.parametrize("position", (0, 1))
    def test_errors_match_single_call_for_any_image(self, position):
        good = random_image(6, 12, 12)
        b = random_image(7, 12, 12)

        def with_bad(bad):
            images = [good, good]
            images[position] = bad
            return tuple(images)

        flat = np.full((12, 12), 0.5)
        wrong_shape = random_image(8, 12, 13)
        for bad in (flat, wrong_shape):
            single = _error(lambda: global_correlation(bad, b))
            assert _error(lambda: global_correlation(with_bad(bad), b)) == single
        one_pixel = np.zeros((12, 12), dtype=bool)
        one_pixel[3, 4] = True
        single = _error(lambda: global_correlation(good, b, one_pixel))
        assert single[0] is UndefinedMetricError
        assert _error(lambda: global_correlation(with_bad(good), b, one_pixel)) == single

    def test_flat_reference_rejected(self):
        image = random_image(9, 10, 10)
        with pytest.raises(UndefinedMetricError, match="zero variance"):
            global_correlation((image, image), np.full((10, 10), 0.5))


# -- orientation-only diagonal tables --------------------------------------

FIELDS = {"main": ("main_sum", "main_sumsq"), "anti": ("anti_sum", "anti_sumsq")}
SHIFTS = ShiftRange.symmetric(3)


class TestOrientationTables:
    @pytest.mark.parametrize("orientation", ORIENTATIONS)
    def test_equal_to_both_orientation_build(self, orientation):
        ref = random_image(10, 30, 27)
        one = build_diag_tables(ref, (orientation,))
        both = build_diag_tables(ref)
        for name in FIELDS[orientation]:
            np.testing.assert_array_equal(getattr(one, name), getattr(both, name))
        (other,) = set(ORIENTATIONS) - {orientation}
        for name in FIELDS[other]:
            assert getattr(one, name) is None
        assert one.shape == both.shape == ref.shape
        xs, ys = np.meshgrid(np.arange(20), np.arange(22))
        np.testing.assert_array_equal(one.window_var_sum(xs, ys, 6, orientation),
                                      both.window_var_sum(xs, ys, 6, orientation))

    @pytest.mark.parametrize("orientation", ORIENTATIONS)
    def test_unbuilt_orientation_raises_value_error(self, orientation):
        (other,) = set(ORIENTATIONS) - {orientation}
        ref = random_image(11, 24, 24)
        tables = build_diag_tables(ref, (orientation,))
        for lookup in (tables.window_sum, tables.window_sumsq, tables.window_var_sum):
            with pytest.raises(ValueError, match="not built"):
                lookup(2, 3, 5, other)
        block = ref[8:16, 8:16].copy()
        with pytest.raises(ValueError, match="not built"):
            ncc_diag_fast(block, ref, (8, 8), SHIFTS, tables, other)
        with pytest.raises(ValueError, match="not built"):
            ncc_stream(block, ref, (8, 8), SHIFTS, other, tables=tables)

    @pytest.mark.parametrize("orientation", ORIENTATIONS)
    def test_stream_builds_its_orientation_alone(self, orientation):
        ref = random_image(12, 24, 24)
        block = ref[6:14, 9:17].copy()
        own = ncc_stream(block, ref, (9, 6), SHIFTS, orientation)
        given = ncc_stream(block, ref, (9, 6), SHIFTS, orientation, tables=build_diag_tables(ref))
        np.testing.assert_array_equal(own.values, given.values)
        np.testing.assert_array_equal(own.validity, given.validity)

    @pytest.mark.parametrize("orientations", ((), ("sideways",), ("main", "sideways")))
    def test_bad_orientations_rejected(self, orientations):
        with pytest.raises(ValueError):
            build_diag_tables(random_image(13, 8, 8), orientations)


# -- chunked PGM I/O -------------------------------------------------------

def whole_array_pgm_body(image, maxval):
    dtype = np.dtype(">u2") if maxval == 65535 else np.dtype("u1")
    return np.floor(np.clip(image, 0.0, 1.0) * maxval + 0.5).astype(dtype).tobytes()


def test_quantisation_leaves_input_unmodified(tmp_path):
    image = np.random.default_rng(14).uniform(-0.5, 1.5, (9, 11))
    before = image.copy()
    save_pgm(image, tmp_path / "q.pgm")
    normalized = _normalized_map(image)
    np.testing.assert_array_equal(image, before)
    np.testing.assert_array_equal(normalized, (before - before.min()) / (before.max() - before.min()))


# Heights and widths on both sides of one chunk (images.CHUNK_PIXELS).
CHUNK_SHAPES = ((1, 1), (1, 40_000), (32_768, 1), (32_769, 1), (128, 256), (129, 256), (200, 170), (3, 33_000))


class TestChunkedPgm:
    @pytest.mark.parametrize("maxval", (255, 65535))
    @pytest.mark.parametrize("shape", CHUNK_SHAPES)
    def test_save_equals_whole_array_quantisation(self, tmp_path, maxval, shape):
        image = np.random.default_rng(shape[0] * 7 + shape[1]).uniform(-0.3, 1.3, shape)
        image.flat[:4] = [1.0, 0.0, 0.5 / maxval, 1.0 - 0.5 / maxval][:image.size]
        path = tmp_path / "q.pgm"
        save_pgm(image, path, maxval=maxval)
        header = f"P5\n{shape[1]} {shape[0]}\n{maxval}\n".encode("ascii")
        assert path.read_bytes() == header + whole_array_pgm_body(image, maxval)

    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("where", ((0, 0), (199, 169), (195, 3)))
    def test_non_finite_raises_before_file_exists(self, tmp_path, value, where):
        image = np.random.default_rng(15).random((200, 170))
        image[where] = value
        path = tmp_path / "bad.pgm"
        with pytest.raises(ValueError, match="non-finite"):
            save_pgm(image, path)
        assert not path.exists()

    @pytest.mark.parametrize("maxval", (255, 65535))
    @pytest.mark.parametrize("shape", ((1, 1), (3, 1), (1, 5), (131, 257)))
    def test_load_equals_float_division(self, tmp_path, maxval, shape):
        dtype = np.dtype(">u2") if maxval == 65535 else np.dtype("u1")
        raw = np.random.default_rng(maxval + shape[1]).integers(0, maxval, shape, endpoint=True).astype(dtype)
        raw.flat[0] = maxval
        path = tmp_path / "raw.pgm"
        path.write_bytes(f"P5\n{shape[1]} {shape[0]}\n{maxval}\n".encode("ascii") + raw.tobytes())
        loaded = load_pgm(path)
        assert loaded.dtype == np.float64
        np.testing.assert_array_equal(loaded, raw.astype(np.float64) / maxval)
