"""The validation contract and the fast paths, pinned to the formulas they replaced.

Whole images are validated once, at the pipeline boundary
(``estimate_disparity``, ``build_diag_tables``, ``build_sum_tables``); each
kernel validates its template block and the reference region it reads. The
strided diagonal gather, the separable grid interpolation, the
bilinear warp and the PGM quantization are each compared with a
test-local copy of the direct formula they replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nccalign import (
    ShiftRange,
    build_diag_tables,
    build_sum_tables,
    estimate_disparity,
    load_pgm,
    ncc_diag_fast,
    ncc_full_fast,
    ncc_stream,
    partition_template,
    save_pgm,
)
from nccalign.alignment import DenseDisparity, bilinear_grid_sample, warp
from nccalign.diagonal import gather_window_diagonals
from nccalign.ncc import _inbounds_ranges

from conftest import random_image

NON_FINITE = (np.nan, np.inf, -np.inf)


# -- oracles: the replaced formulas ----------------------------------------

def fancy_gather(reference, origin, d, du_values, dv_values, orientation):
    """Fancy-index gather of every shifted window's diagonal samples."""
    x0, y0 = origin
    k = np.arange(d)
    row_off, col_off = (k, k) if orientation == "main" else (d - 1 - k, k)
    rows = (y0 + dv_values)[:, None] + row_off[None, :]
    cols = (x0 + du_values)[:, None] + col_off[None, :]
    return reference[rows[:, None, :], cols[None, :, :]]


def four_corner_sample(centers_x, centers_y, values, query_x, query_y):
    """Bilinear interpolation as the blend of four gathered corner grids."""
    def axis(centers, queries):
        q = np.clip(queries, centers[0], centers[-1])
        if len(centers) == 1:
            zero = np.zeros(len(q), dtype=np.int64)
            return zero, zero, np.zeros(len(q))
        idx = np.clip(np.searchsorted(centers, q, side="right") - 1, 0, len(centers) - 2)
        return idx, idx + 1, (q - centers[idx]) / (centers[idx + 1] - centers[idx])

    j0, j1, wx = axis(centers_x, query_x)
    i0, i1, wy = axis(centers_y, query_y)
    return (
        values[np.ix_(i0, j0)] * ((1.0 - wy)[:, None] * (1.0 - wx)[None, :])
        + values[np.ix_(i0, j1)] * ((1.0 - wy)[:, None] * wx[None, :])
        + values[np.ix_(i1, j0)] * (wy[:, None] * (1.0 - wx)[None, :])
        + values[np.ix_(i1, j1)] * (wy[:, None] * wx[None, :])
    )


def indices_warp(template, du, dv):
    """Inverse-mapping bilinear warp from np.indices, floor/clip and four gathers."""
    h, w = template.shape
    ys, xs = np.indices((h, w))
    sx = xs - du
    sy = ys - dv
    mask = (sx >= 0) & (sx <= w - 1) & (sy >= 0) & (sy <= h - 1)
    x0 = np.clip(np.floor(sx), 0, w - 1).astype(np.int64)
    y0 = np.clip(np.floor(sy), 0, h - 1).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    wx = np.clip(sx - x0, 0.0, 1.0)
    wy = np.clip(sy - y0, 0.0, 1.0)
    out = (
        template[y0, x0] * (1.0 - wy) * (1.0 - wx)
        + template[y0, x1] * (1.0 - wy) * wx
        + template[y1, x0] * wy * (1.0 - wx)
        + template[y1, x1] * wy * wx
    )
    out[~mask] = 0.0
    return out, mask


# -- validation contract ---------------------------------------------------

BLOCK = 8
KERNEL_SHIFTS = ShiftRange(-4, 3, -2, 5)


def _run_kernel(name, block, ref, origin, tables_from):
    if name == "ncc_full_fast":
        return ncc_full_fast(block, ref, origin, KERNEL_SHIFTS, build_sum_tables(tables_from))
    tables = build_diag_tables(tables_from)
    if name == "ncc_diag_fast":
        return ncc_diag_fast(block, ref, origin, KERNEL_SHIFTS, tables)
    return ncc_stream(block, ref, origin, KERNEL_SHIFTS, tables=tables)


def _read_region(origin, ref_shape):
    """(top, bottom, left, right) of the reference pixels a kernel reads."""
    du_lo, du_hi, dv_lo, dv_hi = _inbounds_ranges(origin, (BLOCK, BLOCK), ref_shape, KERNEL_SHIFTS)
    x0, y0 = origin
    return y0 + dv_lo, y0 + dv_hi + BLOCK, x0 + du_lo, x0 + du_hi + BLOCK


KERNELS = ("ncc_diag_fast", "ncc_stream", "ncc_full_fast")
# An interior origin, and one whose shift range is clipped at the top-left.
ORIGINS = ((14, 11), (2, 1))


class TestKernelValidation:
    @pytest.mark.parametrize("kernel", KERNELS)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_non_finite_in_read_region_raises(self, kernel, data):
        clean = random_image(11, 32, 36)
        origin = data.draw(st.sampled_from(ORIGINS))
        top, bottom, left, right = _read_region(origin, clean.shape)
        y = data.draw(st.integers(top, bottom - 1))
        x = data.draw(st.integers(left, right - 1))
        ref = clean.copy()
        ref[y, x] = data.draw(st.sampled_from(NON_FINITE))
        block = clean[origin[1]:origin[1] + BLOCK, origin[0]:origin[0] + BLOCK]
        with pytest.raises(ValueError, match="reference contains non-finite"):
            _run_kernel(kernel, block, ref, origin, clean)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_in_template_block_raises(self, kernel, value):
        ref = random_image(12, 32, 36)
        block = ref[10:18, 12:20].copy()
        block[3, 5] = value
        with pytest.raises(ValueError, match="template_block contains non-finite"):
            _run_kernel(kernel, block, ref, (12, 10), ref)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_pixels_outside_read_region_are_not_scanned(self, kernel):
        clean = random_image(13, 32, 36)
        origin = (14, 11)
        top, bottom, left, right = _read_region(origin, clean.shape)
        ref = clean.copy()
        ref[bottom:, :] = np.nan
        ref[:top, :] = np.nan
        ref[:, right:] = np.inf
        ref[:, :left] = -np.inf
        block = clean[origin[1]:origin[1] + BLOCK, origin[0]:origin[0] + BLOCK]
        got = _run_kernel(kernel, block, ref, origin, clean)
        want = _run_kernel(kernel, block, clean, origin, clean)
        np.testing.assert_array_equal(got.validity, want.validity)
        np.testing.assert_array_equal(got.values, want.values)


class TestBoundaryValidation:
    @given(y=st.integers(0, 47), x=st.integers(0, 47), value=st.sampled_from(NON_FINITE))
    @settings(max_examples=20, deadline=None)
    def test_table_builders_reject_non_finite_anywhere(self, y, x, value):
        ref = random_image(21, 48, 48)
        ref[y, x] = value
        with pytest.raises(ValueError, match="non-finite"):
            build_diag_tables(ref)
        with pytest.raises(ValueError, match="non-finite"):
            build_sum_tables(ref)

    @pytest.mark.parametrize("method", ("full-fast", "diag-fast", "stream"))
    @pytest.mark.parametrize("target", ("template", "reference"))
    def test_estimate_disparity_rejects_nan_anywhere(self, method, target):
        template = random_image(22, 48, 48)
        reference = random_image(23, 48, 48)
        grid = partition_template(template, 16, 0.10)
        # (0, 47) is in the cropped margin: no block or shifted window reads it.
        image = template if target == "template" else reference
        image[0, 47] = np.nan
        with pytest.raises(ValueError, match=f"{target} contains non-finite"):
            estimate_disparity(template, reference, grid, method, ShiftRange.symmetric(2))


# -- strided diagonal gather -----------------------------------------------

@st.composite
def gather_cases(draw):
    """A reference (sometimes a strided view), a block size and an in-bounds
    shift run, clipped at the image edge like the kernels clip it."""
    h = draw(st.integers(1, 24))
    w = draw(st.integers(1, 24))
    d = draw(st.integers(1, min(h, w)))
    n = max(h, w)
    base = random_image(draw(st.integers(0, 1000)), 2 * n, 3 * n)
    layout = draw(st.sampled_from(("contiguous", "strided", "transposed")))
    if layout == "contiguous":
        reference = base[:h, :w].copy()
    elif layout == "strided":
        reference = base[::2, ::3][:h, :w]
    else:
        reference = np.ascontiguousarray(base[:w, :h]).T
    x0 = draw(st.integers(0, w - d))
    y0 = draw(st.integers(0, h - d))
    shifts = ShiftRange(
        draw(st.integers(-8, 0)), draw(st.integers(0, 8)),
        draw(st.integers(-8, 0)), draw(st.integers(0, 8)),
    )
    du_lo, du_hi, dv_lo, dv_hi = _inbounds_ranges((x0, y0), (d, d), (h, w), shifts)
    orientation = draw(st.sampled_from(("main", "anti")))
    return reference, (x0, y0), d, (du_lo, du_hi, dv_lo, dv_hi), orientation


class TestStridedGather:
    @given(case=gather_cases())
    @settings(max_examples=200, deadline=None)
    def test_equals_fancy_index_gather(self, case):
        reference, origin, d, (du_lo, du_hi, dv_lo, dv_hi), orientation = case
        dus = np.arange(du_lo, du_hi + 1)
        dvs = np.arange(dv_lo, dv_hi + 1)
        got = gather_window_diagonals(reference, origin, d, dus, dvs, orientation)
        want = fancy_gather(reference, origin, d, dus, dvs, orientation)
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)

    @given(case=gather_cases(), side=st.sampled_from(("left", "right", "top", "bottom")))
    @settings(max_examples=200, deadline=None)
    def test_range_leaving_reference_raises(self, case, side):
        reference, origin, d, (du_lo, du_hi, dv_lo, dv_hi), orientation = case
        h, w = reference.shape
        x0, y0 = origin
        # Extend the run on one side up to exactly one window past the edge.
        if side == "left":
            du_lo = -x0 - 1
        elif side == "right":
            du_hi = w - d - x0 + 1
        elif side == "top":
            dv_lo = -y0 - 1
        else:
            dv_hi = h - d - y0 + 1
        dus = np.arange(du_lo, du_hi + 1)
        dvs = np.arange(dv_lo, dv_hi + 1)
        with pytest.raises(ValueError, match="leave the"):
            gather_window_diagonals(reference, origin, d, dus, dvs, orientation)

    @given(case=gather_cases())
    @settings(max_examples=50, deadline=None)
    def test_origin_outside_reference_raises(self, case):
        reference, _, d, _, orientation = case
        h, w = reference.shape
        for origin in ((-1, 0), (0, -1), (w - d + 1, 0), (0, h - d + 1)):
            with pytest.raises(ValueError, match="leave the"):
                gather_window_diagonals(reference, origin, d, np.arange(0, 1), np.arange(0, 1),
                                        orientation)

    @pytest.mark.parametrize("dus", ([0, 2], [1, 0], [], [[0, 1]]))
    def test_non_consecutive_shifts_rejected(self, dus):
        reference = random_image(31, 16, 16)
        with pytest.raises(ValueError, match="consecutive"):
            gather_window_diagonals(reference, (4, 4), 4, np.asarray(dus, dtype=np.int64),
                                    np.arange(0, 2), "main")


# -- separable grid interpolation ------------------------------------------

@st.composite
def grid_cases(draw):
    nx = draw(st.integers(1, 8))
    ny = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    cx = np.cumsum(rng.uniform(0.5, 40.0, nx)) - 10.0
    cy = np.cumsum(rng.uniform(0.5, 40.0, ny)) - 10.0
    values = rng.uniform(-20.0, 20.0, (ny, nx))
    qx = np.arange(draw(st.integers(1, 120)), dtype=np.float64) - 20.0
    qy = rng.uniform(-30.0, cy[-1] + 30.0, draw(st.integers(1, 60)))
    return cx, cy, values, qx, qy


class TestSeparableInterpolation:
    @given(case=grid_cases())
    @settings(max_examples=200, deadline=None)
    def test_within_rounding_of_four_corner_blend(self, case):
        got = bilinear_grid_sample(*case)
        want = four_corner_sample(*case)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12

    @given(seed=st.integers(0, 10_000), block=st.sampled_from((16, 32, 64, 128)))
    @settings(max_examples=30, deadline=None)
    def test_exact_on_block_centres_with_integer_shifts(self, seed, block):
        # Block centres sit at half pixels, so the weights are exact binary
        # fractions and integer block shifts blend without rounding.
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(1, 6, 2)
        cx = 7 + np.arange(cols) * block + (block - 1) / 2.0
        cy = 5 + np.arange(rows) * block + (block - 1) / 2.0
        values = rng.integers(-16, 17, (rows, cols)).astype(np.float64)
        qx = np.arange(cols * block + 14, dtype=np.float64)
        qy = np.arange(rows * block + 10, dtype=np.float64)
        np.testing.assert_array_equal(bilinear_grid_sample(cx, cy, values, qx, qy),
                                      four_corner_sample(cx, cy, values, qx, qy))


# -- bilinear warp ---------------------------------------------------------

@st.composite
def warp_cases(draw):
    h = draw(st.integers(1, 24))
    w = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    template = rng.random((h, w))
    reach = draw(st.sampled_from((0.5, 2.0, 8.0, 30.0)))
    kind = draw(st.sampled_from(("random", "integer", "quarter")))
    fields = rng.uniform(-reach, reach, (2, h, w))
    if kind == "integer":
        fields = np.round(fields)
    elif kind == "quarter":
        fields = np.round(fields * 4.0) / 4.0
    return template, fields[0], fields[1]


class TestMapCoordinatesWarp:
    @given(case=warp_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_indices_warp(self, case):
        template, du, dv = case
        got, got_mask = warp(template, DenseDisparity(du=du, dv=dv))
        want, want_mask = indices_warp(template, du, dv)
        np.testing.assert_array_equal(got_mask, want_mask)
        np.testing.assert_array_equal(got, want)

    def test_mask_marks_samples_outside_template(self):
        template = random_image(41, 6, 7)
        du = np.full((6, 7), 2.5)
        dv = np.full((6, 7), -1.0)
        out, mask = warp(template, DenseDisparity(du=du, dv=dv))
        # x - 2.5 >= 0 needs x >= 3; y + 1 <= 5 needs y <= 4.
        expected = np.zeros((6, 7), dtype=bool)
        expected[:5, 3:] = True
        np.testing.assert_array_equal(mask, expected)
        assert np.all(out[~mask] == 0.0)


# -- PGM quantization ------------------------------------------------------

class TestPgmQuantization:
    @pytest.mark.parametrize("maxval", (255, 65535))
    def test_equals_clamped_int64_quantization(self, tmp_path, maxval):
        rng = np.random.default_rng(maxval)
        image = rng.uniform(-0.2, 1.2, (37, 41))
        image[0, :6] = [0.0, 1.0, np.nextafter(1.0, 2.0), -0.0, 0.5 / maxval, 1.0 - 0.5 / maxval]
        path = tmp_path / "q.pgm"
        save_pgm(image, path, maxval=maxval)
        quantized = np.minimum(np.floor(np.clip(image, 0.0, 1.0) * maxval + 0.5).astype(np.int64), maxval)
        dtype = np.dtype(">u2") if maxval == 65535 else np.dtype("u1")
        assert path.read_bytes().endswith(quantized.astype(dtype).tobytes())
        np.testing.assert_array_equal(load_pgm(path), quantized / maxval)
