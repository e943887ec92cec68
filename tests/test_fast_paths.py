"""The validation contract and the fast paths, pinned to the formulas they replaced.

Whole images are validated where they enter a stage that reads every
pixel (``estimate_disparity``, ``build_diag_tables``, ``build_sum_tables``,
``warp``, ``global_correlation``); ``partition_template`` reads the shape
only, and each kernel validates its template block and the reference region
it reads. So a frame still scans whole images several times. The strided
window view that both diagonal kernels read is compared with a test-local
fancy-index gather, and the strided numerators of ``ncc_diag_fast`` with
that gather times the centred template diagonal. The FFT numerator of
``ncc_full_fast`` is compared with ``ncc_full_naive``, at small odd and
even sizes and at 1920x1080. The warp, the interpolation and the PGM
quantisation are checked in ``test_frame_stages.py``, next to their
chunked passes.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nccalign import (
    OUT_OF_BOUNDS,
    VALID,
    ShiftRange,
    SyntheticSpec,
    build_diag_tables,
    build_sum_tables,
    estimate_disparity,
    make_synthetic_stereo,
    ncc_diag_fast,
    ncc_full_fast,
    ncc_full_naive,
    ncc_stream,
    partition_template,
    quadrant_pattern,
)
from nccalign.diagonal import DiagTables, _window_view
from nccalign.ncc import _correlation_map, _inbounds_ranges, _open_kernel

from conftest import random_image

NON_FINITE = (np.nan, np.inf, -np.inf)


# -- validation contract ---------------------------------------------------

BLOCK = 8
KERNEL_SHIFTS = ShiftRange(-4, 3, -2, 5)


def _run_kernel(name, block, ref, origin, tables_from):
    if name == "ncc_full_fast":
        return ncc_full_fast(block, ref, origin, KERNEL_SHIFTS, build_sum_tables(tables_from))
    tables = build_diag_tables(tables_from)
    if name == "ncc_diag_fast":
        return ncc_diag_fast(block, ref, origin, KERNEL_SHIFTS, tables)
    return ncc_stream(block, ref, origin, KERNEL_SHIFTS, tables)


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


class TestStackedValidation:
    """A stacked call checks every block and, once, the bounding box of the
    regions its blocks read."""

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_non_finite_in_any_block_raises(self, kernel):
        ref = random_image(14, 32, 36)
        blocks = [ref[y:y + BLOCK, x:x + BLOCK].copy() for x, y in ORIGINS]
        blocks[1][2, 3] = np.nan
        with pytest.raises(ValueError, match="template_block contains non-finite"):
            _run_kernel(kernel, blocks, ref, list(ORIGINS), ref)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_non_finite_in_bounding_box_raises(self, kernel):
        # Between the two blocks' read regions, inside their bounding box.
        clean = random_image(15, 32, 36)
        (_, bottom, _, right), (top, _, left, _) = (_read_region(o, clean.shape)
                                                    for o in ((2, 1), (24, 20)))
        assert bottom < top and right < left
        ref = clean.copy()
        ref[bottom, right] = np.inf
        blocks = [clean[y:y + BLOCK, x:x + BLOCK] for x, y in ((2, 1), (24, 20))]
        with pytest.raises(ValueError, match="reference contains non-finite"):
            _run_kernel(kernel, blocks, ref, [(2, 1), (24, 20)], clean)
        for block, origin in zip(blocks, ((2, 1), (24, 20))):
            _run_kernel(kernel, block, ref, origin, clean)  # each region alone is finite

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_mismatched_stacks_rejected(self, kernel):
        ref = random_image(16, 32, 36)
        blocks = [ref[y:y + BLOCK, x:x + BLOCK] for x, y in ORIGINS]
        with pytest.raises(ValueError, match="2 template blocks for 1 origins"):
            _run_kernel(kernel, blocks, ref, [ORIGINS[0]], ref)
        with pytest.raises(ValueError, match="0 template blocks for 0 origins"):
            _run_kernel(kernel, [], ref, [], ref)
        with pytest.raises(ValueError, match="template blocks differ in shape"):
            _run_kernel(kernel, [blocks[0], ref[:BLOCK, :BLOCK - 1]], ref, list(ORIGINS), ref)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_stacked_map_holds_per_block_maps(self, kernel):
        ref = random_image(17, 32, 36)
        blocks = [ref[y:y + BLOCK, x:x + BLOCK] for x, y in ORIGINS]
        stacked = _run_kernel(kernel, blocks, ref, list(ORIGINS), ref)
        assert stacked.values.shape == (2, KERNEL_SHIFTS.n_dv, KERNEL_SHIFTS.n_du)
        for i, origin in enumerate(ORIGINS):
            single = _run_kernel(kernel, blocks[i], ref, origin, ref)
            np.testing.assert_array_equal(stacked.validity[i], single.validity)
            np.testing.assert_array_equal(stacked.values[i].view(np.uint64),
                                          single.values.view(np.uint64))


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

    def test_partition_template_reads_no_pixel(self):
        template = random_image(24, 48, 40)
        grid = partition_template(template, 16, 0.10)
        template[5, 7] = np.nan
        assert partition_template(template, 16, 0.10) == grid


# -- FFT numerator of ncc_full_fast ----------------------------------------

def assert_full_fast_equals_naive(block, reference, origin, shifts):
    """Equal validity maps, coefficients within 1e-9; returns the fast map."""
    naive = ncc_full_naive(block, reference, origin, shifts)
    fast = ncc_full_fast(block, reference, origin, shifts, build_sum_tables(reference))
    np.testing.assert_array_equal(naive.validity, fast.validity)
    assert np.abs(naive.values - fast.values).max() <= 1e-9
    return fast


@st.composite
def fft_cases(draw):
    """A non-square template in a small reference, with a shift range that
    the image edges may clip on any side, so the region the FFT covers has
    odd or even height and width."""
    th, tw = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    h, w = draw(st.integers(th, th + 15)), draw(st.integers(tw, tw + 15))
    seed = draw(st.integers(0, 1000))
    x0, y0 = draw(st.integers(0, w - tw)), draw(st.integers(0, h - th))
    shifts = ShiftRange(
        draw(st.integers(-8, 0)), draw(st.integers(0, 8)),
        draw(st.integers(-8, 0)), draw(st.integers(0, 8)),
    )
    return random_image(seed, th, tw), random_image(seed + 1, h, w), (x0, y0), shifts


class TestFftNumerator:
    @given(case=fft_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_naive(self, case):
        assert_full_fast_equals_naive(*case)

    @pytest.mark.parametrize("rows, cols", [(12, 15), (12, 16), (13, 15), (13, 16)])
    def test_odd_and_even_regions(self, rows, cols):
        # A 5 x 8 template at (4, 4) and ±4: the edges clip the range to
        # (rows - 4) x (cols - 7) shifts, which read the whole reference.
        block, reference = random_image(31, 5, 8), random_image(32, rows, cols)
        fast = assert_full_fast_equals_naive(block, reference, (4, 4), ShiftRange.symmetric(4))
        assert (fast.validity == VALID).sum() == (rows - 4) * (cols - 7)

    def test_hd_pair_blocks(self):
        spec = SyntheticSpec(
            width=1920, height=1080,
            regions=quadrant_pattern(1920, 1080, [(3, 5), (-4, 2), (6, -7), (-2, -6)]),
            texture_seed=7, noise_floor=0.01,
        )
        template, reference, _ = make_synthetic_stereo(spec)
        grid = partition_template(template, 128, 0.0)
        # The top-left corner, an interior block and the bottom-right corner.
        picked = {(0, 0), (grid.rows // 2, grid.cols // 2), (grid.rows - 1, grid.cols - 1)}
        edge_blocks = 0
        for _, _, x0, y0 in (o for o in grid.origins() if o[:2] in picked):
            block = template[y0:y0 + 128, x0:x0 + 128]
            fast = assert_full_fast_equals_naive(block, reference, (x0, y0), ShiftRange.symmetric(16))
            edge_blocks += bool((fast.validity == OUT_OF_BOUNDS).any())
        assert edge_blocks == 2

    def test_low_contrast_hd_reference(self):
        rng = np.random.default_rng(33)
        reference = 0.37 + 1e-2 * rng.standard_normal((1080, 1920))
        x0, y0 = 1760, 920  # far from the origin: the prefix sums are largest here
        block = reference[y0 + 3:y0 + 131, x0 - 5:x0 + 123].copy()
        fast = assert_full_fast_equals_naive(block, reference, (x0, y0), ShiftRange.symmetric(16))
        assert fast.validity[16 + 3, 16 - 5] == VALID and fast.values[16 + 3, 16 - 5] == pytest.approx(1.0)


# -- strided window view ---------------------------------------------------

def fancy_gather(reference, origin, d, du_values, dv_values, orientation):
    """Fancy-index gather of every shifted window's diagonal samples."""
    x0, y0 = origin
    k = np.arange(d)
    row_off, col_off = (k, k) if orientation == "main" else (d - 1 - k, k)
    rows = (y0 + dv_values)[:, None] + row_off[None, :]
    cols = (x0 + du_values)[:, None] + col_off[None, :]
    return reference[rows[:, None, :], cols[None, :, :]]


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
        # The view of the region that the in-bounds windows cover, as the
        # kernels slice it, read in sample order as the stream front end
        # reads it.
        reference, (x0, y0), d, bounds, orientation = case
        du_lo, du_hi, dv_lo, dv_hi = bounds
        region = reference[y0 + dv_lo:y0 + dv_hi + d, x0 + du_lo:x0 + du_hi + d]
        view = _window_view(region, d, orientation)
        got = (view if orientation == "main" else view[:, ::-1]).transpose(0, 2, 1)
        want = fancy_gather(reference, (x0, y0), d, np.arange(du_lo, du_hi + 1),
                            np.arange(dv_lo, dv_hi + 1), orientation)
        assert not view.flags.writeable
        np.testing.assert_array_equal(got, want)


# -- strided diagonal numerator of ncc_diag_fast ---------------------------

NUMERATOR_SHIFTS = ShiftRange.symmetric(16)


def numerator_reference(d, layout):
    """A (D + 48) x (D + 56) reference laid out in memory as ``layout``."""
    base = random_image(d + 41, d + 48, d + 56)
    if layout == "C":
        return base
    if layout == "F":
        return np.asfortranarray(base)
    return base[::-1] if layout == "rows reversed" else base[:, ::-1]


# (x0, y0) of a block whose ±16 shifts stay inside the (D + 48) x (D + 56)
# reference, and of one clipped at each edge.
NUMERATOR_ORIGINS = {
    "inside": (28, 24),
    "left": (5, 24),
    "right": (51, 24),
    "top": (28, 3),
    "bottom": (28, 45),
}


class TestStridedNumerator:
    """The numerators of ``ncc_diag_fast`` come from one matmul over a
    strided view of the reference region; the fancy-index gathered window
    diagonals times the centred template diagonal are their reference."""

    @pytest.mark.parametrize("edge", sorted(NUMERATOR_ORIGINS))
    @pytest.mark.parametrize("layout", ("C", "F", "rows reversed", "columns reversed"))
    @pytest.mark.parametrize("d", (8, 32, 128))
    @pytest.mark.parametrize("orientation", ("main", "anti"))
    def test_equals_gathered_numerators(self, orientation, d, layout, edge):
        reference = numerator_reference(d, layout)
        origin = NUMERATOR_ORIGINS[edge]
        block = random_image(d + 43, d, d)
        tables = build_diag_tables(reference, orientation)
        frame = _open_kernel(block, reference, origin, NUMERATOR_SHIFTS, None, DiagTables, tables)
        (inbounds, _, t_c, region), = frame.blocks
        r_var = frame.r_var[inbounds]
        bounds = _inbounds_ranges(origin, (d, d), reference.shape, NUMERATOR_SHIFTS)
        assert (bounds == (-16, 16, -16, 16)) == (edge == "inside")
        du_lo, du_hi, dv_lo, dv_hi = bounds
        samples = fancy_gather(reference, origin, d, np.arange(du_lo, du_hi + 1),
                               np.arange(dv_lo, dv_hi + 1), orientation)
        gathered = samples @ t_c
        # The kernel's product: the view holds anti sample D - 1 - k at k.
        got = (t_c if orientation == "main" else t_c[::-1]) @ _window_view(region, d, orientation)
        assert got.shape == gathered.shape == r_var.shape
        assert np.all(np.abs(got - gathered) <= 1e-12 * (np.abs(samples) @ np.abs(t_c)))

        fast = ncc_diag_fast(block, reference, origin, NUMERATOR_SHIFTS, tables)
        frame.values[inbounds] = gathered
        want = _correlation_map(NUMERATOR_SHIFTS, frame)
        np.testing.assert_array_equal(fast.validity, want.validity)
        assert np.abs(fast.values - want.values).max() <= 1e-12

    @pytest.mark.parametrize("orientation", ("main", "anti"))
    def test_paper_size_call_copies_no_window_diagonals(self, orientation):
        # Block 128 at ±16 has 33 x 33 = 1089 shifts: the gather the strided
        # product replaced copied a (1089, 128) float64 array per call.
        reference = random_image(47, 256, 256)
        block = random_image(48, 128, 128)
        tables = build_diag_tables(reference, orientation)
        ncc_diag_fast(block, reference, (64, 64), NUMERATOR_SHIFTS, tables)  # warm-up
        tracemalloc.start()
        try:
            ncc_diag_fast(block, reference, (64, 64), NUMERATOR_SHIFTS, tables)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1089 * 128 * 8 // 8
