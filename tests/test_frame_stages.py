"""Per-frame stages that do each whole-image pass once, in cache-sized
chunks of rows.

The warp and the dense interpolation loop over bands (chunks) of rows on
the calling thread; the correlation sums chunks of rows in two passes,
with no masked copy, and centres the reference side once for a tuple of
images; the diagonal tables hold the one orientation a run reads; PGM
files are checked, quantised and read a chunk at a time. Each stage has
one test-local reference: the ``np.indices`` warp and a whole-array
separable interpolation with its own axis lookup (both compared bit for
bit), the whole-array quantisation and normalisation, the masked-copy
correlation and one ``global_correlation`` call per image.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nccalign import (
    UndefinedMetricError,
    build_diag_tables,
    global_correlation,
    load_pgm,
    save_pgm,
    validate_image,
)
from nccalign import alignment, images
from nccalign.alignment import DenseDisparity, DisparityField, warp

from conftest import random_image


# -- bilinear warp ---------------------------------------------------------

def indices_warp(template, du, dv):
    """Inverse-mapping bilinear warp from np.indices, floor/clip and four gathers."""
    h, w = template.shape
    ys, xs = np.indices((h, w))
    sx, sy = xs - du, ys - dv
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


def assert_warp_bits(got, got_mask, template, du, dv):
    """``got`` and ``got_mask`` equal :func:`indices_warp`'s bit for bit; a
    pixel with a non-finite shift is 0 and masked out."""
    bad = ~(np.isfinite(du) & np.isfinite(dv))
    want, want_mask = indices_warp(template, np.where(bad, 0.0, du), np.where(bad, 0.0, dv))
    want[bad], want_mask[bad] = 0.0, False
    np.testing.assert_array_equal(got_mask, want_mask)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


# Sample coordinates a uniform field rarely hits: "halves" are integral and
# half-integral, "last" lie exactly on the last column and row for about
# half the pixels, "zeros" are shifts of +0.0 and -0.0, and "-0.0 template"
# puts -0.0 in about half the template under a "halves" field. "tiles" is
# constant on squares of 1 to 12 pixels but for a few pixels, each square
# one of: an integral or half-integral shift, +-0.0, a shift past the
# template's edge, NaN, +-inf or +-1e300. Its template is half +-0.0 and
# half uniform on [-1, 1), so a copied zero's +0-weighted taps have either
# sign; tiles at zero shift read the last row's and column's taps.
WARP_KINDS = ("uniform", "halves", "last", "zeros", "-0.0 template", "tiles")


def _tile_fields(rng, h, w, reach):
    """du and dv constant on the same squares of 1 to 12 pixels, but for
    about one pixel in 50 set half a pixel off (see WARP_KINDS)."""
    side = int(rng.integers(1, 13))
    pool = np.concatenate((np.arange(-np.ceil(reach), np.ceil(reach) + 1), [0.5, -1.5, 2.5, 0.0, -0.0],
                           [w + 2.0, -h - 3.0, np.nan, np.inf, -np.inf, 1e300, -1e300]))
    weights = np.concatenate((np.full(len(pool) - 7, 8.0), np.ones(7)))
    pieces = rng.choice(pool, (2, -(-h // side), -(-w // side)), p=weights / weights.sum())
    fields = np.repeat(np.repeat(pieces, side, axis=1), side, axis=2)[:, :h, :w]
    return np.where(rng.random((2, h, w)) < 0.02, fields + 0.5, fields)


def _warp_case(seed, h, w, reach, kind="uniform"):
    rng = np.random.default_rng(seed)
    template = rng.random((h, w))
    du, dv = rng.uniform(-reach, reach, (2, h, w))
    pick = rng.random((2, h, w)) < 0.5
    if kind in ("halves", "-0.0 template"):
        du, dv = np.round(2 * du) / 2, np.round(2 * dv) / 2
    if kind == "-0.0 template":
        template[pick[0]] = -0.0
    elif kind == "last":
        du = np.where(pick[0], np.arange(w) - (w - 1.0), du)
        dv = np.where(pick[1], np.arange(h)[:, None] - (h - 1.0), dv)
    elif kind == "zeros":
        du, dv = np.where(pick, 0.0, -0.0)
    elif kind == "tiles":
        template = np.where(pick[0], rng.choice((0.0, -0.0), (h, w)), rng.uniform(-1.0, 1.0, (h, w)))
        du, dv = _tile_fields(rng, h, w, reach)
    return template, du, dv


class TestWarpBands:
    @pytest.mark.parametrize("kind", WARP_KINDS)
    @pytest.mark.parametrize("band", (1, 2, 3, 8))
    @pytest.mark.parametrize("h, w, reach", ((1, 9, 3.0), (2, 5, 1.5), (5, 7, 4.0), (6, 1, 2.0),
                                             (24, 19, 8.0), (37, 41, 30.0)))
    def test_equals_one_band_and_oracle(self, monkeypatch, band, h, w, reach, kind):
        # Bands of ``band`` rows and tiles of ``band + 2`` pixels, which
        # divide few of the sizes, against one band and one tile.
        template, du, dv = _warp_case(1000 * h + w, h, w, reach, kind)
        inputs = (template.copy(), du.copy(), dv.copy())
        want, want_mask = warp(template, DenseDisparity(du=du, dv=dv))
        monkeypatch.setattr(images, "CHUNK_PIXELS", band * w)
        monkeypatch.setattr(images, "TILE", band + 2)
        got, got_mask = warp(template, DenseDisparity(du=du, dv=dv))

        np.testing.assert_array_equal(got_mask, want_mask)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        assert_warp_bits(got, got_mask, template, du, dv)
        for before, after in zip(inputs, (template, du, dv)):
            np.testing.assert_array_equal(before, after)

    @pytest.mark.parametrize("kind", WARP_KINDS)
    @pytest.mark.parametrize("seed", (1, 3))
    @pytest.mark.parametrize("tile", (1, 4, images.TILE))
    @pytest.mark.parametrize("chunk", (1, 7, 40, images.CHUNK_PIXELS))
    def test_chunks_equal_oracle(self, monkeypatch, seed, chunk, tile, kind):
        # Chunks of one row, of a few rows, and one chunk for the image;
        # tiles of one pixel, of a few, and one tile for the image.
        monkeypatch.setattr(images, "CHUNK_PIXELS", chunk)
        monkeypatch.setattr(images, "TILE", tile)
        template, du, dv = _warp_case(seed, 29, 13, 9.0, kind)
        got, got_mask = warp(template, DenseDisparity(du=du, dv=dv))
        assert_warp_bits(got, got_mask, template, du, dv)

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
        assert got_mask[0, :2].all() and np.signbit(got[0, :2]).all()
        assert_warp_bits(got, got_mask, template, du, dv)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", (1, 2))
    def test_non_finite_field_masked_out(self, monkeypatch, seed):
        monkeypatch.setattr(images, "CHUNK_PIXELS", 30)
        template, du, dv = _warp_case(seed, 12, 10, 3.0)
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
        np.testing.assert_array_equal(got[~bad].view(np.uint64), oracle[~bad].view(np.uint64))


@st.composite
def warp_cases(draw):
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
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
        assert_warp_bits(got, got_mask, template, du, dv)

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


# -- separable grid interpolation ------------------------------------------

def separable_sample(centers_x, centers_y, values, query_x, query_y):
    """Bilinear interpolation as one whole-array y-blend, then one x-blend,
    with its own axis lookup: a query is clamped to the span of the centres,
    its lower centre is the last one at or below it short of the final one,
    and its weight is its fraction of the way to the next centre."""
    def axis(centers, queries):
        centers = np.asarray(centers, dtype=np.float64)
        q = np.minimum(np.maximum(np.asarray(queries, dtype=np.float64), centers[0]), centers[-1])
        lower = np.count_nonzero(centers[1:-1] <= q[:, None], axis=1)
        upper = np.minimum(lower + 1, len(centers) - 1)
        span = centers[upper] - centers[lower]
        return lower, upper, np.divide(q - centers[lower], span, out=np.zeros(len(q)), where=span > 0)

    j0, j1, wx = axis(centers_x, query_x)
    i0, i1, wy = axis(centers_y, query_y)
    rows = values[i0] * (1.0 - wy)[:, None] + values[i1] * wy[:, None]
    return rows[:, j0] * (1.0 - wx) + rows[:, j1] * wx


def assert_sample_bits(got, want):
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _grid_values(rng, ny, nx, kind):
    """Samples of a ``ny`` x ``nx`` grid. "uniform" is uniform on [-8, 8).
    "tiles" repeats one row of integral and half-integral values, NaN,
    +-1e300 and +-0.0 (the first column is a zero), with the signs of its
    zeros flipped in the bottom half: bands of query rows blend alike, and
    between them is a band that blends alike but for the sign of a zero."""
    if kind == "uniform":
        return rng.uniform(-8, 8, (ny, nx))
    row = rng.choice((0.0, -0.0, -3.0, 0.5, 2.0, np.nan, 1e300, -1e300), nx)
    row[0] = rng.choice((0.0, -0.0))
    values = np.repeat(row[None], ny, axis=0)
    values[ny // 2:] = np.where(row == 0.0, -row, row)
    return values


class TestBandedInterpolation:
    @pytest.mark.parametrize("kind", ("uniform", "tiles"))
    @pytest.mark.parametrize("ny, nx", ((4, 5), (1, 5), (4, 1)))
    @pytest.mark.parametrize("seed", (1, 2, 3))
    @pytest.mark.parametrize("chunk", (1, 50, images.CHUNK_PIXELS))
    @pytest.mark.parametrize("height, width", ((1, 1), (1, 70), (45, 1), (31, 37)))
    def test_equals_separable_sample(self, monkeypatch, seed, chunk, height, width, ny, nx, kind):
        # "tiles" puts the centres at half pixels 8 apart, like a block
        # grid's, so the weights are exact and equal rows blend to equal bits.
        monkeypatch.setattr(images, "CHUNK_PIXELS", chunk)
        rng = np.random.default_rng((seed, height, width))
        if kind == "tiles":
            cx, cy = np.arange(nx) * 8.0 + 3.5, np.arange(ny) * 8.0 + 3.5
        else:
            cx, cy = np.sort(rng.uniform(0, width, nx)), np.sort(rng.uniform(0, height, ny))
        values = _grid_values(rng, ny, nx, kind)
        qx = np.arange(width, dtype=np.float64)
        qy = np.arange(height, dtype=np.float64)
        assert_sample_bits(alignment.bilinear_grid_sample(cx, cy, values, qx, qy),
                           separable_sample(cx, cy, values, qx, qy))

    def test_full_size_field_equals_separable_sample(self):
        # A 400 x 200 field spans several chunks of rows.
        field = DisparityField(*np.random.default_rng(6).uniform(-4, 4, (2, 5, 6)),
                               coeff=np.ones((5, 6)), status=np.zeros((5, 6), dtype=np.uint8))
        grid = alignment.BlockGrid(block_size=32, margin_x=4, margin_y=15, rows=5, cols=6)
        dense = alignment.interpolate_disparity(field, grid, (200, 400))
        cx, cy = grid.center_coords()
        qx, qy = np.arange(200, dtype=np.float64), np.arange(400, dtype=np.float64)
        assert_sample_bits(dense.du, separable_sample(cx, cy, field.du, qx, qy))
        assert_sample_bits(dense.dv, separable_sample(cx, cy, field.dv, qx, qy))


@st.composite
def grid_cases(draw):
    nx, ny = draw(st.integers(1, 8)), draw(st.integers(1, 8))
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
    def test_bit_equal_to_separable_sample(self, case):
        assert_sample_bits(alignment.bilinear_grid_sample(*case), separable_sample(*case))

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
        assert_sample_bits(alignment.bilinear_grid_sample(cx, cy, values, qx, qy),
                           separable_sample(cx, cy, values, qx, qy))


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


# -- chunked correlation ----------------------------------------------------

def masked_copy_correlation(a, b, mask=None):
    """The masked-copy formula that the chunked correlation replaced."""
    bc = b[mask] if mask is not None else b.flatten()
    bc -= bc.mean()
    var_b = float(np.sum(bc * bc))
    ac = a[mask] if mask is not None else a.flatten()
    ac -= ac.mean()
    var_a = float(np.sum(ac * ac))
    ac *= bc
    return float(np.sum(ac)) / math.sqrt(var_a * var_b)


def _correlated(seed, h, w):
    """An image pair whose correlation is well away from 0."""
    rng = np.random.default_rng(seed)
    b = rng.random((h, w))
    return rng.uniform(0.2, 0.8) * b + rng.random((h, w)), b


class TestChunkedCorrelation:
    @pytest.mark.parametrize("masked", (False, True))
    @pytest.mark.parametrize("seed, h, w", ((1, 8, 8), (2, 33, 29), (3, 300, 7), (4, 2, 500), (5, 181, 203)))
    def test_equals_masked_copy_formula(self, masked, seed, h, w):
        a, b = _correlated(seed, h, w)
        mask = np.random.default_rng(seed + 50).random((h, w)) > 0.3 if masked else None
        assert global_correlation(a, b, mask) == pytest.approx(masked_copy_correlation(a, b, mask), rel=1e-12)

    def test_full_size_warp_mask(self):
        # A 1920 x 1080 frame: the template, its warp and the warp's mask.
        rng = np.random.default_rng(11)
        template = rng.random((1080, 1920))
        du, dv = rng.uniform(-12.0, 12.0, (2, 1080, 1920))
        du += 6.0
        warped, mask = warp(template, DenseDisparity(du=du, dv=dv))
        assert 0 < np.count_nonzero(~mask) < mask.size // 4
        reference = 0.6 * warped + 0.4 * rng.random((1080, 1920))
        got = global_correlation((template, warped), reference, mask)
        for image, value in zip((template, warped), got):
            assert value == pytest.approx(masked_copy_correlation(image, reference, mask), rel=1e-12)

    @pytest.mark.parametrize("masked", (False, True))
    @pytest.mark.parametrize("height", (1, 3, 4, 5))
    def test_chunk_seams(self, monkeypatch, masked, height):
        # Chunks of 4 rows: one short chunk, one chunk less a row, exactly
        # one chunk, and one chunk and a row.
        monkeypatch.setattr(images, "CHUNK_PIXELS", 4 * 9)
        assert images.chunk_rows(height, 9) == min(4, height)
        a, b = _correlated(100 + height, height, 9)
        mask = np.ones((height, 9), dtype=bool)
        if masked:
            mask[:, ::4] = False
        assert global_correlation(a, b, mask) == pytest.approx(masked_copy_correlation(a, b, mask), rel=1e-12)
        assert global_correlation((b, a), b, mask) == (1.0, global_correlation(a, b, mask))

    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("where", ("first chunk", "last chunk", "masked out"))
    @pytest.mark.parametrize("side", ("a", "tuple a", "b"))
    def test_non_finite_pixel_names_its_image(self, monkeypatch, value, where, side):
        monkeypatch.setattr(images, "CHUNK_PIXELS", 3 * 10)
        a, b = _correlated(12, 10, 10)
        mask = np.ones((10, 10), dtype=bool)
        mask[5, 5] = False
        bad = b if side == "b" else a
        bad[{"first chunk": (1, 2), "last chunk": (9, 0), "masked out": (5, 5)}[where]] = value
        first = (b, a) if side == "tuple a" else a
        with pytest.raises(ValueError) as info:
            global_correlation(first, b, mask)
        assert str(info.value) == f"{side[-1]} contains non-finite intensities"

    @pytest.mark.parametrize("masked", (False, True))
    def test_self_correlation_exact_and_inputs_unmodified(self, monkeypatch, masked):
        monkeypatch.setattr(images, "CHUNK_PIXELS", 5 * 23)
        image = random_image(13, 41, 23)
        mask = image > 0.3 if masked else None
        before = [image.copy()] + ([mask.copy()] if masked else [])
        assert global_correlation((image, image), image, mask) == (1.0, 1.0)
        assert global_correlation(image, image.copy(), mask) == 1.0
        for kept, now in zip(before, (image, mask)):
            np.testing.assert_array_equal(kept, now)

    def test_full_size_call_needs_no_full_size_buffer(self):
        a, b = _correlated(14, 1080, 1920)
        warped = 0.5 * (a + b)
        mask = np.ones((1080, 1920), dtype=bool)
        mask[:, :40] = False
        tracemalloc.start()
        try:
            global_correlation((a, warped), b, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024

    @pytest.mark.parametrize("masked", (False, True))
    @pytest.mark.parametrize("side", ("a", "b"))
    @pytest.mark.parametrize("shape", ((8, 8), (1080, 1920)))
    @pytest.mark.parametrize("level", (0.1, 0.3, 1 / 3, 0.7, 1.0))
    def test_flat_image_rejected_at_any_level(self, level, shape, side, masked):
        # Centring a flat image on its rounded mean leaves a variance of
        # rounding size, not 0, at most levels.
        rng = np.random.default_rng(15)
        flat, textured = np.full(shape, level), rng.random(shape)
        mask = rng.random(shape) > 0.2 if masked else None
        a, b = (flat, textured) if side == "a" else (textured, flat)
        with pytest.raises(UndefinedMetricError, match="zero variance"):
            global_correlation(a, b, mask)

    def test_one_quantum_is_not_flat(self):
        image = np.full((1080, 1920), 0.5)
        image[540, 960] += 1 / 65535
        assert global_correlation(image, image) == 1.0

    @pytest.mark.parametrize("dtype", (np.int64, np.uint8, np.float64))
    def test_non_boolean_mask_rejected(self, dtype):
        a, b = _correlated(16, 12, 12)
        mask = np.zeros((12, 12), dtype=bool)
        mask[2:9, 3:11] = True
        with pytest.raises(TypeError, match=np.dtype(dtype).name):
            global_correlation(a, b, mask.astype(dtype))
        assert global_correlation(a, b, mask) == pytest.approx(masked_copy_correlation(a, b, mask), rel=1e-12)

    @pytest.mark.parametrize("scale", (1e200, 1e306))
    def test_overflowing_sums_rejected(self, scale):
        # Squares overflow at 1e200, the pixel sums themselves at 1e306.
        a, b = _correlated(17, 40, 40)
        with pytest.raises(UndefinedMetricError, match="overflow"):
            global_correlation(a, scale * b)


# -- one-orientation diagonal tables --------------------------------------

class TestOrientationTables:
    @pytest.mark.parametrize("orientations", ("", "sideways", ("main",)),
                             ids=("orientations0", "orientations1", "orientations2"))
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
    np.testing.assert_array_equal(image, before)


def normalised_pgm_body(image):
    """The whole-array rule the CLI's disparity maps follow: scaled onto
    [0, 1] by their min and max (0.5 everywhere if flat), then quantised."""
    lo, hi = image.min(), image.max()
    return whole_array_pgm_body((image - lo) / (hi - lo) if hi > lo else np.full_like(image, 0.5), 255)


# Heights and widths on both sides of one chunk (images.CHUNK_PIXELS).
CHUNK_SHAPES = ((1, 1), (1, 40_000), (32_768, 1), (32_769, 1), (128, 256), (129, 256), (200, 170), (3, 33_000))


class TestChunkedPgm:
    @pytest.mark.parametrize("maxval", (255, 65535))
    @pytest.mark.parametrize("shape", CHUNK_SHAPES)
    def test_save_equals_whole_array_quantisation(self, tmp_path, maxval, shape):
        image = np.random.default_rng(shape[0] * 7 + shape[1]).uniform(-0.3, 1.3, shape)
        image.flat[:6] = [1.0, 0.0, 0.5 / maxval, 1.0 - 0.5 / maxval, np.nextafter(1.0, 2.0), -0.0][:image.size]
        path = tmp_path / "q.pgm"
        save_pgm(image, path, maxval=maxval)
        header = f"P5\n{shape[1]} {shape[0]}\n{maxval}\n".encode("ascii")
        assert path.read_bytes() == header + whole_array_pgm_body(image, maxval)

    @pytest.mark.parametrize("shape", CHUNK_SHAPES)
    def test_normalised_save_equals_whole_array_normalisation(self, tmp_path, shape):
        image = np.random.default_rng(shape[0] * 5 + shape[1]).uniform(-4.0, 6.0, shape)
        before = image.copy()
        path = tmp_path / "n.pgm"
        save_pgm(image, path, _normalize=True)
        header = f"P5\n{shape[1]} {shape[0]}\n255\n".encode("ascii")
        assert path.read_bytes() == header + normalised_pgm_body(image)
        np.testing.assert_array_equal(image, before)

    def test_flat_map_saves_as_half(self, tmp_path):
        path = tmp_path / "flat.pgm"
        save_pgm(np.full((6, 5), -2.5), path, _normalize=True)
        assert path.read_bytes() == b"P5\n5 6\n255\n" + bytes([128]) * 30

    # A single value goes to ``where`` alone; a pair goes to ``where`` and the
    # pixel beside it in the same chunk (the first or the last of 200 x 170).
    # inf with -inf sums to NaN; two 1e308 pixels are finite but their sum
    # overflows, so only the exact per-pixel scan can pass them.
    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf, (np.inf, -np.inf), (1e308, 1e308)),
                             ids=("nan", "inf", "-inf", "inf and -inf", "overflowing sum"))
    @pytest.mark.parametrize("where", ((0, 0), (199, 169), (195, 3)))
    def test_non_finite_raises_before_file_exists(self, tmp_path, value, where):
        image = np.random.default_rng(15).random((200, 170))
        y, x = where
        if isinstance(value, tuple):
            image[y, x], image[y, x ^ 1] = value
        else:
            image[where] = value
        path = tmp_path / "bad.pgm"
        if np.all(np.isfinite(value)):
            assert validate_image(image) is image
            save_pgm(image, path)
            assert path.read_bytes() == b"P5\n170 200\n255\n" + whole_array_pgm_body(image, 255)
            return
        with pytest.raises(ValueError, match="^image contains non-finite intensities$"):
            build_diag_tables(image)
        with pytest.raises(ValueError, match="^image contains non-finite intensities$"):
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
