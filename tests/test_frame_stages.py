"""Per-frame stages that do each whole-image pass once, in cache-sized
chunks of rows.

The warp and the dense interpolation loop over bands (chunks) of rows on
the calling thread, and the warp copies the runs of columns of one
integral shift in field rows that repeated rows share; the correlation
sums chunks of rows in two passes, with no masked copy, and centres the
reference side once for a tuple of images; the diagonal tables hold the
one orientation a run reads; PGM files are checked, quantised and read a
chunk at a time, and a row that repeats the row above is written as a
copy of its bytes. The dense field is kept as its distinct rows, which
the warp and the saved maps read as they would the caller arrays those
rows make up. Each stage has one test-local reference: the
``np.indices`` warp and a whole-array separable interpolation with its
own axis lookup (both compared bit for bit), the whole-array
quantisation and normalisation, the masked-copy correlation and one
``global_correlation`` call per image.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nccalign import (
    NoiseModel,
    ShiftRange,
    SyntheticSpec,
    UndefinedMetricError,
    build_diag_tables,
    global_correlation,
    load_pgm,
    make_synthetic_stereo,
    quadrant_pattern,
    save_pgm,
    uniform_pattern,
    validate_image,
)
from nccalign import alignment, images
from nccalign.alignment import DenseDisparity, DisparityField, warp

from conftest import random_image, record_quantized_chunks


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
# template's edge, NaN, +-inf or +-1e300. "rows" is constant down runs of
# rows (see _row_fields), its runs of columns drawn from the same values.
# The template of both is half +-0.0 and half uniform on [-1, 1), so a
# copied zero's +0-weighted taps have either sign; zero shifts read the
# last row's and column's taps.
WARP_KINDS = ("uniform", "halves", "last", "zeros", "-0.0 template", "tiles", "rows")


def _shift_pool(h, w, reach):
    """Shift values and their odds: integral ones within reach, three
    half-integral ones and +-0.0 eight times as likely as each of two
    shifts past the template's edge, NaN, +-inf and +-1e300."""
    pool = np.concatenate((np.arange(-np.ceil(reach), np.ceil(reach) + 1), [0.5, -1.5, 2.5, 0.0, -0.0],
                           [w + 2.0, -h - 3.0, np.nan, np.inf, -np.inf, 1e300, -1e300]))
    weights = np.concatenate((np.full(len(pool) - 7, 8.0), np.ones(7)))
    return pool, weights / weights.sum()


def _tile_fields(rng, h, w, reach):
    """du and dv constant on the same squares of 1 to 12 pixels, but for
    about one pixel in 50 set half a pixel off (see WARP_KINDS)."""
    side = int(rng.integers(1, 13))
    pool, weights = _shift_pool(h, w, reach)
    pieces = rng.choice(pool, (2, -(-h // side), -(-w // side)), p=weights)
    fields = np.repeat(np.repeat(pieces, side, axis=1), side, axis=2)[:, :h, :w]
    return np.where(rng.random((2, h, w)) < 0.02, fields + 0.5, fields)


def _row_fields(rng, h, w, reach):
    """du and dv constant down runs of 1 to 8 rows, the first run one row
    tall; a run's row is runs of 1 to ``w`` columns, each one (du, dv)
    from ``_shift_pool``. In about a third of the rows each zero of ``dv``
    flips its sign, so such a row differs from the one above only there."""
    pool, weights = _shift_pool(h, w, reach)
    fields = np.empty((2, h, w))
    r = 0
    while r < h:
        n, c = (int(rng.integers(1, 9)) if r else 1), 0
        while c < w:
            m = int(rng.integers(1, w + 1))
            fields[:, r:r + n, c:c + m] = rng.choice(pool, (2, 1, 1), p=weights)
            c += m
        r += n
    dv = fields[1]
    flip = (rng.random((h, 1)) < 0.35) & (dv == 0.0)
    np.negative(dv, out=dv, where=flip)
    return fields


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
    elif kind in ("tiles", "rows"):
        template = np.where(pick[0], rng.choice((0.0, -0.0), (h, w)), rng.uniform(-1.0, 1.0, (h, w)))
        du, dv = (_tile_fields if kind == "tiles" else _row_fields)(rng, h, w, reach)
    return template, du, dv


class TestWarpBands:
    @pytest.mark.parametrize("kind", WARP_KINDS)
    @pytest.mark.parametrize("band", (1, 2, 3, 8))
    @pytest.mark.parametrize("h, w, reach", ((1, 9, 3.0), (2, 5, 1.5), (5, 7, 4.0), (6, 1, 2.0),
                                             (24, 19, 8.0), (37, 41, 30.0)))
    def test_equals_one_band_and_oracle(self, monkeypatch, band, h, w, reach, kind):
        # Bands of ``band`` rows, which divide few of the sizes, against
        # one band.
        template, du, dv = _warp_case(1000 * h + w, h, w, reach, kind)
        inputs = (template.copy(), du.copy(), dv.copy())
        want, want_mask = warp(template, DenseDisparity(du=du, dv=dv))
        monkeypatch.setattr(images, "CHUNK_PIXELS", band * w)
        got, got_mask = warp(template, DenseDisparity(du=du, dv=dv))

        np.testing.assert_array_equal(got_mask, want_mask)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        assert_warp_bits(got, got_mask, template, du, dv)
        for before, after in zip(inputs, (template, du, dv)):
            np.testing.assert_array_equal(before, after)

    @pytest.mark.parametrize("kind", WARP_KINDS)
    @pytest.mark.parametrize("seed", (1, 3))
    @pytest.mark.parametrize("chunk", (1, 7, 40, images.CHUNK_PIXELS))
    def test_chunks_equal_oracle(self, monkeypatch, seed, chunk, kind):
        # Chunks of one row, of a few rows, and one chunk for the image.
        monkeypatch.setattr(images, "CHUNK_PIXELS", chunk)
        template, du, dv = _warp_case(seed, 29, 13, 9.0, kind)
        got, got_mask = warp(template, DenseDisparity(du=du, dv=dv))
        assert_warp_bits(got, got_mask, template, du, dv)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("chunk", (1, 7, 40, images.CHUNK_PIXELS))
    @pytest.mark.parametrize("h, w, reach", ((1, 9, 3.0), (40, 3, 2.0), (3, 40, 6.0)))
    def test_row_fields_equal_oracle(self, monkeypatch, seed, chunk, h, w, reach):
        # Fields constant down runs of rows: a row, a column and a square
        # image, each with dv and du past the other axis's extent.
        monkeypatch.setattr(images, "CHUNK_PIXELS", chunk)
        template, du, dv = _warp_case(seed, h, w, reach, "rows")
        got, got_mask = warp(template, DenseDisparity(du=du, dv=dv))
        assert_warp_bits(got, got_mask, template, du, dv)

    @pytest.mark.parametrize("dtype", (np.int32, np.float32, np.int64))
    def test_field_dtypes_warp_as_float64(self, dtype):
        template, du, dv = _warp_case(7, 33, 21, 6.0, "rows")
        fields = [np.clip(np.nan_to_num(f), -40.0, 40.0).astype(dtype) for f in (du, dv)]
        got, got_mask = warp(template, DenseDisparity(*fields))
        want, want_mask = warp(template, DenseDisparity(*(f.astype(np.float64) for f in fields)))
        np.testing.assert_array_equal(got_mask, want_mask)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

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
    # A random "integer" field has no run of one shift a row long, so only
    # "rows" fields reach a copy.
    kind = draw(st.sampled_from(("random", "integer", "quarter", "rows")))
    fields = rng.uniform(-reach, reach, (2, h, w))
    if kind == "integer":
        fields = np.round(fields)
    elif kind == "quarter":
        fields = np.round(fields * 4.0) / 4.0
    elif kind == "rows":
        fields = _row_fields(rng, h, w, reach)
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
        assert_sample_bits(alignment.bilinear_grid_sample(cx, cy, [values], qx, qy)[0].expand(),
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
        cx, cy, values, qx, qy = case
        assert_sample_bits(alignment.bilinear_grid_sample(cx, cy, [values], qx, qy)[0].expand(),
                           separable_sample(*case))

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
        assert_sample_bits(alignment.bilinear_grid_sample(cx, cy, [values], qx, qy)[0].expand(),
                           separable_sample(cx, cy, values, qx, qy))


# -- the dense field as its distinct rows ---------------------------------

def _pair(width, height, regions):
    spec = SyntheticSpec(width=width, height=height, regions=regions, texture_seed=7, noise_floor=0.01)
    return make_synthetic_stereo(spec)[:2]


NOISY = NoiseModel(multiplier_fraction=0.1, integrator_fraction=0.2, seed=3)

# The bit ledger's four frames: name -> (width, height, pattern, method,
# noise, block, crop, radius).
LEDGER_FRAMES = {
    "paper-diag-fast": (1920, 1080, "quadrant", "diag-fast", None, 128, 0.10, 16),
    "stream-512": (512, 512, "quadrant", "stream", NOISY, 64, 0.0, 8),
    "stream-512-crop": (512, 512, "quadrant", "stream", NOISY, 64, 0.10, 8),
    "uniform-640": (640, 480, "uniform", "diag-fast", None, 128, 0.10, 16),
}
QUADRANT_SHIFTS = [(3, 5), (-4, 2), (6, -7), (-2, -6)]
FIELD_CASES = (*LEDGER_FRAMES, "real blocks", "integral blocks", "per-pixel")


@pytest.fixture(scope="module")
def built_fields():
    """name -> (template, the field interpolate_disparity builds) for each
    of FIELD_CASES, made on first use."""
    cache = {}

    def build(name):
        if name in cache:
            return cache[name]
        rng = np.random.default_rng(FIELD_CASES.index(name))
        if name in LEDGER_FRAMES:
            width, height, pattern, method, noise, block, crop, radius = LEDGER_FRAMES[name]
            regions = (quadrant_pattern(width, height, QUADRANT_SHIFTS) if pattern == "quadrant"
                       else uniform_pattern(width, height, 3, 5))
            template, reference = _pair(width, height, regions)
            grid = alignment.partition_template(template, block, crop)
            field = alignment.fill_invalid(alignment.estimate_disparity(
                template, reference, grid, method, ShiftRange.symmetric(radius), noise=noise))
        else:
            height, width = (180, 260) if name == "per-pixel" else (1080, 1920)
            template = rng.random((height, width))
            if name == "per-pixel":  # a block per pixel, its centre on the pixel
                grid = alignment.BlockGrid(block_size=1, margin_x=0, margin_y=0, rows=height, cols=width)
            else:
                grid = alignment.partition_template(template, 128, 0.10)
            shape = (grid.rows, grid.cols)
            if name == "integral blocks":  # 91 distinct integers per component
                du, dv = (rng.permutation(np.arange(-45.0, 46.0)).reshape(shape) for _ in range(2))
            else:
                du, dv = rng.uniform(-16.0, 16.0, (2, *shape))
            field = DisparityField(du, dv, np.ones(shape), np.zeros(shape, dtype=np.uint8))
        cache[name] = template, alignment.interpolate_disparity(field, grid, template.shape[::-1])
        return cache[name]

    return build


class TestDistinctRowsField:
    """A field ``interpolate_disparity`` builds, kept as its distinct rows,
    against the same field given as caller arrays, which ``warp`` and
    ``save_pgm`` search themselves."""

    @pytest.mark.parametrize("name", FIELD_CASES)
    def test_warp_equals_caller_arrays(self, built_fields, name):
        template, built = built_fields(name)
        arrays = DenseDisparity(du=built.du.copy(), dv=built.dv.copy())
        got, got_mask = warp(template, built)
        want, want_mask = warp(template, arrays)
        np.testing.assert_array_equal(got_mask, want_mask)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("normalize", (True, False))
    @pytest.mark.parametrize("name", FIELD_CASES)
    def test_saved_maps_equal_caller_arrays(self, tmp_path, built_fields, name, normalize):
        _, built = built_fields(name)
        for rows, array in zip(built.maps(), (built.du.copy(), built.dv.copy())):
            save_pgm(rows, tmp_path / "rows.pgm", _normalize=normalize)
            save_pgm(array, tmp_path / "array.pgm", _normalize=normalize)
            assert (tmp_path / "rows.pgm").read_bytes() == (tmp_path / "array.pgm").read_bytes()

    @pytest.mark.parametrize("name", LEDGER_FRAMES)
    def test_runs_equal_those_of_the_built_arrays(self, built_fields, name):
        _, built = built_fields(name)
        du, dv = built.maps()
        assert du.runs == dv.runs == images.distinct_row_runs(built.du, built.dv)
        assert len(du.rows) == sum(b - a for a, b, _ in du.runs) < built.shape[0]

    @pytest.mark.parametrize("name", FIELD_CASES)
    def test_components_are_read_only(self, built_fields, name):
        _, built = built_fields(name)
        for component in (built.du, built.dv):
            assert component.shape == built.shape and component.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                component[0, 0] = 1.0
        assert built.du is built.du

    def test_caller_arrays_edited_after_a_warp_are_searched_again(self):
        # Every row of the field repeats the first; then one row differs.
        template = random_image(31, 40, 30)
        du, dv = np.full((2, 40, 30), 2.0)
        dense = DenseDisparity(du=du, dv=dv)
        warp(template, dense)
        du[17] = 0.5
        got, got_mask = warp(template, dense)
        assert_warp_bits(got, got_mask, template, du, dv)
        assert dense.maps()[0].runs == [(0, 1, 17), (17, 19, 40)]

    @pytest.mark.parametrize("seed", range(3))
    def test_one_component_repeats_where_the_other_does_not(self, seed):
        # du is constant down the block rows, dv differs between them, and
        # the other way round: each is its own separable sample.
        rng = np.random.default_rng(seed)
        cx, cy = np.arange(6) * 16.0 + 7.5, np.arange(5) * 16.0 + 7.5
        across = np.tile(rng.uniform(-4, 4, 6), (5, 1))
        down = np.tile(rng.uniform(-4, 4, (5, 1)), (1, 6))
        qx, qy = np.arange(100, dtype=np.float64), np.arange(90, dtype=np.float64)
        for values in ((across, down), (down, across)):
            maps = alignment.bilinear_grid_sample(cx, cy, values, qx, qy)
            for rows, grid in zip(maps, values):
                assert rows.runs == maps[0].runs
                assert_sample_bits(rows.expand(), separable_sample(cx, cy, grid, qx, qy))


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


def with_repeats(image, repeat):
    """``image`` with each row where ``repeat`` is True a copy of the row
    above it, so a run of them repeats the row before the run."""
    return image[np.maximum.accumulate(np.where(repeat, 0, np.arange(len(image))))]


def boundary_repeats(height, width):
    """Repeat flags with a run across each chunk boundary of a height x
    width image and one run across a third of its rows."""
    rows = images.chunk_rows(height, width)
    repeat = np.zeros(height, dtype=bool)
    for a in range(rows, height, rows):
        repeat[max(1, a - 1):a + 2] = True
    repeat[max(1, height // 3):2 * height // 3] = True
    return repeat


def reference_row_runs(*arrays):
    """``images.distinct_row_runs`` from a bit compare of every row of each
    array with the row above."""
    bits = [array.view(np.uint64) for array in arrays]
    runs = []
    for r in range(len(bits[0])):
        if r and all(np.array_equal(b[r], b[r - 1]) for b in bits):
            runs[-1][2] = r + 1
        elif runs and runs[-1][1] == runs[-1][2] == r:
            runs[-1][1] = runs[-1][2] = r + 1
        else:
            runs.append([r, r + 1, r + 1])
    return [tuple(run) for run in runs]


def quantization_edge(maxval):
    """A value whose byte differs from that of the float just below it."""
    for k in range(1, maxval + 1):
        v = (k - 0.5) / maxval
        if whole_array_pgm_body(np.array([v]), maxval) != whole_array_pgm_body(np.array([np.nextafter(v, 0.0)]), maxval):
            return v
    raise AssertionError("no quantization edge")


# The columns distinct_row_runs samples in a row of 37, and two it does not.
EDGE_COLUMNS = (9, 18, 27, 0, 36)


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
    @pytest.mark.parametrize("shape", CHUNK_SHAPES)
    def test_repeats_across_chunks_equal_whole_array_quantisation(self, tmp_path, monkeypatch, maxval, shape):
        image = np.random.default_rng(shape[0] * 3 + shape[1]).uniform(-0.3, 1.3, shape)
        repeat = boundary_repeats(*shape)
        image = with_repeats(image, repeat)
        chunks = record_quantized_chunks(monkeypatch, images)
        path = tmp_path / "r.pgm"
        save_pgm(image, path, maxval=maxval)
        header = f"P5\n{shape[1]} {shape[0]}\n{maxval}\n".encode("ascii")
        assert path.read_bytes() == header + whole_array_pgm_body(image, maxval)
        assert sum(map(len, chunks)) == shape[0] - np.count_nonzero(repeat)

    @pytest.mark.parametrize("shape", CHUNK_SHAPES)
    def test_normalised_repeats_across_chunks(self, tmp_path, shape):
        image = with_repeats(np.random.default_rng(shape[0] * 11 + shape[1]).uniform(-4.0, 6.0, shape),
                             boundary_repeats(*shape))
        path = tmp_path / "n.pgm"
        save_pgm(image, path, _normalize=True)
        assert path.read_bytes() == f"P5\n{shape[1]} {shape[0]}\n255\n".encode("ascii") + normalised_pgm_body(image)

    @pytest.mark.parametrize("column", EDGE_COLUMNS)
    @pytest.mark.parametrize("maxval", (255, 65535))
    def test_rows_one_last_bit_apart_are_distinct(self, tmp_path, maxval, column):
        """Rows equal but for one pixel's last bit, at a sampled column or
        not, are quantised apart; the pixel sits on a byte edge, so copying
        the row above would change the bytes."""
        row = np.random.default_rng(21).random(37)
        row[column] = quantization_edge(maxval)
        image = np.tile(row, (40, 1))
        image[5:25:2, column] = np.nextafter(row[column], 0.0)
        assert images.distinct_row_runs(image) == reference_row_runs(image)
        path = tmp_path / "b.pgm"
        save_pgm(image, path, maxval=maxval)
        body = whole_array_pgm_body(image, maxval)
        assert path.read_bytes() == f"P5\n37 40\n{maxval}\n".encode("ascii") + body
        assert body != whole_array_pgm_body(np.tile(row, (40, 1)), maxval)
        save_pgm(image, path, _normalize=True)
        assert path.read_bytes() == b"P5\n37 40\n255\n" + normalised_pgm_body(image)

    @pytest.mark.parametrize("column", EDGE_COLUMNS)
    def test_rows_apart_only_in_the_sign_of_zero_are_distinct(self, tmp_path, column):
        image = np.tile(np.random.default_rng(22).random(37), (40, 1))
        image[:, column] = 0.0
        image[3:30:3, column] = -0.0
        assert images.distinct_row_runs(image) == reference_row_runs(image)
        assert sum(b - a for a, b, _ in images.distinct_row_runs(image)) == 19
        for normalize, body in ((False, whole_array_pgm_body(image, 255)), (True, normalised_pgm_body(image))):
            path = tmp_path / "z.pgm"
            save_pgm(image, path, _normalize=normalize)
            assert path.read_bytes() == b"P5\n37 40\n255\n" + body

    @pytest.mark.parametrize("seed", range(6))
    def test_distinct_row_runs_equal_a_row_by_row_compare(self, seed):
        """Planted repeats, NaN rows (two payloads) and rows that differ
        only in an unsampled column, against the row-by-row compare."""
        rng = np.random.default_rng(seed)
        height, width = rng.integers(1, 90), rng.integers(1, 50)
        image = with_repeats(rng.random((height, width)), rng.random(height) < 0.6)
        image[rng.random(height) < 0.1, rng.integers(width)] = np.nan
        image[rng.random(height) < 0.1, rng.integers(width)] = -np.float64(np.nan)
        twins = np.flatnonzero(rng.random(height) < 0.2)
        image[twins[twins > 0]] = image[twins[twins > 0] - 1]
        image[twins[twins > 0], 0] += 1.0
        assert images.distinct_row_runs(image) == reference_row_runs(image)

    @pytest.mark.parametrize("seed", range(8))
    def test_distinct_row_runs_of_two_arrays(self, seed):
        """A row repeats only where it repeats in both arrays: rows apart in
        one array only, at a column the sample skips, or only in the sign of
        a zero, against the row-by-row compare."""
        rng = np.random.default_rng(seed)
        height, width = int(rng.integers(1, 90)), int(rng.integers(1, 50))
        repeat = rng.random(height) < 0.7
        first = with_repeats(rng.random((height, width)), repeat)
        second = with_repeats(rng.choice((0.0, 1.0, 2.5), (height, width)), repeat)
        for array, column in ((first, 0), (second, width - 1), (second, width // 2)):
            array[rng.random(height) < 0.1, column] += 1.0
        np.negative(second, out=second, where=(rng.random((height, 1)) < 0.15) & (second == 0.0))
        want = reference_row_runs(first, second)
        assert images.distinct_row_runs(first, second) == images.distinct_row_runs(second, first) == want

    @pytest.mark.parametrize("normalize", (False, True))
    @pytest.mark.parametrize("shape", ((1, 7), (5, 1), (300, 170), (32_769, 1)))
    def test_every_row_repeating_is_quantised_once(self, tmp_path, monkeypatch, normalize, shape):
        image = np.tile(np.random.default_rng(23).uniform(-0.5, 1.5, shape[1]), (shape[0], 1))
        chunks = record_quantized_chunks(monkeypatch, images)
        path = tmp_path / "t.pgm"
        save_pgm(image, path, _normalize=normalize)
        body = normalised_pgm_body(image) if normalize else whole_array_pgm_body(image, 255)
        assert path.read_bytes() == f"P5\n{shape[1]} {shape[0]}\n255\n".encode("ascii") + body
        assert [len(chunk) for chunk in chunks] == [1]

    @pytest.mark.parametrize("normalize", (False, True))
    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf, (np.inf, -np.inf), (1e308, 1e308)),
                             ids=("nan", "inf", "-inf", "inf and -inf", "overflowing sum"))
    @pytest.mark.parametrize("where", ((0, 0), (199, 169), (195, 3)))
    def test_non_finite_in_repeated_rows_raises_before_file_exists(self, tmp_path, value, where, normalize):
        """The pixel's row is one of four equal rows, so only the first of
        them is read; it raises all the same, normalised or not."""
        image = np.random.default_rng(15).random((200, 170))
        y, x = where
        if isinstance(value, tuple):
            image[y, x], image[y, x ^ 1] = value
        else:
            image[where] = value
        first = min(y, 196)
        image[first:first + 4] = image[y]
        path = tmp_path / "bad.pgm"
        if np.all(np.isfinite(value)):
            save_pgm(image, path, _normalize=normalize)
            body = normalised_pgm_body(image) if normalize else whole_array_pgm_body(image, 255)
            assert path.read_bytes() == b"P5\n170 200\n255\n" + body
            return
        with pytest.raises(ValueError, match="^image contains non-finite intensities$"):
            save_pgm(image, path, _normalize=normalize)
        assert not path.exists()

    @pytest.mark.parametrize("maxval", (255, 65535))
    @pytest.mark.parametrize("layout", ("every other column", "transposed", "fortran"))
    def test_strided_and_fortran_inputs_with_repeats(self, tmp_path, maxval, layout):
        base = with_repeats(np.random.default_rng(24).uniform(-0.3, 1.3, (300, 340)),
                            boundary_repeats(300, 340))
        image = {"every other column": base[:, ::2], "transposed": np.ascontiguousarray(base.T).T,
                 "fortran": np.asfortranarray(base)}[layout]
        np.testing.assert_array_equal(image, base[:, ::2] if layout == "every other column" else base)
        for normalize in (False, True):
            path = tmp_path / "s.pgm"
            save_pgm(image, path, maxval=255 if normalize else maxval, _normalize=normalize)
            body = normalised_pgm_body(image) if normalize else whole_array_pgm_body(image, maxval)
            h, w = image.shape
            assert path.read_bytes() == f"P5\n{w} {h}\n{255 if normalize else maxval}\n".encode("ascii") + body

    @pytest.mark.parametrize("extreme", ("min", "max", "both"))
    def test_normalised_extremes_in_repeated_runs(self, tmp_path, extreme):
        """The min or max of a map lies only in a run of repeated rows (and
        in the row that run repeats)."""
        image = np.random.default_rng(25).uniform(-4.0, 6.0, (150, 90))
        repeat = np.zeros(150, dtype=bool)
        repeat[41:77] = repeat[101:140] = True
        if extreme in ("min", "both"):
            image[40, 7] = -9.5
        if extreme in ("max", "both"):
            image[100, 60] = 11.25
        image = with_repeats(image, repeat)
        path = tmp_path / "e.pgm"
        save_pgm(image, path, _normalize=True)
        body = normalised_pgm_body(image)
        assert path.read_bytes() == b"P5\n90 150\n255\n" + body
        assert (extreme == "max" or body[70 * 90 + 7] == 0) and (extreme == "min" or body[120 * 90 + 60] == 255)

    def test_normalised_span_that_overflows(self, tmp_path):
        """hi - lo overflows at +-1e308: both are halved, so the middle
        value lands on 128 with no warning."""
        path = tmp_path / "wide.pgm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            save_pgm(np.array([[-1e308, 0.0, 1e308]]), path, _normalize=True)
            save_pgm(np.array([[1e308], [-1e308], [-1e308]]), tmp_path / "column.pgm", _normalize=True)
        assert path.read_bytes() == b"P5\n3 1\n255\n" + bytes([0, 128, 255])
        assert (tmp_path / "column.pgm").read_bytes() == b"P5\n1 3\n255\n" + bytes([255, 0, 0])

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
