"""End-to-end stereo alignment: partitioning, per-block disparity, dense
interpolation, warping, and the correlation metrics, plus the intensity
perturbations used for robustness runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from . import images
from .diagonal import build_diag_tables, ncc_diag, ncc_diag_fast
from .errors import UnalignableError, UndefinedMetricError
from .images import GrayImage, chunk_rows, image_array, row_chunks, validate_image
from .ncc import (
    OpCounter,
    ShiftRange,
    _inbounds_ranges,
    best_shift,
    build_sum_tables,
    ncc_full_fast,
    ncc_full_naive,
)
from .streaming import MovingAverageConfig, NoiseModel, ncc_stream

METHODS = ("full", "full-fast", "diag", "diag-fast", "stream")

# Per-block status codes.
BLOCK_VALID = 0
BLOCK_INTERPOLATED = 1
BLOCK_INVALID = 2

BLOCK_STATUS_NAMES = {BLOCK_VALID: "valid", BLOCK_INTERPOLATED: "interpolated", BLOCK_INVALID: "invalid"}


@dataclass(frozen=True)
class BlockGrid:
    """Regular lattice of square blocks tiling the cropped template region."""

    block_size: int
    margin_x: int
    margin_y: int
    rows: int
    cols: int

    def origin(self, row: int, col: int) -> tuple[int, int]:
        """Top-left (x, y) of a block in the uncropped template frame."""
        return self.margin_x + col * self.block_size, self.margin_y + row * self.block_size

    def origins(self):
        """Yield (row, col, x, y) for every block, row-major."""
        for row in range(self.rows):
            for col in range(self.cols):
                x, y = self.origin(row, col)
                yield row, col, x, y

    def center_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Block-center x positions (per column) and y positions (per row)."""
        half = (self.block_size - 1) / 2.0
        cx = self.margin_x + np.arange(self.cols) * self.block_size + half
        cy = self.margin_y + np.arange(self.rows) * self.block_size + half
        return cx, cy


def partition_template(image: GrayImage, block_size: int, crop_fraction: float = 0.10) -> BlockGrid:
    """Crop margins off the template and tile the rest with whole blocks.

    ``crop_fraction`` is the total cropped fraction per axis (half per side,
    floored to whole pixels); partial blocks at the right/bottom are dropped.
    Reads the image's shape only, not its pixels.
    """
    arr = image_array(image)
    if block_size < 8:
        raise ValueError(f"block_size must be >= 8, got {block_size}")
    if not (0.0 <= crop_fraction <= 0.10):
        raise ValueError(f"crop_fraction must be in [0, 0.10], got {crop_fraction}")
    h, w = arr.shape
    margin_x = int(math.floor(crop_fraction / 2 * w))
    margin_y = int(math.floor(crop_fraction / 2 * h))
    cols = (w - 2 * margin_x) // block_size
    rows = (h - 2 * margin_y) // block_size
    if rows < 1 or cols < 1:
        raise ValueError(
            f"cropped region {h - 2 * margin_y}x{w - 2 * margin_x} smaller than one {block_size} block"
        )
    return BlockGrid(block_size=block_size, margin_x=margin_x, margin_y=margin_y, rows=rows, cols=cols)


@dataclass
class DisparityField:
    """Per-block shifts; interpolated entries may be fractional."""

    du: np.ndarray
    dv: np.ndarray
    coeff: np.ndarray
    status: np.ndarray

    def copy(self) -> "DisparityField":
        return DisparityField(self.du.copy(), self.dv.copy(), self.coeff.copy(), self.status.copy())


def estimate_disparity(
    template: GrayImage,
    reference: GrayImage,
    grid: BlockGrid,
    method: str,
    shifts: ShiftRange,
    *,
    orientation: str = "main",
    ma_config: MovingAverageConfig | None = None,
    noise: NoiseModel | None = None,
    counter: OpCounter | None = None,
) -> DisparityField:
    """Run the chosen NCC variant over every block and pick its best shift.

    One kernel call takes the frame's blocks, row-major, as one stack and
    returns their stacked maps; one :func:`best_shift` call picks every
    block's shift. Both are looked up by module-global name at call time,
    and the kernel gets ``counter`` by keyword, so a tracer that rebinds
    them sees each call. Blocks with no valid shift anywhere are marked
    invalid. Deterministic given the arguments (the stream method's noise is
    seeded per block: block i of the stack reads stream id i). This is the
    boundary where both whole images are validated; the kernel then checks
    the blocks and the reference region its windows read.
    """
    t = validate_image(template, "template")
    ref = validate_image(reference, "reference")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if ref.shape[0] < t.shape[0] or ref.shape[1] < t.shape[1]:
        raise ValueError(f"reference {ref.shape} smaller than template {t.shape}")

    sum_tables = build_sum_tables(ref) if method == "full-fast" else None
    diag_tables = build_diag_tables(ref, orientation) if method in ("diag-fast", "stream") else None

    b = grid.block_size
    du = np.zeros((grid.rows, grid.cols))
    dv = np.zeros((grid.rows, grid.cols))
    coeff = np.full((grid.rows, grid.cols), np.nan)
    status = np.full((grid.rows, grid.cols), BLOCK_INVALID, dtype=np.uint8)

    origins = [(x0, y0) for _, _, x0, y0 in grid.origins()]
    blocks = [t[y0:y0 + b, x0:x0 + b] for x0, y0 in origins]
    # The kernel maps only the shifts some block keeps in bounds. Each block's
    # in-bounds ranges hold shift 0 before clipping, so their union per axis
    # is one range; every shift dropped is out of bounds for every block.
    spans = [span for span in (_inbounds_ranges(xy, (b, b), ref.shape, shifts) for xy in origins)
             if span[0] <= span[1] and span[2] <= span[3]]
    if spans:
        du_lo, du_hi, dv_lo, dv_hi = zip(*spans)
        shifts = ShiftRange(min(du_lo), max(du_hi), min(dv_lo), max(dv_hi))
    else:  # one out-of-bounds shift: the kernel still runs once
        shifts = ShiftRange(shifts.du_min, shifts.du_min, shifts.dv_min, shifts.dv_min)
    if method == "full":
        cmap = ncc_full_naive(blocks, ref, origins, shifts, counter=counter)
    elif method == "full-fast":
        cmap = ncc_full_fast(blocks, ref, origins, shifts, sum_tables, counter=counter)
    elif method == "diag":
        cmap = ncc_diag(blocks, ref, origins, shifts, orientation, counter=counter)
    elif method == "diag-fast":
        cmap = ncc_diag_fast(blocks, ref, origins, shifts, diag_tables, counter=counter)
    else:
        cmap = ncc_stream(blocks, ref, origins, shifts, diag_tables,
                          ma_config=ma_config, noise=noise, block_id=0, counter=counter)
    for i, best in enumerate(best_shift(cmap)):
        if best is not None:
            row, col = divmod(i, grid.cols)
            du[row, col] = best.du
            dv[row, col] = best.dv
            coeff[row, col] = best.coeff
            status[row, col] = BLOCK_VALID

    return DisparityField(du=du, dv=dv, coeff=coeff, status=status)


def _neighbor_fill_pass(du, dv, known):
    """One Jacobi pass: mean of known 8-neighbors for each unknown cell."""
    kf = known.astype(np.float64)
    sum_du = np.zeros_like(du)
    sum_dv = np.zeros_like(dv)
    count = np.zeros_like(kf)
    rows, cols = du.shape
    padded_du = np.pad(du * kf, 1)
    padded_dv = np.pad(dv * kf, 1)
    padded_k = np.pad(kf, 1)
    for oy in (-1, 0, 1):
        for ox in (-1, 0, 1):
            if oy == 0 and ox == 0:
                continue
            sum_du += padded_du[1 + oy:1 + oy + rows, 1 + ox:1 + ox + cols]
            sum_dv += padded_dv[1 + oy:1 + oy + rows, 1 + ox:1 + ox + cols]
            count += padded_k[1 + oy:1 + oy + rows, 1 + ox:1 + ox + cols]
    fillable = (~known) & (count > 0)
    mean_du = np.zeros_like(du)
    mean_dv = np.zeros_like(dv)
    np.divide(sum_du, count, out=mean_du, where=fillable)
    np.divide(sum_dv, count, out=mean_dv, where=fillable)
    return mean_du, mean_dv, fillable


def fill_invalid(field: DisparityField) -> DisparityField:
    """Replace invalid blocks by the mean disparity of their known 8-neighbors.

    Passes iterate until every block is filled, so isolated valid regions
    propagate. Raises UnalignableError when no block is valid at all.
    """
    if not np.any(field.status == BLOCK_VALID):
        raise UnalignableError("disparity field has no valid blocks")
    out = field.copy()
    known = out.status != BLOCK_INVALID
    while not known.all():
        mean_du, mean_dv, fillable = _neighbor_fill_pass(out.du, out.dv, known)
        out.du[fillable] = mean_du[fillable]
        out.dv[fillable] = mean_dv[fillable]
        out.status[fillable] = BLOCK_INTERPOLATED
        known |= fillable
    return out


@dataclass(frozen=True)
class DenseDisparity:
    """Per-pixel real (du, dv) field."""

    du: np.ndarray
    dv: np.ndarray


def _axis_weights(centers: np.ndarray, queries: np.ndarray):
    """Lower/upper indices and blend weight for 1D linear interpolation.

    Queries are clamped to the center span, giving constant extrapolation
    beyond the first/last center.
    """
    q = np.clip(queries, centers[0], centers[-1])
    if len(centers) == 1:
        zero = np.zeros(len(q), dtype=np.int64)
        return zero, zero, np.zeros(len(q))
    idx = np.clip(np.searchsorted(centers, q, side="right") - 1, 0, len(centers) - 2)
    upper = idx + 1
    weight = (q - centers[idx]) / (centers[upper] - centers[idx])
    return idx, upper, weight


def _runs(flags: np.ndarray) -> list[list[int]]:
    """The [start, stop) index ranges of the runs of True in ``flags``."""
    return np.flatnonzero(np.diff(np.concatenate(([False], flags, [False])))).reshape(-1, 2).tolist()


def bilinear_grid_sample(
    centers_x: np.ndarray,
    centers_y: np.ndarray,
    values: np.ndarray,
    query_x: np.ndarray,
    query_y: np.ndarray,
) -> np.ndarray:
    """Evaluate bilinear interpolation of ``values`` (len(cy) x len(cx) samples)
    at the outer product of query coordinates; constant beyond the hull.

    Separable: values are first interpolated along y at every query row
    (a len(qy) x len(cx) grid), then along x, a chunk of rows at a time
    through one chunk of scratch. Equal to the four-corner blend up to
    rounding, and exactly so when the products are exact.

    An output row depends only on its row of the grid, so a row whose grid
    row has the bits of the one before it (+0.0 and -0.0 differ) is a copy
    of that row's output and is not blended again. Where the blocks around a
    band of rows agree, as above and below the outermost centres or between
    two rows of equal integral shifts, the band is one x-blend and copies.
    """
    j0, j1, wx = _axis_weights(np.asarray(centers_x, dtype=np.float64), np.asarray(query_x, dtype=np.float64))
    i0, i1, wy = _axis_weights(np.asarray(centers_y, dtype=np.float64), np.asarray(query_y, dtype=np.float64))
    ux = 1.0 - wx
    # The y-blend is small (len(qy) x len(cx)); the x-blend is the full-size pass.
    grid = values[i0] * (1.0 - wy)[:, None] + values[i1] * wy[:, None]
    height, width = len(i0), len(j0)
    bits = grid.view(np.uint64)
    repeat = np.zeros(height, dtype=bool)
    np.all(bits[1:] == bits[:-1], axis=1, out=repeat[1:])
    # [a, b) runs of rows to blend; the rows up to the next run repeat row b - 1.
    runs = _runs(~repeat)
    out = np.empty((height, width))
    rows = chunk_rows(height, width)
    upper = np.empty((rows, width))
    for (a, b), stop in zip(runs, [start for start, _ in runs[1:]] + [height]):
        for c in range(a, b, rows):
            d = min(c + rows, b)
            lower, up = out[c:d], upper[:d - c]
            np.take(grid[c:d], j0, axis=1, out=lower, mode="clip")
            lower *= ux
            np.take(grid[c:d], j1, axis=1, out=up, mode="clip")
            up *= wx
            lower += up
        out[b:stop] = out[b - 1]
    return out


def interpolate_disparity(
    field: DisparityField,
    grid: BlockGrid,
    extent: tuple[int, int],
) -> DenseDisparity:
    """Bilinear interpolation of block-center disparities to a dense field.

    ``extent`` is (width, height) of the output, both at least 1; pixels
    beyond the outermost centers take the nearest-center value. The field
    must have the grid's rows x cols shape and be complete (no invalid
    blocks; run fill_invalid first); a ValueError names the shape or extent
    that is not. Each component is one :func:`bilinear_grid_sample`, which
    blends only the rows whose y-blend differs from the row before.
    """
    shape = (grid.rows, grid.cols)
    for part in (field.du, field.dv, field.status):
        if np.shape(part) != shape:
            raise ValueError(f"disparity field {np.shape(part)} does not match the {shape} block grid")
    width, height = extent
    if width < 1 or height < 1:
        raise ValueError(f"extent (width, height) must be at least (1, 1), got {extent}")
    if np.any(field.status == BLOCK_INVALID):
        raise ValueError("disparity field still has invalid blocks; fill_invalid first")
    cx, cy = grid.center_coords()
    qx = np.arange(width, dtype=np.float64)
    qy = np.arange(height, dtype=np.float64)
    return DenseDisparity(
        du=bilinear_grid_sample(cx, cy, field.du, qx, qy),
        dv=bilinear_grid_sample(cx, cy, field.dv, qx, qy),
    )


def warp(template: GrayImage, dense: DenseDisparity) -> tuple[GrayImage, np.ndarray]:
    """Resample the template through the dense field (inverse mapping).

    output(x, y) = template(x - du(x, y), y - dv(x, y)), bilinear. Returns
    the warped image and a validity mask; samples falling outside the
    template, or at a non-finite shift, are masked out (and set to 0).
    Validates the whole template.

    A ``images.TILE``-square tile of the field where ``du`` and ``dv`` are
    each one integral value is a shifted copy of the template (see
    :func:`_copy_shifted`), bit for bit what the blend gives. Every other
    pixel goes through :func:`_warp_rows` a chunk of rows at a time, through
    one set of scratch buffers: runs of tiles within a band of rows, and
    bands with no constant tile (the whole image when no tile is constant)
    in chunks of full rows.
    """
    t = validate_image(template)
    h, w = t.shape
    if dense.du.shape != t.shape or dense.dv.shape != t.shape:
        raise ValueError(f"dense field {dense.du.shape} does not match template {t.shape}")
    flat = t.ravel()
    xs = np.arange(w, dtype=np.float64)
    ys = np.arange(h, dtype=np.float64)[:, None]
    out = np.empty((h, w))
    mask = np.empty((h, w), dtype=bool)
    rows = chunk_rows(h, w)
    buffers = (
        np.empty((6, rows * w)),
        np.empty((3, rows * w), dtype=np.int64),
        np.empty((2, rows * w), dtype=bool),
    )

    def blend(a, b, c, d):
        step = max(1, min(b - a, rows * w // (d - c)))
        for r0 in range(a, b, step):
            r1 = min(r0 + step, b)
            _warp_rows(flat, h, w, xs[c:d], ys[r0:r1], dense.du[r0:r1, c:d], dense.dv[r0:r1, c:d],
                       out[r0:r1, c:d], mask[r0:r1, c:d], buffers)

    tile = images.TILE
    shifts = _constant_tiles(dense.du, dense.dv)
    for constant, bands in groupby(zip(range(0, h, tile), shifts), key=lambda band: any(band[1])):
        bands = list(bands)
        if not constant:
            blend(bands[0][0], min(bands[-1][0] + tile, h), 0, w)
            continue
        for a, band in bands:
            b = min(a + tile, h)
            c = 0
            for shift, run in groupby(band):
                d = min(c + tile * len(list(run)), w)
                if shift is None:
                    blend(a, b, c, d)
                else:
                    _copy_shifted(t, out, mask, (a, b, c, d), shift)
                c = d
    return out, mask


def _constant_tiles(du, dv):
    """The integral (du, dv) of each ``images.TILE``-square tile of the
    field, row-major (the last row and column of tiles cut short), or None
    for a tile where either is not one integral value.

    Candidates are the tiles whose four corners agree, found in one gather;
    each run of candidates in a band of rows is then checked pixel by pixel.
    A shift is clipped to the template's extent, beyond which every sample is
    outside, as it is at +-inf (NaN is never equal, so never constant).
    """
    h, w = du.shape
    tile = images.TILE
    top, left = np.arange(0, h, tile), np.arange(0, w, tile)
    bottom, right = np.minimum(top + tile, h) - 1, np.minimum(left + tile, w) - 1
    nr, nc = len(top), len(left)
    corner_rows, corner_cols = np.concatenate((top, bottom))[:, None], np.concatenate((left, right))
    ok = np.ones((nr, nc), dtype=bool)
    values = []
    for field in (du, dv):
        corners = field[corner_rows, corner_cols]
        value = corners[:nr, :nc]
        ok &= (value == corners[nr:, :nc]) & (value == corners[:nr, nc:]) & (value == corners[nr:, nc:])
        ok &= np.floor(value) == value
        values.append(value)
    for i in np.flatnonzero(ok.any(axis=1)).tolist():
        a, b = top[i], bottom[i] + 1
        for k0, k1 in _runs(ok[i]):
            c, d = left[k0], right[k1 - 1] + 1
            same = np.ones((b - a, d - c), dtype=bool)
            for field, value in zip((du, dv), values):
                same &= field[a:b, c:d] == np.repeat(value[i, k0:k1], right[k0:k1] - left[k0:k1] + 1)
            ok[i, k0:k1] = np.logical_and.reduceat(same.all(axis=0), left[k0:k1] - c)
    dus, dvs = (np.clip(np.where(ok, value, 0.0), -extent, extent).astype(np.int64).tolist()
                for value, extent in zip(values, (w, h)))
    return [[(p, q) if good else None for good, p, q in zip(*band)]
            for band in zip(ok.tolist(), dus, dvs)]


def _copy_shifted(t, out, mask, region, shift) -> None:
    """Warp ``region`` (rows a:b, columns c:d) of ``out`` and ``mask`` at
    the one integral shift (du, dv): a slice copy of the template, 0 and
    masked out where the sample falls outside it.

    At an integral sample :func:`_warp_rows` gives the +1 taps weight +0.0
    and the sample weight 1.0, so it returns the sample itself, except that
    a -0.0 sample stays -0.0 only when each +0-weighted tap is negative or
    -0.0. So those taps are added, as the blend adds them, only where a
    copied pixel is zero.
    """
    h, w = t.shape
    a, b, c, d = region
    du, dv = shift
    y0, y1, x0, x1 = max(a, dv), min(b, h + dv), max(c, du), min(d, w + du)
    if (y0, y1, x0, x1) != region:
        out[a:b, c:d] = 0.0
        mask[a:b, c:d] = False
    if y0 >= y1 or x0 >= x1:
        return
    dst = out[y0:y1, x0:x1]
    dst[...] = t[y0 - dv:y1 - dv, x0 - du:x1 - du]
    mask[y0:y1, x0:x1] = True
    if not dst.all():
        ys, xs = np.nonzero(dst == 0)
        ys0, xs0 = ys + (y0 - dv), xs + (x0 - du)
        ys1, xs1 = np.minimum(ys0 + 1, h - 1), np.minimum(xs0 + 1, w - 1)
        zeros = dst[ys, xs]
        zeros += t[ys0, xs1] * 0.0
        zeros += t[ys1, xs0] * 0.0
        zeros += t[ys1, xs1] * 0.0
        dst[ys, xs] = zeros


def _warp_rows(flat, h, w, xs, ys, du, dv, out, mask, buffers) -> None:
    """Warp one chunk, some rows of a run of columns, into ``out``/``mask``
    through ``buffers``, which hold at least as many pixels.

    The sample coordinates are clamped to the template (``fmax``/``fmin``,
    which also send NaN to 0 and +-inf to an edge), and a pixel is in the
    mask when clamping left both unchanged. The floor of a clamped
    coordinate c gives its lower tap and ``c - floor(c)`` its weight; the
    +1 taps stay on the last column and row. Both parts equal ``modf``'s
    bit for bit: c is at least +0.0 (``x - du`` is -0.0 only for x = -0.0,
    and the grid starts at +0.0), the subtraction is exact for c >= 1 by
    Sterbenz's lemma, and for c < 1 it is ``c - 0``, so an integral c
    gets the weight +0.0. The blend order,
    ((v00*uy)*ux + (v01*uy)*wx) + (v10*wy)*ux + (v11*wy)*wx, is that of
    ``scipy.ndimage.map_coordinates(order=1)``, so the result is
    bit-identical to it. Every step writes into ``buffers`` and mixes no
    dtypes, so numpy needs no cast buffer of its own.
    """
    n, width = out.shape
    floats, ints, bools = (buf[:, :n * width].reshape(-1, n, width) for buf in buffers)
    sx, sy, wx, wy, x0, y0 = floats
    tap00, tap01, tap = ints
    last_x, last_y = bools
    np.subtract(xs, du, out=sx)
    np.subtract(ys, dv, out=sy)
    np.fmax(sx, 0.0, out=wx)
    np.fmin(wx, w - 1, out=wx)
    np.fmax(sy, 0.0, out=wy)
    np.fmin(wy, h - 1, out=wy)
    np.equal(wx, sx, out=mask)
    np.equal(wy, sy, out=last_y)
    mask &= last_y
    np.floor(wx, out=x0)
    wx -= x0
    np.floor(wy, out=y0)
    wy -= y0
    np.equal(x0, w - 1, out=last_x)
    np.equal(y0, h - 1, out=last_y)
    y0 *= w
    y0 += x0
    np.copyto(tap00, y0, casting="unsafe")
    ux, uy, value = sx, sy, x0
    np.subtract(1.0, wx, out=ux)
    np.subtract(1.0, wy, out=uy)
    # A run of columns is a strided view of ``out``, on which each in-place
    # step is several times slower: such a chunk sums in scratch instead.
    acc = out if out.flags.c_contiguous else y0

    np.take(flat, tap00, out=acc, mode="clip")
    acc *= uy
    acc *= ux
    np.add(tap00, 1, out=tap01)
    np.copyto(tap01, tap00, where=last_x)
    np.take(flat, tap01, out=value, mode="clip")
    value *= uy
    value *= wx
    acc += value
    np.add(tap00, w, out=tap)
    np.copyto(tap, tap00, where=last_y)
    np.take(flat, tap, out=value, mode="clip")
    value *= wy
    value *= ux
    acc += value
    np.add(tap01, w, out=tap)
    np.copyto(tap, tap01, where=last_y)
    np.take(flat, tap, out=value, mode="clip")
    value *= wy
    value *= wx
    np.add(acc, value, out=out)
    np.logical_not(mask, out=last_y)
    np.copyto(out, 0.0, where=last_y)


# A variance sum this small, relative to ``n * mean**2``, is the rounding
# of a flat image's centring, not a signal.
_FLAT_VARIANCE = (4096 * np.finfo(np.float64).eps) ** 2


def _fsum(parts: list) -> float:
    """The correctly rounded total of per-chunk sums, or NaN when it or a
    part is not finite."""
    try:
        total = math.fsum(parts)
    except (OverflowError, ValueError):  # an overflowing total, or inf + -inf
        return math.nan
    return total if math.isfinite(total) else math.nan


def global_correlation(
    a: GrayImage | tuple[GrayImage, ...], b: GrayImage, mask: np.ndarray | None = None
) -> float | tuple[float, ...]:
    """Pearson correlation between two images over the masked pixels.

    ``a`` may also be a tuple of images; the result is then the tuple of
    their correlations with ``b``, each equal to that of a single call.
    ``mask`` must be boolean. No input is modified.

    Two passes over chunks of rows, with the mask as 0/1 weights in one
    chunk of scratch: the first sums each image's masked pixels for its
    mean, the second sums the centred squares and products (centring
    first keeps the sums accurate). A chunk is summed by ``np.einsum``,
    which uses no BLAS, and the chunk sums are added by ``math.fsum``; no
    masked copy or full-size temporary is made. A non-finite pixel, masked
    out or not, makes its image's first sum non-finite (NaN * 0 is NaN),
    and only then is that image scanned for the error. A variance sum of
    at most ``n * (4096 * eps * mean)**2`` counts as zero: a flat image
    leaves that much from rounding.
    """
    single = not isinstance(a, tuple)
    images = [image_array(img, "a") for img in ((a,) if single else a)]
    bb = image_array(b, "b")
    for aa in images:
        if aa.shape != bb.shape:
            raise ValueError(f"image extents differ: {aa.shape} vs {bb.shape}")
    if mask is not None:
        if mask.shape != bb.shape:
            raise ValueError(f"mask shape {mask.shape} does not match images {bb.shape}")
        if mask.dtype != bool:
            raise TypeError(f"mask must be boolean, got dtype {mask.dtype}")
    h, w = bb.shape
    rows = chunk_rows(h, w)
    weights, cb, ca = np.ones((3, rows, w))

    def chunks():
        for r0, r1 in row_chunks(h, rows):
            wt = weights[:r1 - r0]
            if mask is not None:
                np.copyto(wt, mask[r0:r1])
            yield r0, r1, wt

    sides = images + [bb]
    sums = [[] for _ in sides]
    for r0, r1, wt in chunks():
        for x, parts in zip(sides, sums):
            parts.append(np.einsum("ij,ij->", x[r0:r1], wt))
    totals = []
    for x, name, parts in zip(sides, ["a"] * len(images) + ["b"], sums):
        total = _fsum(parts)
        if math.isnan(total):
            validate_image(x, name)
            raise UndefinedMetricError("correlation undefined: intensity sums overflow")
        totals.append(total)
    n = h * w if mask is None else int(np.count_nonzero(mask))
    if n < 2:
        raise UndefinedMetricError(f"correlation needs >= 2 pixels, mask selects {n}")
    *means, mean_b = (total / n for total in totals)

    sq_b, sq_a, prods = [], [[] for _ in images], [[] for _ in images]
    for r0, r1, wt in chunks():
        cbk, cak = cb[:r1 - r0], ca[:r1 - r0]
        np.subtract(bb[r0:r1], mean_b, out=cbk)
        cbk *= wt
        sq_b.append(np.einsum("ij,ij->", cbk, cbk))
        for x, mean, sq, prod in zip(images, means, sq_a, prods):
            np.subtract(x[r0:r1], mean, out=cak)
            cak *= wt
            sq.append(np.einsum("ij,ij->", cak, cak))
            prod.append(np.einsum("ij,ij->", cak, cbk))
    var_b = _fsum(sq_b)
    results = []
    for mean_a, sq, prod in zip(means, sq_a, prods):
        var_a, cov = _fsum(sq), _fsum(prod)
        if any(map(math.isnan, (var_a, var_b, cov))):
            raise UndefinedMetricError("correlation undefined: intensity sums overflow")
        if var_a <= n * _FLAT_VARIANCE * mean_a**2 or var_b <= n * _FLAT_VARIANCE * mean_b**2:
            raise UndefinedMetricError("correlation undefined: zero variance under mask")
        results.append(cov / math.sqrt(var_a * var_b))
    return results[0] if single else tuple(results)


def improvement_percent(before: float, after: float) -> float:
    """Relative correlation improvement in percent: 100 * (after - before) / |before|.

    Dividing by the magnitude keeps the sign of the change, so a correlation
    that rises from a negative value reports a positive improvement.
    """
    if before == 0.0:
        raise UndefinedMetricError("improvement undefined for zero pre-alignment correlation")
    return 100.0 * (after - before) / abs(before)


def scale_intensity(image: GrayImage, factor: float) -> GrayImage:
    """Scale every pixel by ``factor`` (no clamp; NCC is scale-invariant)."""
    arr = validate_image(image)
    if not np.isfinite(factor) or factor < 0:
        raise ValueError(f"factor must be finite and >= 0, got {factor}")
    return arr * factor


def random_intensity_perturbation(image: GrayImage, seed: int, amplitude: float) -> GrayImage:
    """Multiply each pixel by a factor drawn uniformly from [1-a, 1+a].

    Deterministic per seed; the result is clamped to [0, inf).
    """
    arr = validate_image(image)
    if not (0.0 <= amplitude <= 1.0):
        raise ValueError(f"amplitude must be in [0, 1], got {amplitude}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    factors = np.random.default_rng(seed).uniform(1.0 - amplitude, 1.0 + amplitude, size=arr.shape)
    return np.clip(arr * factors, 0.0, None)
