"""End-to-end stereo alignment: partitioning, per-block disparity, dense
interpolation, warping, and the correlation metrics, plus the intensity
perturbations used for robustness runs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .diagonal import build_diag_tables, ncc_diag, ncc_diag_fast
from .errors import UnalignableError, UndefinedMetricError
from .images import (GrayImage, DistinctRows, chunk_rows, distinct_row_runs, image_array, row_chunks,
                     validate_image)
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
            f"cropped region {w - 2 * margin_x}x{h - 2 * margin_y} smaller than one {block_size} block"
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


class DenseDisparity:
    """Per-pixel real (du, dv) field, two (h, w) maps.

    :func:`interpolate_disparity` makes it from two
    :class:`images.DistinctRows` that share one run list, and it is kept as
    those rows: ``du`` and ``dv`` are built from them on first read, as
    read-only float64 arrays, so nothing can edit them out of step with the
    rows. Made from caller arrays, ``DenseDisparity(du=..., dv=...)``, it
    keeps the arrays themselves, and :meth:`maps` searches them on every
    call, so an edit made between two reads is never missed. du and dv must
    have one shape; a ValueError names both otherwise.
    """

    def __init__(self, du, dv):
        rows = isinstance(du, DistinctRows) and isinstance(dv, DistinctRows)
        shapes = (du.shape, dv.shape) if rows else (np.shape(du), np.shape(dv))
        if shapes[0] != shapes[1]:
            raise ValueError(f"dense field dv {shapes[1]} does not match du {shapes[0]}")
        self.shape = shapes[0]
        self._maps = (du, dv) if rows else None
        self._arrays = [None, None] if rows else [du, dv]

    @property
    def du(self) -> np.ndarray:
        return self._array(0)

    @property
    def dv(self) -> np.ndarray:
        return self._array(1)

    def _array(self, i: int) -> np.ndarray:
        if self._arrays[i] is None:
            built = self._maps[i].expand()
            built.flags.writeable = False
            self._arrays[i] = built
        return self._arrays[i]

    def maps(self) -> tuple[DistinctRows, DistinctRows]:
        """du and dv as :class:`images.DistinctRows` with the one run list
        they share: the rows kept, or the caller's arrays, read as float64,
        in place with the runs :func:`images.distinct_row_runs` finds now."""
        if self._maps is not None:
            return self._maps
        du, dv = (np.asarray(part, dtype=np.float64) for part in self._arrays)
        runs = distinct_row_runs(du, dv)
        return DistinctRows(du, runs), DistinctRows(dv, runs)


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


def bilinear_grid_sample(
    centers_x: np.ndarray,
    centers_y: np.ndarray,
    values: Sequence[np.ndarray],
    query_x: np.ndarray,
    query_y: np.ndarray,
) -> list[DistinctRows]:
    """Evaluate bilinear interpolation of each grid of ``values`` (a
    sequence of len(cy) x len(cx) samples) at the outer product of query
    coordinates; constant beyond the hull.

    Separable: each grid is first interpolated along y at every query row
    (a len(qy) x len(cx) grid), then along x. An output row depends only on
    its row of the y-blended grid, so only the rows whose grid row differs
    in its bits from the one before in some grid (+0.0 and -0.0 differ;
    found by :func:`images.distinct_row_runs` of the y-blended grids) are
    blended along x, a chunk of rows at a time through one chunk of
    scratch. Each grid's result is a :class:`images.DistinctRows` of those
    rows, packed, and all of them share one run list. Where the blocks
    around a band of rows agree, as above and below the outermost centres
    or between two rows of equal integral shifts, the band is one row.
    Equal to the four-corner blend up to rounding, and exactly so when the
    products are exact.
    """
    j0, j1, wx = _axis_weights(np.asarray(centers_x, dtype=np.float64), np.asarray(query_x, dtype=np.float64))
    i0, i1, wy = _axis_weights(np.asarray(centers_y, dtype=np.float64), np.asarray(query_y, dtype=np.float64))
    ux = 1.0 - wx
    # The y-blends are small (len(qy) x len(cx)); the x-blend is the wide pass.
    grids = [grid[i0] * (1.0 - wy)[:, None] + grid[i1] * wy[:, None] for grid in values]
    runs = distinct_row_runs(*grids)
    distinct = np.concatenate([np.arange(a, b) for a, b, _ in runs])
    height, width = len(distinct), len(j0)
    rows = chunk_rows(height, width)
    upper = np.empty((rows, width))
    maps = []
    for grid in grids:
        grid = grid[distinct]
        out = np.empty((height, width))
        for c, d in row_chunks(height, rows):
            lower, up = out[c:d], upper[:d - c]
            np.take(grid[c:d], j0, axis=1, out=lower, mode="clip")
            lower *= ux
            np.take(grid[c:d], j1, axis=1, out=up, mode="clip")
            up *= wx
            lower += up
        maps.append(DistinctRows(out, runs))
    return maps


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
    that is not. Both components are one :func:`bilinear_grid_sample` call,
    which takes the runs of rows they share from the two y-blended grids
    and blends only the rows that differ from the row before; the field is
    kept as those rows (see :class:`DenseDisparity`).
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
    du, dv = bilinear_grid_sample(cx, cy, (field.du, field.dv), qx, qy)
    return DenseDisparity(du=du, dv=dv)


def warp(template: GrayImage, dense: DenseDisparity) -> tuple[GrayImage, np.ndarray]:
    """Resample the template through the dense field (inverse mapping).

    output(x, y) = template(x - du(x, y), y - dv(x, y)), bilinear. Returns
    the warped image and a validity mask; samples falling outside the
    template, or at a non-finite shift, are masked out (and set to 0).
    Validates the whole template.

    The field is read as its distinct rows (:meth:`DenseDisparity.maps`):
    in each run (a, b, stop), rows b - 1 to stop - 1 share one field row,
    which :func:`_column_runs` splits into runs of columns. A run of one
    integral (du, dv) is a shifted copy of the template (see
    :func:`_copy_shifted`), bit for bit what the blend gives; every other
    pixel goes through :func:`_warp_rows`, which reads that one row
    broadcast down the band. Rows a to b - 2, and the runs with nothing to
    copy, are blended whole together with the rows next to them, each chunk
    reading its field rows through one chunk-sized gather, so a field with
    nothing to copy is blended in the chunks of :func:`images.row_chunks`.
    Copies and blends share one loop over chunks of rows, each chunk as
    tall as lets its blended pixels fill one set of scratch buffers, so a
    copy is made a chunk at a time.
    """
    t = validate_image(template)
    h, w = t.shape
    if dense.shape != t.shape:
        raise ValueError(f"dense field {dense.shape} does not match template {t.shape}")
    du_map, dv_map = dense.maps()
    # Both maps share their runs, so one index gives the row of each.
    du_rows, dv_rows, index = du_map.rows, dv_map.rows, du_map.index()
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
    fields = np.empty((2, rows, w))
    # (first row, stop row, column runs, the one field row or None for a
    # band blended whole, which grows over the next).
    whole, bands = [(0, w, None)], []
    for a, b, stop in du_map.runs:
        k = index[b - 1]
        runs = _column_runs(du_rows[k], dv_rows[k], stop - b + 1, h)
        if bands and bands[-1][2] is whole:
            a = bands.pop()[0]
        top = b - 1 if runs else stop
        if top > a:
            bands.append((a, top, whole, None))
        if runs:
            bands.append((b - 1, stop, runs, k))
    for a, b, runs, k in bands:
        step = rows * w // (sum(d - c for c, d, shift in runs if shift is None) or w)
        for r0 in range(a, b, step):
            r1 = min(r0 + step, b)
            if k is None:
                du, dv = (part.take(index[r0:r1], axis=0, out=field[:r1 - r0])
                          for part, field in zip((du_rows, dv_rows), fields))
            else:
                du, dv = du_rows[k:k + 1], dv_rows[k:k + 1]
            for c, d, shift in runs:
                if shift is None:
                    _warp_rows(flat, h, w, xs[c:d], ys[r0:r1], du[:, c:d], dv[:, c:d],
                               out[r0:r1, c:d], mask[r0:r1, c:d], buffers)
                else:
                    _copy_shifted(t, out, mask, (r0, r1, c, d), shift)
    return out, mask


def _column_runs(du, dv, rows, h):
    """The runs of columns of one field row that ``rows`` rows share, as
    (start, stop, shift) in order: ``shift`` is the one integral (du, dv) of
    a run to copy, None for the columns between those. Empty when nothing
    is copied; ``h`` is the template's height.

    A run of one integral shift is copied when it holds an image row's
    worth of pixels (columns x ``rows`` >= the width), so many small runs
    are blended whole. A shift is clipped to the template's extent, past
    which every sample is outside, as at +-inf (NaN is never a run).
    """
    w = len(du)
    starts = np.flatnonzero(np.concatenate(([True], (du[1:] != du[:-1]) | (dv[1:] != dv[:-1]))))
    stops = np.append(starts[1:], w)
    long = (stops - starts) * rows >= w
    starts, stops = starts[long], stops[long]
    p, q = du[starts], dv[starts]
    copy = (np.floor(p) == p) & (np.floor(q) == q)
    shifts = zip(np.clip(p[copy], -w, w).astype(np.int64).tolist(),
                 np.clip(q[copy], -h, h).astype(np.int64).tolist())
    runs, c = [], 0
    for start, stop, shift in zip(starts[copy].tolist(), stops[copy].tolist(), shifts):
        if start > c:
            runs.append((c, start, None))
        runs.append((start, stop, shift))
        c = stop
    return runs + [(c, w, None)] if runs and c < w else runs


def _copy_shifted(t, out, mask, region, shift) -> None:
    """Warp ``region`` (rows a:b, columns c:d) of ``out`` and ``mask`` at
    the one integral shift (du, dv), which may lie past the template's
    extent: a slice copy of the template, 0 and masked out where the sample
    falls outside it.

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
    through ``buffers``, which hold at least as many pixels. ``du`` and
    ``dv`` are the chunk's field, or the one field row all its rows share.

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
