"""End-to-end stereo alignment: partitioning, per-block disparity, dense
interpolation, warping, and the correlation metrics, plus the intensity
perturbations used for robustness runs.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .diagonal import build_diag_tables, ncc_diag, ncc_diag_fast
from .errors import UnalignableError, UndefinedMetricError
from .images import GrayImage, chunk_rows, row_chunks, validate_image
from .ncc import (
    OpCounter,
    ShiftRange,
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
    """
    arr = validate_image(image)
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

    @property
    def shape(self) -> tuple[int, int]:
        return self.du.shape

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

    Blocks with no valid shift anywhere are marked invalid. Deterministic
    given the arguments (the stream method's noise is seeded per block).
    This is the boundary where both whole images are validated; each
    kernel then validates only the pixels it reads.
    """
    t = validate_image(template, "template")
    ref = validate_image(reference, "reference")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if ref.shape[0] < t.shape[0] or ref.shape[1] < t.shape[1]:
        raise ValueError(f"reference {ref.shape} smaller than template {t.shape}")

    sum_tables = build_sum_tables(ref) if method == "full-fast" else None
    diag_tables = build_diag_tables(ref, (orientation,)) if method in ("diag-fast", "stream") else None

    b = grid.block_size
    du = np.zeros((grid.rows, grid.cols))
    dv = np.zeros((grid.rows, grid.cols))
    coeff = np.full((grid.rows, grid.cols), np.nan)
    status = np.full((grid.rows, grid.cols), BLOCK_INVALID, dtype=np.uint8)

    for row, col, x0, y0 in grid.origins():
        block = t[y0:y0 + b, x0:x0 + b]
        origin = (x0, y0)
        if method == "full":
            cmap = ncc_full_naive(block, ref, origin, shifts, counter=counter)
        elif method == "full-fast":
            cmap = ncc_full_fast(block, ref, origin, shifts, sum_tables, counter=counter)
        elif method == "diag":
            cmap = ncc_diag(block, ref, origin, shifts, orientation, counter=counter)
        elif method == "diag-fast":
            cmap = ncc_diag_fast(block, ref, origin, shifts, diag_tables, orientation, counter=counter)
        else:
            cmap = ncc_stream(
                block, ref, origin, shifts, orientation,
                ma_config=ma_config, noise=noise, tables=diag_tables,
                block_id=row * grid.cols + col, counter=counter,
            )
        best = best_shift(cmap)
        if best is not None:
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


def _in_row_bands(height: int, work, make_scratch) -> None:
    """Call ``work(start, stop, scratch)`` for bands of rows covering
    [0, height), one band per CPU this process may run on
    (``os.sched_getaffinity`` where the platform has it, else
    ``os.cpu_count``; at most one band per row), each on its own thread.

    Band sizes differ by at most one row. ``make_scratch()`` runs here, on
    the calling thread, once per band, so a worker allocates nothing and
    writes through ``out=`` only. The band count has no option: every band
    computes the same per-pixel formulas, so no output depends on it. A
    worker's exception is raised here.
    """
    # The affinity set is Linux-only; elsewhere count every CPU.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    bands = max(1, min(cpus, height))
    edges = [height * i // bands for i in range(bands + 1)]
    scratch = [make_scratch() for _ in range(bands)]
    with ThreadPoolExecutor(max_workers=bands) as pool:
        # list() re-raises any worker's exception here.
        list(pool.map(work, edges[:-1], edges[1:], scratch))


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


def _grid_sample(centers_x, centers_y, components, query_x, query_y) -> list[np.ndarray]:
    """:func:`bilinear_grid_sample` of each array of ``components`` over
    one set of weights and one pool of row bands."""
    j0, j1, wx = _axis_weights(np.asarray(centers_x, dtype=np.float64), np.asarray(query_x, dtype=np.float64))
    i0, i1, wy = _axis_weights(np.asarray(centers_y, dtype=np.float64), np.asarray(query_y, dtype=np.float64))
    ux = 1.0 - wx
    # The y-blend is small (len(qy) x len(cx)); the x-blend is the full-size pass.
    grids = [values[i0] * (1.0 - wy)[:, None] + values[i1] * wy[:, None] for values in components]
    height, width = len(i0), len(j0)
    outs = [np.empty((height, width)) for _ in components]
    rows = chunk_rows(height, width)

    def blend_band(start: int, stop: int, upper: np.ndarray) -> None:
        for a, b in row_chunks(start, stop, rows):
            up = upper[:b - a]
            for grid, out in zip(grids, outs):
                lower = out[a:b]
                np.take(grid[a:b], j0, axis=1, out=lower, mode="clip")
                lower *= ux
                np.take(grid[a:b], j1, axis=1, out=up, mode="clip")
                up *= wx
                lower += up

    _in_row_bands(height, blend_band, lambda: np.empty((rows, width)))
    return outs


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
    (a len(qy) x len(cx) grid), then along x, a chunk of rows at a time on
    the row bands of :func:`_in_row_bands`. Equal to the four-corner blend
    up to rounding, and exactly so when the products are exact.
    """
    (out,) = _grid_sample(centers_x, centers_y, (values,), query_x, query_y)
    return out


def interpolate_disparity(
    field: DisparityField,
    grid: BlockGrid,
    extent: tuple[int, int],
) -> DenseDisparity:
    """Bilinear interpolation of block-center disparities to a dense field.

    ``extent`` is (width, height) of the output; pixels beyond the outermost
    centers take the nearest-center value. The field must be complete
    (no invalid blocks; run fill_invalid first). Both components share one
    pool of row bands.
    """
    if np.any(field.status == BLOCK_INVALID):
        raise ValueError("disparity field still has invalid blocks; fill_invalid first")
    width, height = extent
    cx, cy = grid.center_coords()
    qx = np.arange(width, dtype=np.float64)
    qy = np.arange(height, dtype=np.float64)
    dense_du, dense_dv = _grid_sample(cx, cy, (field.du, field.dv), qx, qy)
    return DenseDisparity(du=dense_du, dv=dense_dv)


def warp(template: GrayImage, dense: DenseDisparity) -> tuple[GrayImage, np.ndarray]:
    """Resample the template through the dense field (inverse mapping).

    output(x, y) = template(x - du(x, y), y - dv(x, y)), bilinear. Returns
    the warped image and a validity mask; samples falling outside the
    template, or at a non-finite shift, are masked out (and set to 0).
    Validates the whole template.

    Works a chunk of rows at a time on the row bands of
    :func:`_in_row_bands`, through scratch made here; see
    :func:`_warp_rows` for the per-chunk formula.
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

    def scratch():
        return (
            np.empty((6, rows, w)),
            np.empty((3, rows, w), dtype=np.int64),
            np.empty((2, rows, w), dtype=bool),
        )

    def warp_band(start: int, stop: int, buffers) -> None:
        for a, b in row_chunks(start, stop, rows):
            _warp_rows(flat, h, w, xs, ys[a:b], dense.du[a:b], dense.dv[a:b], out[a:b], mask[a:b], buffers)

    _in_row_bands(h, warp_band, scratch)
    return out, mask


def _warp_rows(flat, h, w, xs, ys, du, dv, out, mask, buffers) -> None:
    """Warp one chunk of rows into ``out``/``mask`` through ``buffers``.

    The sample coordinates are clamped to the template (``fmax``/``fmin``,
    which also send NaN to 0 and +-inf to an edge), and a pixel is in the
    mask when clamping left both unchanged. ``modf`` of the clamped
    coordinates gives the lower taps and the weights; the +1 taps stay on
    the last column and row. The blend order,
    ((v00*uy)*ux + (v01*uy)*wx) + (v10*wy)*ux + (v11*wy)*wx, is that of
    ``scipy.ndimage.map_coordinates(order=1)``, so the result is
    bit-identical to it. Every step writes into ``buffers`` and mixes no
    dtypes, so numpy needs no cast buffer of its own.
    """
    n = len(out)
    floats, ints, bools = (buf[:, :n] for buf in buffers)
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
    np.modf(wx, out=(wx, x0))
    np.modf(wy, out=(wy, y0))
    np.equal(x0, w - 1, out=last_x)
    np.equal(y0, h - 1, out=last_y)
    y0 *= w
    y0 += x0
    np.copyto(tap00, y0, casting="unsafe")
    ux, uy, value = sx, sy, x0
    np.subtract(1.0, wx, out=ux)
    np.subtract(1.0, wy, out=uy)

    np.take(flat, tap00, out=out, mode="clip")
    out *= uy
    out *= ux
    np.add(tap00, 1, out=tap01)
    np.copyto(tap01, tap00, where=last_x)
    np.take(flat, tap01, out=value, mode="clip")
    value *= uy
    value *= wx
    out += value
    np.add(tap00, w, out=tap)
    np.copyto(tap, tap00, where=last_y)
    np.take(flat, tap, out=value, mode="clip")
    value *= wy
    value *= ux
    out += value
    np.add(tap01, w, out=tap)
    np.copyto(tap, tap01, where=last_y)
    np.take(flat, tap, out=value, mode="clip")
    value *= wy
    value *= wx
    out += value
    np.logical_not(mask, out=last_y)
    np.copyto(out, 0.0, where=last_y)


def _masked_copy(arr: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """The masked pixels (all of them when ``mask`` is None) as a new 1D array."""
    return arr[mask] if mask is not None else arr.flatten()


def global_correlation(
    a: GrayImage | tuple[GrayImage, ...], b: GrayImage, mask: np.ndarray | None = None
) -> float | tuple[float, ...]:
    """Pearson correlation between two images over the masked pixels.

    ``a`` may also be a tuple of images; the result is then the tuple of
    their correlations with ``b``. The masked, centred ``b`` and its sum of
    squares are computed once for the whole tuple, and each image of the
    tuple is centred and multiplied in place in a masked copy of its own,
    so each value is bit-identical to a single call. No input is modified.
    """
    single = not isinstance(a, tuple)
    images = [validate_image(img, "a") for img in ((a,) if single else a)]
    bb = validate_image(b, "b")
    for aa in images:
        if aa.shape != bb.shape:
            raise ValueError(f"image extents differ: {aa.shape} vs {bb.shape}")
    if mask is not None and mask.shape != bb.shape:
        raise ValueError(f"mask shape {mask.shape} does not match images {bb.shape}")
    bc = _masked_copy(bb, mask)
    if bc.size < 2:
        raise UndefinedMetricError(f"correlation needs >= 2 pixels, mask selects {bc.size}")
    bc -= bc.mean()
    var_b = float(np.sum(bc * bc))
    results = []
    for aa in images:
        ac = _masked_copy(aa, mask)
        ac -= ac.mean()
        var_a = float(np.sum(ac * ac))
        if var_a <= 0.0 or var_b <= 0.0:
            raise UndefinedMetricError("correlation undefined: zero variance under mask")
        ac *= bc
        results.append(float(np.sum(ac)) / math.sqrt(var_a * var_b))
    return results[0] if single else tuple(results)


def improvement_percent(before: float, after: float) -> float:
    """Relative correlation improvement in percent: 100 * (after - before) / before."""
    if before == 0.0:
        raise UndefinedMetricError("improvement undefined for zero pre-alignment correlation")
    return 100.0 * (after - before) / before


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
    factors = np.random.default_rng(seed).uniform(1.0 - amplitude, 1.0 + amplitude, size=arr.shape)
    return np.clip(arr * factors, 0.0, None)
