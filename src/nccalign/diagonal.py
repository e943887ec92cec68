"""Diagonal NCC: the 2D block match reduced to its diagonal samples.

A square D x D block contributes only D samples per shift, cutting the
per-shift numerator cost from D^2 to D multiplies. Statistics (mean,
variance sum) are taken over the diagonal samples alone, making this a
self-consistent 1D NCC. The anti-diagonal is the fallback for blocks whose
features miss the main diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .images import GrayImage, validate_image
from .ncc import (
    CorrelationMap,
    OpCounter,
    ShiftRange,
    _check_tables,
    _correlation_map,
    _direct_map,
    _offset,
    _validate_kernel_inputs,
    _var_sum,
    block_stats,
)

ORIENTATIONS = ("main", "anti")


def _check_orientation(orientation: str) -> None:
    if orientation not in ORIENTATIONS:
        raise ValueError(f"unknown orientation {orientation!r}, expected 'main' or 'anti'")


def _check_square(block: np.ndarray) -> int:
    if block.shape[0] != block.shape[1]:
        raise ValueError(f"diagonal NCC needs a square block, got {block.shape}")
    return block.shape[0]


def _diagonal(arr: np.ndarray, orientation: str) -> np.ndarray:
    """The D diagonal samples of a checked square float64 block, as a
    contiguous array.

    Main: samples[k] = block[k, k]. Anti: samples[k] = block[D-1-k, k].
    """
    return np.ascontiguousarray(np.diagonal(arr if orientation == "main" else arr[::-1]))


@dataclass(frozen=True)
class DiagTables:
    """Prefix tables of one orientation, for O(1) diagonal window stats.

    The diagonal counterpart of :class:`~nccalign.ncc.SumTables`. Main
    tables accumulate from the up-left neighbor:
    table[y + 1, x + 1] = r[y, x] + table[y, x]. Anti tables accumulate from
    the down-left neighbor: table[y, x + 1] = r[y, x] + table[y + 1, x].
    Out-of-image terms are zero via padding.
    """

    orientation: str
    sum_table: np.ndarray
    sumsq_table: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.sum_table.shape[0] - 1, self.sum_table.shape[1] - 1

    def _window(self, table: np.ndarray, x0, y0, length: int):
        """(far entry, window sum): the main tables read the far entry at
        (y0 + length, x0 + length), the anti tables at (y0, x0 + length)."""
        if self.orientation == "main":
            far, near = table[_offset(y0, length), _offset(x0, length)], table[y0, x0]
        else:
            far, near = table[y0, _offset(x0, length)], table[_offset(y0, length), x0]
        return far, far - near

    def window_sum(self, x0, y0, length: int):
        """Sum of ``length`` consecutive diagonal samples starting at (x0, y0).

        For the anti orientation the window's samples are
        r[y0 + length - 1 - k, x0 + k]. x0/y0 are ints, or slices of
        consecutive origins: then the result is the (rows, columns)
        rectangle of windows. Two lookups each.
        """
        return self._window(self.sum_table, x0, y0, length)[1]

    def window_var_sum(self, x0, y0, length: int):
        """Variance sum of the window's samples (see ``ncc._var_sum``)."""
        far, sq = self._window(self.sumsq_table, x0, y0, length)
        return _var_sum(self.window_sum(x0, y0, length), sq, far, length)


def build_diag_tables(reference: GrayImage, orientation: str = "main") -> DiagTables:
    """Diagonal prefix tables of ``orientation`` over the whole reference,
    which is validated here."""
    _check_orientation(orientation)
    arr = validate_image(reference)
    if orientation == "main":
        sum_table, sumsq_table = _diag_prefix(arr)
    else:
        # The anti tables are the main tables of the upside-down image, read
        # upside down: anti[y, x] = main'[h - y, x]. Each entry is the same
        # additions in the same order, so the values are bit-identical to a
        # per-row loop up from the bottom row.
        sum_table, sumsq_table = (table[::-1] for table in _diag_prefix(arr[::-1]))
    return DiagTables(orientation=orientation, sum_table=sum_table, sumsq_table=sumsq_table)


def _diag_prefix(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Main-orientation (sum, sum of squares) prefix tables of ``arr``."""
    h, w = arr.shape
    total = np.zeros((h + 1, w + 1))
    total_sq = np.zeros((h + 1, w + 1))
    sq = np.empty(w)
    # Each row is written in place from the row above, the squares through
    # one row of scratch: no full-size temporary.
    for y in range(h):
        np.add(arr[y], total[y, :-1], out=total[y + 1, 1:])
        np.multiply(arr[y], arr[y], out=sq)
        np.add(sq, total_sq[y, :-1], out=total_sq[y + 1, 1:])
    return total, total_sq


def ncc_diag(
    template_block: GrayImage,
    reference: GrayImage,
    origin: tuple[int, int],
    shifts: ShiftRange,
    orientation: str = "main",
    *,
    counter: OpCounter | None = None,
) -> CorrelationMap:
    """Per shift, NCC restricted to the D diagonal samples of the window.

    Means and variance sums use the diagonal samples only. Flags match the
    full-NCC conventions (the whole shifted window must stay in bounds).
    Validates the template block and the reference region it reads.
    """
    _check_orientation(orientation)
    t, ref, bounds = _validate_kernel_inputs(template_block, reference, origin, shifts)
    d = _check_square(t)
    return _direct_map(_diagonal(t, orientation),
                       lambda ys, xs: _diagonal(ref[ys:ys + d, xs:xs + d], orientation),
                       origin, shifts, bounds, counter)


def gather_window_diagonals(
    reference: np.ndarray,
    origin: tuple[int, int],
    d: int,
    bounds: tuple[int, int, int, int],
    orientation: str,
) -> np.ndarray:
    """Diagonal samples of every shifted window: shape (n_dv, n_du, D).

    ``bounds`` is the (du_lo, du_hi, dv_lo, dv_hi) shift run of
    :func:`~nccalign.ncc._inbounds_ranges`. The samples are read through a
    strided view of ``reference``: strides (row, col, row + col) for the
    main diagonal, and (row, col, col - row) from row y + D - 1 for the
    anti-diagonal. A strided view is not bounds checked, so a window that
    would leave the reference raises ValueError first. The result is a
    C-contiguous copy. Reads pixels without validating them; the calling
    kernel validates the region. Within a frame only the stream front end
    (``streaming._front_end``, through :func:`_region_diagonals`) still
    gathers; :func:`ncc_diag_fast` reads its numerators through
    :func:`_window_numerators` without a copy.
    """
    _check_orientation(orientation)
    h, w = reference.shape
    x0, y0 = origin
    du_lo, du_hi, dv_lo, dv_hi = bounds
    left, right, top, bottom = x0 + du_lo, x0 + du_hi, y0 + dv_lo, y0 + dv_hi
    if left < 0 or top < 0 or right + d > w or bottom + d > h:
        raise ValueError(
            f"{d}x{d} windows at columns {left}..{right}, rows {top}..{bottom} "
            f"leave the {h}x{w} reference"
        )
    shape = (bottom - top + 1, right - left + 1, d)
    row, col = reference.strides
    if orientation == "main":
        view = as_strided(reference[top:, left:], shape, (row, col, row + col), writeable=False)
    else:
        view = as_strided(reference[top + d - 1:, left:], shape, (row, col, col - row),
                          writeable=False)
    return np.ascontiguousarray(view)


def _diag_windows(template_block, reference, origin, shifts, tables, counter):
    """The checks, tally and table variances that open both vectorised
    diagonal kernels, :func:`ncc_diag_fast` and ``streaming.ncc_stream``, in
    the orientation of ``tables``.

    Returns the clipped shift bounds and, unless no shift is in bounds (then
    None), the template diagonal, its mean and variance sum, the validated
    reference region that the in-bounds windows cover (a view, which
    :func:`ncc_diag_fast` reads through :func:`_window_numerators` and the
    stream front end gathers through :func:`_region_diagonals`) and the
    (n_dv, n_du) window variance sums.
    """
    t, ref, bounds = _validate_kernel_inputs(template_block, reference, origin, shifts)
    d = _check_square(t)
    _check_tables(tables, DiagTables, ref)
    du_lo, du_hi, dv_lo, dv_hi = bounds
    if du_lo > du_hi or dv_lo > dv_hi:
        return bounds, None
    x0, y0 = origin

    t_diag = _diagonal(t, tables.orientation)
    t_mean, t_var = block_stats(t_diag)
    if counter is not None:
        counter.tally((du_hi - du_lo + 1) * (dv_hi - dv_lo + 1), d)

    region = ref[y0 + dv_lo:y0 + dv_hi + d, x0 + du_lo:x0 + du_hi + d]
    r_var = tables.window_var_sum(slice(x0 + du_lo, x0 + du_hi + 1),
                                  slice(y0 + dv_lo, y0 + dv_hi + 1), d)
    return bounds, (t_diag, t_mean, t_var, region, r_var)


def _region_diagonals(region: np.ndarray, d: int, orientation: str) -> np.ndarray:
    """:func:`gather_window_diagonals` of every D x D window of ``region``:
    shape (rows - D + 1, columns - D + 1, D). Its one frame caller is the
    stream front end, ``streaming._front_end``, whose moving averages need
    each window's samples."""
    h, w = region.shape
    return gather_window_diagonals(region, (0, 0), d, (0, w - d, 0, h - d), orientation)


def _window_numerators(region: np.ndarray, t_c: np.ndarray, orientation: str) -> np.ndarray:
    """Per D x D window of ``region``, its D diagonal samples dotted with the
    centred template diagonal ``t_c``: shape (rows - D + 1, columns - D + 1).

    One matmul of ``t_c`` against a zero-copy strided view of ``region``, of
    shape (rows - D + 1, D, columns - D + 1): for the main diagonal, strides
    (row, row + col, col), so view[i, k, j] = region[i + k, j + k]; for the
    anti-diagonal, from column D - 1 with strides (row, row - col, col), so
    view[i, k, j] = region[i + k, j + D - 1 - k] is sample D - 1 - k, read
    against ``t_c`` reversed. Every stride of a C-ordered region is then
    positive and each row of windows is one BLAS gemv over the region's own
    memory; no window diagonal is copied.
    """
    d = len(t_c)
    h, w = region.shape
    shape = (h - d + 1, d, w - d + 1)
    row, col = region.strides
    if orientation == "main":
        view = as_strided(region, shape, (row, row + col, col), writeable=False)
    else:
        view = as_strided(region[:, d - 1:], shape, (row, row - col, col), writeable=False)
        t_c = np.ascontiguousarray(t_c[::-1])
    return t_c @ view


def ncc_diag_fast(
    template_block: GrayImage,
    reference: GrayImage,
    origin: tuple[int, int],
    shifts: ShiftRange,
    tables: DiagTables,
    *,
    counter: OpCounter | None = None,
) -> CorrelationMap:
    """Same contract as :func:`ncc_diag`, in the orientation of ``tables``;
    denominators via diagonal prefix tables.

    Per shift: D multiplies for the numerator, read straight from the
    reference (see :func:`_window_numerators`), plus O(1) table lookups for
    the window's diagonal sum and sum of squares. Validates the template
    block and the reference region it reads, not the whole reference.
    """
    bounds, windows = _diag_windows(template_block, reference, origin, shifts, tables, counter)
    if windows is None:
        return _correlation_map(shifts, bounds)
    t_diag, t_mean, t_var, region, r_var = windows
    numerators = _window_numerators(region, t_diag - t_mean, tables.orientation)
    return _correlation_map(shifts, bounds, numerators, r_var, t_var)
