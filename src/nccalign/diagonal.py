"""Diagonal NCC: the 2D block match reduced to its diagonal samples.

A square D x D block contributes only D samples per shift, cutting the
per-shift numerator cost from D^2 to D multiplies. Statistics (mean,
variance sum) are taken over the diagonal samples alone, making this a
self-consistent 1D NCC. The anti-diagonal is the fallback for blocks whose
features miss the main diagonal. The kernels share the opening and tail of
the full ones (see ``ncc``). The oracle, :func:`ncc_diag`, reads each window
diagonal as an ``np.diagonal`` view; both vectorised kernels,
:func:`ncc_diag_fast` and ``streaming.ncc_stream``, read them through one
zero-copy strided view of the block's reference region, :func:`_window_view`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .images import GrayImage, validate_image
from .ncc import (
    CorrelationMap,
    OpCounter,
    ShiftRange,
    _correlation_map,
    _direct_map,
    _offset,
    _open_kernel,
    _PrefixTables,
)

ORIENTATIONS = ("main", "anti")


def _check_orientation(orientation: str) -> None:
    if orientation not in ORIENTATIONS:
        raise ValueError(f"unknown orientation {orientation!r}, expected 'main' or 'anti'")


@dataclass(frozen=True)
class DiagTables(_PrefixTables):
    """Prefix tables of one orientation, for O(1) diagonal window stats.

    Main tables accumulate from the up-left neighbor:
    table[y + 1, x + 1] = r[y, x] + table[y, x]. Anti tables accumulate from
    the down-left neighbor: table[y, x + 1] = r[y, x] + table[y + 1, x].
    Out-of-image terms are zero via padding. A window of size (length,) is
    ``length`` consecutive diagonal samples from (x0, y0), for the anti
    orientation r[y0 + length - 1 - k, x0 + k]; it costs 2 lookups.
    """

    orientation: str

    def _window(self, table: np.ndarray, x0, y0, length: int):
        """(far entry, window sum): the main tables read the far entry at
        (y0 + length, x0 + length), the anti tables at (y0, x0 + length)."""
        if self.orientation == "main":
            far, near = table[_offset(y0, length), _offset(x0, length)], table[y0, x0]
        else:
            far, near = table[y0, _offset(x0, length)], table[_offset(y0, length), x0]
        return far, far - near


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
    template_block: GrayImage | Sequence[GrayImage],
    reference: GrayImage,
    origin: tuple[int, int] | Sequence[tuple[int, int]],
    shifts: ShiftRange,
    orientation: str = "main",
    *,
    counter: OpCounter | None = None,
) -> CorrelationMap:
    """Per shift, NCC restricted to the D diagonal samples of the window.

    Means and variance sums use the diagonal samples only. Flags match the
    full-NCC conventions (the whole shifted window must stay in bounds).
    Takes one block or a stack of blocks, as ``ncc.ncc_full_naive`` does.
    """
    _check_orientation(orientation)
    return _direct_map(template_block, reference, origin, shifts, counter, orientation)


def _window_view(region: np.ndarray, d: int, orientation: str) -> np.ndarray:
    """Zero-copy strided view of the D diagonal samples of every D x D
    window of ``region``: shape (rows - D + 1, D, columns - D + 1).

    Main: strides (row, row + col, col), so view[i, k, j] =
    region[i + k, j + k] is sample k. Anti: from column D - 1 with strides
    (row, row - col, col), so view[i, k, j] = region[i + k, j + D - 1 - k]
    is sample D - 1 - k. Every stride of a C-ordered region is then
    positive, so a matmul over the view is one BLAS gemv per row of windows
    over the region's own memory. The view is not bounds checked; it stays
    inside ``region`` because it covers exactly the region's D x D windows.
    """
    h, w = region.shape
    shape = (h - d + 1, d, w - d + 1)
    row, col = region.strides
    if orientation == "main":
        return as_strided(region, shape, (row, row + col, col), writeable=False)
    return as_strided(region[:, d - 1:], shape, (row, row - col, col), writeable=False)


def ncc_diag_fast(
    template_block: GrayImage | Sequence[GrayImage],
    reference: GrayImage,
    origin: tuple[int, int] | Sequence[tuple[int, int]],
    shifts: ShiftRange,
    tables: DiagTables,
    *,
    counter: OpCounter | None = None,
) -> CorrelationMap:
    """Same contract as :func:`ncc_diag`, in the orientation of ``tables``;
    denominators via diagonal prefix tables.

    Per shift: D multiplies for the numerator, read straight from the
    reference (see :func:`_window_view`), plus O(1) table lookups for
    the window's diagonal sum and sum of squares. Takes one block or a
    stack of blocks, as ``ncc.ncc_full_naive`` does; the product runs per
    block.
    """
    frame = _open_kernel(template_block, reference, origin, shifts, counter, DiagTables, tables)
    for inbounds, _, t_c, region in frame.blocks:
        # In the view's sample order, contiguous: a reversed view takes another BLAS path.
        t_c = t_c if tables.orientation == "main" else t_c[::-1].copy()
        frame.values[inbounds] = t_c @ _window_view(region, len(t_c), tables.orientation)
    return _correlation_map(shifts, frame)
