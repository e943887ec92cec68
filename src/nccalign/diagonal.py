"""Diagonal NCC: the 2D block match reduced to its diagonal samples.

A square D x D block contributes only D samples per shift, cutting the
per-shift numerator cost from D^2 to D multiplies. Statistics (mean,
variance sum) are taken over the diagonal samples alone, making this a
self-consistent 1D NCC. The anti-diagonal is the fallback for blocks whose
features miss the main diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .images import GrayImage, validate_image
from .ncc import (
    EPS_VAR,
    OUT_OF_BOUNDS,
    VALID,
    ZERO_VARIANCE,
    CorrelationMap,
    OpCounter,
    ShiftRange,
    _check_tables,
    _correlation_map,
    _validate_kernel_inputs,
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


def extract_diagonal(block: GrayImage, orientation: str = "main") -> np.ndarray:
    """The D diagonal samples of a square block, as a contiguous array.

    Main: samples[k] = block[k, k]. Anti: samples[k] = block[D-1-k, k].
    """
    _check_orientation(orientation)
    arr = validate_image(block, "block")
    d = _check_square(arr)
    if orientation == "main":
        samples = np.ascontiguousarray(np.diagonal(arr))
    else:
        samples = np.ascontiguousarray(np.diagonal(arr[::-1, :]))
    assert samples.shape == (d,)
    return samples


def _diag_offsets(d: int, orientation: str) -> tuple[np.ndarray, np.ndarray]:
    """Row/column offsets of the D diagonal samples within a D x D window."""
    k = np.arange(d)
    if orientation == "main":
        return k, k
    return d - 1 - k, k


@dataclass(frozen=True)
class DiagTables:
    """Prefix tables along the 45-degree directions, for O(1) diagonal stats.

    Main tables accumulate from the up-left neighbor:
    main[y + 1, x + 1] = r[y, x] + main[y, x]. Anti tables accumulate from the
    down-left neighbor: anti[y, x + 1] = r[y, x] + anti[y + 1, x]. Out-of-image
    terms are zero via padding. The two tables of an orientation that was
    not built are None; the window lookups raise ValueError for it.
    """

    main_sum: np.ndarray | None
    main_sumsq: np.ndarray | None
    anti_sum: np.ndarray | None
    anti_sumsq: np.ndarray | None

    @property
    def shape(self) -> tuple[int, int]:
        table = self.main_sum if self.main_sum is not None else self.anti_sum
        return table.shape[0] - 1, table.shape[1] - 1

    def orientation_tables(self, orientation: str) -> tuple[np.ndarray, np.ndarray]:
        """(sum, sum of squares) tables of ``orientation``; ValueError if not built."""
        _check_orientation(orientation)
        if orientation == "main":
            pair = self.main_sum, self.main_sumsq
        else:
            pair = self.anti_sum, self.anti_sumsq
        if pair[0] is None:
            raise ValueError(f"diag tables were not built for the {orientation!r} orientation")
        return pair

    def _window(self, index: int, x0, y0, length: int, orientation: str):
        table = self.orientation_tables(orientation)[index]
        x0 = np.asarray(x0)
        y0 = np.asarray(y0)
        if orientation == "main":
            return table[y0 + length, x0 + length] - table[y0, x0]
        return table[y0, x0 + length] - table[y0 + length, x0]

    def window_sum(self, x0, y0, length: int, orientation: str):
        """Sum of ``length`` consecutive diagonal samples starting at (x0, y0).

        For the anti orientation the window's samples are
        r[y0 + length - 1 - k, x0 + k]. x0/y0 broadcast; two lookups each.
        """
        return self._window(0, x0, y0, length, orientation)

    def window_sumsq(self, x0, y0, length: int, orientation: str):
        return self._window(1, x0, y0, length, orientation)

    def window_var_sum(self, x0, y0, length: int, orientation: str):
        s = self.window_sum(x0, y0, length, orientation)
        sq = self.window_sumsq(x0, y0, length, orientation)
        return sq - s * s / length


def build_diag_tables(reference: GrayImage, orientations: tuple[str, ...] = ORIENTATIONS) -> DiagTables:
    """Diagonal prefix tables of the whole reference, which is validated here.

    Only the tables of ``orientations`` are built (both by default); the
    fields of the others are None. A run reads one orientation, so the
    alignment pipeline asks for that one alone.
    """
    if not orientations:
        raise ValueError("build_diag_tables needs at least one orientation")
    for orientation in orientations:
        _check_orientation(orientation)
    arr = validate_image(reference)
    h, w = arr.shape
    sq = arr * arr

    main_sum = main_sumsq = anti_sum = anti_sumsq = None
    if "main" in orientations:
        main_sum = np.zeros((h + 1, w + 1))
        main_sumsq = np.zeros((h + 1, w + 1))
        for y in range(h):
            main_sum[y + 1, 1:] = arr[y] + main_sum[y, :-1]
            main_sumsq[y + 1, 1:] = sq[y] + main_sumsq[y, :-1]

    if "anti" in orientations:
        anti_sum = np.zeros((h + 1, w + 1))
        anti_sumsq = np.zeros((h + 1, w + 1))
        for y in range(h - 1, -1, -1):
            anti_sum[y, 1:] = arr[y] + anti_sum[y + 1, :-1]
            anti_sumsq[y, 1:] = sq[y] + anti_sumsq[y + 1, :-1]

    return DiagTables(
        main_sum=main_sum, main_sumsq=main_sumsq,
        anti_sum=anti_sum, anti_sumsq=anti_sumsq,
    )


def ncc_diag(
    template_block: GrayImage,
    reference: GrayImage,
    origin: tuple[int, int],
    shifts: ShiftRange,
    orientation: str = "main",
    counter: OpCounter | None = None,
) -> CorrelationMap:
    """Per shift, NCC restricted to the D diagonal samples of the window.

    Means and variance sums use the diagonal samples only. Flags match the
    full-NCC conventions (the whole shifted window must stay in bounds).
    Validates the template block and the reference region it reads.
    """
    _check_orientation(orientation)
    t, ref, _ = _validate_kernel_inputs(template_block, reference, origin, shifts)
    d = _check_square(t)
    x0, y0 = origin

    t_diag = extract_diagonal(t, orientation)
    t_mean, t_var = block_stats(t_diag)
    t_c = t_diag - t_mean

    row_off, col_off = _diag_offsets(d, orientation)
    values = np.zeros((shifts.n_dv, shifts.n_du))
    validity = np.full((shifts.n_dv, shifts.n_du), OUT_OF_BOUNDS, dtype=np.uint8)

    h, w = ref.shape
    for iv, dv in enumerate(range(shifts.dv_min, shifts.dv_max + 1)):
        ys = y0 + dv
        if ys < 0 or ys + d > h:
            continue
        rows = ys + row_off
        for iu, du in enumerate(range(shifts.du_min, shifts.du_max + 1)):
            xs = x0 + du
            if xs < 0 or xs + d > w:
                continue
            if counter is not None:
                counter.tally(1, d)
            r_diag = ref[rows, xs + col_off]
            r_mean, r_var = block_stats(r_diag)
            if r_var < EPS_VAR or t_var < EPS_VAR:
                validity[iv, iu] = ZERO_VARIANCE
                continue
            num = float(np.sum((r_diag - r_mean) * t_c))
            values[iv, iu] = num / math.sqrt(r_var * t_var)
            validity[iv, iu] = VALID

    return CorrelationMap(shifts=shifts, values=values, validity=validity)


def _run_start(values, name: str) -> int:
    """First element of a non-empty run of consecutive ascending integers."""
    values = np.asarray(values)
    if values.ndim != 1 or values.size == 0 or np.any(np.diff(values) != 1):
        raise ValueError(f"{name} must be a non-empty run of consecutive shifts")
    return int(values[0])


def gather_window_diagonals(
    reference: np.ndarray,
    origin: tuple[int, int],
    d: int,
    du_values: np.ndarray,
    dv_values: np.ndarray,
    orientation: str,
) -> np.ndarray:
    """Diagonal samples of every shifted window: shape (n_dv, n_du, D).

    ``du_values``/``dv_values`` are runs of consecutive ascending shifts.
    The samples are read through a strided view of ``reference``: strides
    (row, col, row + col) for the main diagonal, and (row, col, col - row)
    from row y + D - 1 for the anti-diagonal. A strided view is not bounds
    checked, so a window that would leave the reference raises ValueError
    first. The result is a C-contiguous copy. Reads pixels without
    validating them; the calling kernel validates the region.
    """
    _check_orientation(orientation)
    h, w = reference.shape
    x0, y0 = origin
    left = x0 + _run_start(du_values, "du_values")
    top = y0 + _run_start(dv_values, "dv_values")
    n_du, n_dv = len(du_values), len(dv_values)
    if left < 0 or top < 0 or left + n_du - 1 + d > w or top + n_dv - 1 + d > h:
        raise ValueError(
            f"{d}x{d} windows at columns {left}..{left + n_du - 1}, rows {top}..{top + n_dv - 1} "
            f"leave the {h}x{w} reference"
        )
    row, col = reference.strides
    if orientation == "main":
        view = as_strided(reference[top:, left:], (n_dv, n_du, d), (row, col, row + col),
                          writeable=False)
    else:
        view = as_strided(reference[top + d - 1:, left:], (n_dv, n_du, d), (row, col, col - row),
                          writeable=False)
    return np.ascontiguousarray(view)


def ncc_diag_fast(
    template_block: GrayImage,
    reference: GrayImage,
    origin: tuple[int, int],
    shifts: ShiftRange,
    tables: DiagTables,
    orientation: str = "main",
    counter: OpCounter | None = None,
) -> CorrelationMap:
    """Same contract as :func:`ncc_diag`; denominators via diagonal prefix tables.

    Per shift: D multiplies for the numerator plus O(1) table lookups for the
    window's diagonal sum and sum of squares. Validates the template block
    and the reference region it reads, not the whole reference.
    """
    _check_orientation(orientation)
    t, ref, bounds = _validate_kernel_inputs(template_block, reference, origin, shifts)
    d = _check_square(t)
    _check_tables(tables, ref)
    tables.orientation_tables(orientation)
    du_lo, du_hi, dv_lo, dv_hi = bounds
    if du_lo > du_hi or dv_lo > dv_hi:
        return _correlation_map(shifts, bounds)
    x0, y0 = origin

    t_diag = extract_diagonal(t, orientation)
    t_mean, t_var = block_stats(t_diag)
    t_c = t_diag - t_mean

    dus = np.arange(du_lo, du_hi + 1)
    dvs = np.arange(dv_lo, dv_hi + 1)
    if counter is not None:
        counter.tally(len(dus) * len(dvs), d)

    samples = gather_window_diagonals(ref, origin, d, dus, dvs, orientation)
    numerators = samples @ t_c

    r_var = tables.window_var_sum(
        (x0 + dus)[None, :], (y0 + dvs)[:, None], d, orientation
    )
    return _correlation_map(shifts, bounds, numerators, r_var, t_var)
