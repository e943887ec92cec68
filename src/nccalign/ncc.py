"""Full 2D normalized cross correlation, baseline and sum-table accelerated.

The correlation coefficient for a template block t against the reference
window at shift (du, dv) is the zero-mean cross product divided by the
square root of the product of the two variance sums. Windows that leave the
reference are flagged out-of-bounds; windows (or templates) whose variance
sum falls below ``EPS_VAR`` are flagged zero-variance instead of dividing
by ~0. A table variance below the tables' rounding counts as 0 (see
:func:`_var_sum`).

The accelerated variant is the fast NCC of J.P. Lewis, *Fast Normalized
Cross-Correlation* (Vision Interface 1995): window statistics from prefix
sum tables, and the numerator of every shift at once from one FFT
cross-correlation of the centred template with the reference region.

All five kernels, these two and those of ``diagonal`` and ``streaming``,
run one opening, :func:`_open_kernel`, and one tail, :func:`_correlation_map`,
so they differ only in their samples (block or diagonal) and numerator.
The tail reads only the variance sums: the stream kernel flags a dead
stream by writing its window variance sum as 0. A call takes one block, or
a stack of blocks whose maps it returns stacked: the opening and the tail
then run once for the stack, the numerators per block.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .images import GrayImage, _all_finite, _prefix_sums, image_array, validate_image

# Variance-sum threshold (on [0,1]-normalized intensities) below which a
# window is treated as featureless.
EPS_VAR = 1e-12

# Per-shift validity codes.
VALID = 0
ZERO_VARIANCE = 1
OUT_OF_BOUNDS = 2


@dataclass
class OpCounter:
    """Tally of numerator work, for cost-model comparisons.

    Counts reflect the dense per-shift numerator cost (window size multiplies
    and adds per evaluated in-bounds shift), independent of zero-variance
    short-circuits, so naive and accelerated variants tally identically.
    This is a cost model, not a count of the work done: ``ncc_full_fast``
    tallies D² per shift although its FFT numerator does fewer multiplies,
    and ``streaming.ncc_stream`` tallies D per shift also when it reuses a
    block's memoised noiseless products.
    """

    multiplies: int = 0
    adds: int = 0
    shifts: int = 0

    def tally(self, shifts: int, per_shift: int) -> None:
        self.shifts += shifts
        self.multiplies += shifts * per_shift
        self.adds += shifts * per_shift


@dataclass(frozen=True)
class ShiftRange:
    """Inclusive search window of horizontal (du) and vertical (dv) shifts."""

    du_min: int
    du_max: int
    dv_min: int
    dv_max: int

    def __post_init__(self):
        if self.du_min > self.du_max or self.dv_min > self.dv_max:
            raise ValueError(f"degenerate shift range {self}")

    @classmethod
    def symmetric(cls, radius: int) -> "ShiftRange":
        return cls(-radius, radius, -radius, radius)

    @property
    def n_du(self) -> int:
        return self.du_max - self.du_min + 1

    @property
    def n_dv(self) -> int:
        return self.dv_max - self.dv_min + 1


def _two_pass(values: np.ndarray) -> tuple[float, np.ndarray, float]:
    """The textbook two-pass statistics of float64 ``values`` (Chan, Golub
    & LeVeque, 1983): (mean, ``values - mean``, its sum of squares).

    ``np.add.reduce`` over all axes is the sum ``np.sum`` and ``np.mean``
    take, in the same order, without their Python wrappers; the mean
    divides it by the count as ``np.mean`` does.
    """
    mean = float(np.add.reduce(values, axis=None) / values.size)
    centred = values - mean
    return mean, centred, float(np.add.reduce(centred * centred, axis=None))


@dataclass
class CorrelationMap:
    """C(du, dv) over a shift range, with per-shift validity flags.

    A map is its arrays. ``values`` and ``validity`` are indexed
    [dv - dv_min, du - du_min]; a stacked map of n blocks adds a leading
    block axis, (n, n_dv, n_du), and whatever reads a map works on both
    shapes. ``clamped`` marks shifts whose streaming value was pulled back
    into [-1, 1]; it stays None for exact variants.
    """

    shifts: ShiftRange
    values: np.ndarray
    validity: np.ndarray
    clamped: np.ndarray | None = None

    @property
    def valid_mask(self) -> np.ndarray:
        return self.validity == VALID


@dataclass(frozen=True)
class BestShift:
    du: int
    dv: int
    coeff: float


def _offset(index, k: int):
    """A table index (int or slice of consecutive entries) moved by ``k``."""
    if isinstance(index, slice):
        return slice(index.start + k, index.stop + k)
    return index + k


@dataclass(frozen=True)
class _PrefixTables:
    """Padded prefix tables of reference intensities and their squares, read
    through the corners of each kind's ``_window(table, x0, y0, *size)``."""

    sum_table: np.ndarray
    sumsq_table: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.sum_table.shape[0] - 1, self.sum_table.shape[1] - 1

    def window_var_sum(self, x0, y0, *size: int):
        """Variance sum of the window at (x0, y0) of extent ``size`` (see
        :func:`_var_sum`). x0/y0 are ints, or slices of consecutive origins:
        then the result is the (rows, columns) rectangle of windows."""
        far, sq = self._window(self.sumsq_table, x0, y0, *size)
        return _var_sum(self._window(self.sum_table, x0, y0, *size)[1], sq, far, math.prod(size))


class SumTables(_PrefixTables):
    """Rectangle tables: ``table[y + 1, x + 1]`` holds the sum over [0..x] x
    [0..y], so a window of size (width, height) costs 4 lookups."""

    def _window(self, table: np.ndarray, x0, y0, width: int, height: int):
        """(far corner ``table[y0 + height, x0 + width]``, window sum)."""
        y1, x1 = _offset(y0, height), _offset(x0, width)
        far = table[y1, x1]
        return far, far - table[y0, x1] - table[y1, x0] + table[y0, x0]


def _var_sum(s, sq, far, n: int):
    """Variance sum ``sq - s^2 / n`` of n-sample windows from prefix-table
    lookups: window sums ``s`` and ``sq`` and the sum-of-squares prefix entry
    ``far`` that the ``sq`` lookup read.

    Cancellation in the subtraction (Chan, Golub & LeVeque, 1983) leaves a
    flat window a variance of up to about 42 eps * far instead of 0 (seen
    at 1920x1080), so a variance below 1024 eps * far counts as 0: the
    tables cannot resolve a smaller one.
    """
    var = sq - s * s / n
    return np.where(var < 1024 * np.finfo(np.float64).eps * far, 0.0, var)


def build_sum_tables(image: GrayImage) -> SumTables:
    """Prefix tables over the image; O(1) window sums and variances after.

    Validates the whole image, as the tables cover every pixel. Each table
    is built row by row (see ``images._prefix_sums``), the squares through
    one row of scratch, so the build allocates the two tables and a few
    rows, no full-size temporary.
    """
    arr = validate_image(image)
    return SumTables(sum_table=_prefix_sums(arr), sumsq_table=_prefix_sums(arr, squared=True))


def _inbounds_ranges(
    origin: tuple[int, int],
    block_shape: tuple[int, int],
    ref_shape: tuple[int, int],
    shifts: ShiftRange,
) -> tuple[int, int, int, int]:
    """Clip the shift range so the shifted window stays inside the reference.

    Returns (du_lo, du_hi, dv_lo, dv_hi); empty when lo > hi.
    """
    x0, y0 = origin
    th, tw = block_shape
    h, w = ref_shape
    du_lo = max(shifts.du_min, -x0)
    du_hi = min(shifts.du_max, w - tw - x0)
    dv_lo = max(shifts.dv_min, -y0)
    dv_hi = min(shifts.dv_max, h - th - y0)
    return du_lo, du_hi, dv_lo, dv_hi


def _samples(block: np.ndarray, orientation: str | None) -> np.ndarray:
    """The samples a kernel correlates, as a view of ``block``: all of it,
    or with an orientation the D diagonal samples of a square block.

    Main: samples[k] = block[k, k]. Anti: samples[k] = block[D-1-k, k].
    """
    if orientation is None:
        return block
    return np.diagonal(block if orientation == "main" else block[::-1])


@dataclass
class _Frame:
    """What :func:`_open_kernel` hands a kernel.

    ``values`` and ``r_var`` are the stacked (n, n_dv, n_du) numerators and
    window variance sums: ``values`` is 0 until the kernel writes each
    block's numerators, and ``r_var`` is -1 at the out-of-bounds shifts
    (a kernel may write 0 at other shifts it flags, see
    :func:`_correlation_map`).
    ``t_var`` holds the n template variance sums. ``blocks`` holds, per
    block with a shift in bounds, (index of its in-bounds shifts in the
    stacked maps, samples, samples minus their mean, reference region);
    ``box`` is the bounding box of those regions, a view. ``single`` marks
    a per-block call, whose map drops the block axis.
    """

    single: bool
    values: np.ndarray
    r_var: np.ndarray
    t_var: np.ndarray
    blocks: list
    box: np.ndarray


def _open_kernel(template_block, reference, origin, shifts, counter, kind=None, tables=None,
                 orientation=None) -> _Frame:
    """The opening every kernel runs before its numerators.

    ``template_block`` is one block at ``origin`` (x, y), or a sequence of n
    equal-shape blocks at a sequence of n origins; each must fit in the
    reference. The blocks are checked as :func:`~nccalign.images.validate_image`
    checks an image, and the reference is validated once, over the bounding
    box of the regions the in-bounds windows read (see
    :func:`_inbounds_ranges`); ``estimate_disparity`` validates the whole
    images. ``tables`` must be a ``kind`` built for the reference; diagonal
    tables give the orientation, which makes the samples the diagonal of a
    square block (:func:`_samples`).

    Per block it takes the template's two-pass statistics (:func:`_two_pass`)
    and, given tables, fills the block's in-bounds window variance sums
    from one rectangle of table reads. Tallies ``counter``.
    """
    single = np.ndim(origin) == 1 and len(origin) > 0
    blocks, origins = ([template_block], [origin]) if single else (list(template_block), list(origin))
    if not blocks or len(blocks) != len(origins):
        raise ValueError(f"{len(blocks)} template blocks for {len(origins)} origins")
    blocks = [image_array(block, "template_block") for block in blocks]
    th, tw = blocks[0].shape
    if any(block.shape != (th, tw) for block in blocks):
        raise ValueError(f"template blocks differ in shape: {sorted({b.shape for b in blocks})}")
    if not all(map(_all_finite, blocks)):
        raise ValueError("template_block contains non-finite intensities")
    ref = image_array(reference, "reference")
    if th > ref.shape[0] or tw > ref.shape[1]:
        raise ValueError(f"template block {(th, tw)} larger than reference {ref.shape}")
    if kind is not None:
        if not isinstance(tables, kind):
            raise TypeError(f"expected {kind.__name__}, got {type(tables).__name__}")
        if tables.shape != ref.shape:
            raise ValueError(f"tables built for {tables.shape}, reference is {ref.shape}")
        orientation = getattr(tables, "orientation", None)
    if orientation is not None and th != tw:
        raise ValueError(f"diagonal NCC needs a square block, got {(th, tw)}")

    # Per block with a shift in bounds: the rows and columns of its in-bounds
    # window origins, and the index of those shifts in the stacked maps.
    opened = []
    for i, (x0, y0) in enumerate(origins):
        du_lo, du_hi, dv_lo, dv_hi = _inbounds_ranges((x0, y0), (th, tw), ref.shape, shifts)
        if du_lo <= du_hi and dv_lo <= dv_hi:
            opened.append((slice(y0 + dv_lo, y0 + dv_hi + 1), slice(x0 + du_lo, x0 + du_hi + 1),
                           (i, slice(dv_lo - shifts.dv_min, dv_hi - shifts.dv_min + 1),
                            slice(du_lo - shifts.du_min, du_hi - shifts.du_min + 1))))
    box = ref[:0, :0]
    if opened:
        rows, cols, _ = zip(*opened)
        box = ref[min(r.start for r in rows):max(r.stop for r in rows) + th - 1,
                  min(c.start for c in cols):max(c.stop for c in cols) + tw - 1]
        validate_image(box, "reference")

    n = len(blocks)
    frame = _Frame(single, np.zeros((n, shifts.n_dv, shifts.n_du)),
                   np.full((n, shifts.n_dv, shifts.n_du), -1.0), np.zeros(n), [], box)
    for ys, xs, inbounds in opened:
        samples = _samples(blocks[inbounds[0]], orientation)
        _, t_c, frame.t_var[inbounds[0]] = _two_pass(samples)
        if kind is not None:
            # Sum tables read tw x th windows, diagonal tables D-sample ones.
            frame.r_var[inbounds] = tables.window_var_sum(
                xs, ys, *((tw, th) if orientation is None else (tw,)))
        region = ref[ys.start:ys.stop + th - 1, xs.start:xs.stop + tw - 1]
        frame.blocks.append((inbounds, samples, t_c, region))
    if counter is not None and opened:
        counter.tally(sum((ys.stop - ys.start) * (xs.stop - xs.start) for ys, xs, _ in opened),
                      frame.blocks[0][1].size)
    return frame


def _correlation_map(shifts: ShiftRange, frame: _Frame) -> CorrelationMap:
    """Flag, divide and scatter: the tail of every kernel, once per call.

    It reads only the variance sums to flag a shift: out of bounds where
    ``frame.r_var`` is negative, zero-variance where the window or template
    variance sum is below ``EPS_VAR``, and valid otherwise. A kernel with
    other dead shifts writes them into ``frame.r_var`` as 0 (see
    ``streaming.ncc_stream``). Valid shifts get numerator /
    sqrt(r_var * t_var), all others 0. Works in place in ``frame.values``
    and ``frame.r_var``.
    """
    values, r_var = frame.values, frame.r_var
    t_var = frame.t_var[:, None, None]
    good = r_var >= EPS_VAR
    good &= t_var >= EPS_VAR
    validity = np.full(values.shape, ZERO_VARIANCE, dtype=np.uint8)
    np.copyto(validity, OUT_OF_BOUNDS, where=r_var < 0)
    np.copyto(validity, VALID, where=good)
    np.multiply(r_var, t_var, out=r_var, where=good)
    np.sqrt(r_var, out=r_var, where=good)
    np.divide(values, r_var, out=values, where=good)
    np.logical_not(good, out=good)
    np.copyto(values, 0.0, where=good)
    if frame.single:
        values, validity = values[0], validity[0]
    return CorrelationMap(shifts=shifts, values=values, validity=validity)


def _direct_map(template_block, reference, origin, shifts: ShiftRange, counter: OpCounter | None,
                orientation: str | None = None) -> CorrelationMap:
    """Both oracles, :func:`ncc_full_naive` and ``diagonal.ncc_diag``: the
    opening (:func:`_open_kernel`), a per-block, per-shift loop and the tail.

    Window (iv, iu) of a block is ``region[iv:iv + th, iu:iu + tw]`` of its
    region, its samples read as the template's (see :func:`_samples`).
    Per window, the two-pass variance sum and centred samples (see
    :func:`_two_pass`) and the explicit numerator ``sum(centred * t_c)`` go
    to the shared tail, :func:`_correlation_map`.
    """
    frame = _open_kernel(template_block, reference, origin, shifts, counter,
                         orientation=orientation)
    for inbounds, _, t_c, region in frame.blocks:
        th, tw = t_c.shape if orientation is None else (t_c.size, t_c.size)
        numerators, r_var = frame.values[inbounds], frame.r_var[inbounds]
        for iv in range(numerators.shape[0]):
            for iu in range(numerators.shape[1]):
                window = _samples(region[iv:iv + th, iu:iu + tw], orientation)
                _, centred, r_var[iv, iu] = _two_pass(window)
                numerators[iv, iu] = np.add.reduce(centred * t_c, axis=None)
    return _correlation_map(shifts, frame)


def ncc_full_naive(
    template_block: GrayImage | Sequence[GrayImage],
    reference: GrayImage,
    origin: tuple[int, int] | Sequence[tuple[int, int]],
    shifts: ShiftRange,
    *,
    counter: OpCounter | None = None,
) -> CorrelationMap:
    """Direct evaluation: per shift, two-pass window mean and explicit sums.

    ``template_block`` is one block at ``origin``, or a sequence of n
    equal-shape blocks at a sequence of n origins, whose maps come back
    stacked, (n, n_dv, n_du), each equal to its per-block call's. Validates
    the blocks and the reference region they read (see :func:`_open_kernel`).
    """
    return _direct_map(template_block, reference, origin, shifts, counter)


def ncc_full_fast(
    template_block: GrayImage | Sequence[GrayImage],
    reference: GrayImage,
    origin: tuple[int, int] | Sequence[tuple[int, int]],
    shifts: ShiftRange,
    tables: SumTables,
    *,
    counter: OpCounter | None = None,
) -> CorrelationMap:
    """Lewis's fast NCC (Vision Interface 1995): same contract as
    :func:`ncc_full_naive`.

    Window means/variances come from the prefix tables; the numerator uses
    sum(r * (t - t_mean)), exact because the centered template sums to zero.
    All in-bounds numerators come from one circular ``rfft2`` correlation
    of the zero-padded centred template with the reference region they
    read, ``(n_dv + th - 1) x (n_du + tw - 1)``. The wrap-around only
    reaches outputs past the top-left ``n_dv x n_du``, which are discarded.
    """
    frame = _open_kernel(template_block, reference, origin, shifts, counter, SumTables, tables)
    for inbounds, _, t_c, region in frame.blocks:
        # irfft2 needs s= too: an odd region width is lost from the half spectrum.
        spectrum = np.fft.rfft2(region) * np.conj(np.fft.rfft2(t_c, s=region.shape))
        n_dv, n_du = frame.values[inbounds].shape
        frame.values[inbounds] = np.fft.irfft2(spectrum, s=region.shape)[:n_dv, :n_du]
    return _correlation_map(shifts, frame)


def _tie_order(shifts: ShiftRange) -> tuple[np.ndarray, list, list]:
    """The flat map indices of ``shifts`` in :func:`best_shift`'s tie order,
    smaller du^2+dv^2, then dv, then du, with the du and dv of each."""
    dv, du = np.divmod(np.arange(shifts.n_dv * shifts.n_du), shifts.n_du)
    du, dv = du + shifts.du_min, dv + shifts.dv_min
    order = np.lexsort((du, dv, du * du + dv * dv))
    return order, du[order].tolist(), dv[order].tolist()


def best_shift(cmap: CorrelationMap) -> BestShift | None | list[BestShift | None]:
    """Valid shift maximizing C; ties prefer smaller du^2+dv^2, then dv, then du.

    Returns None when every shift is flagged. A stacked (n, n_dv, n_du) map
    gives the list of its n blocks' results, each what the per-block map
    gives, from one masked maximum and one pass over the tie order.
    """
    single = cmap.values.ndim == 2
    values = cmap.values.reshape(1 if single else len(cmap.values), -1)
    valid = cmap.valid_mask.reshape(values.shape)
    vmax = np.max(values, axis=1, where=valid, initial=-np.inf)
    top = values == vmax[:, None]
    top &= valid
    order, du, dv = _tie_order(cmap.shifts)
    first = top[:, order].argmax(axis=1)
    results = [BestShift(du=du[k], dv=dv[k], coeff=coeff) if found else None
               for k, coeff, found in zip(first.tolist(), vmax.tolist(), top.any(axis=1).tolist())]
    return results[0] if single else results
