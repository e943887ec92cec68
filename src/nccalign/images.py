"""Grayscale image representation, binary PGM I/O, and synthetic stereo pairs.

Images are plain 2D float64 numpy arrays of shape (height, width) holding
intensities normalized to [0, 1]. Normalization happens once at the file
boundary; downstream stages treat pixels as continuous voltage-like values
and may leave [0, 1] transiently (noise, scaling).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import PgmError

GrayImage = np.ndarray

SUPPORTED_MAXVALS = (255, 65535)

# Whole-image stages work through chunks of rows holding about this many
# pixels, so a chunk's temporaries stay in cache.
CHUNK_PIXELS = 1 << 15


def chunk_rows(height: int, width: int) -> int:
    """Rows per chunk of a height x width image: at least one, at most all."""
    return max(1, min(height, CHUNK_PIXELS // max(width, 1)))


def row_chunks(stop: int, rows: int):
    """Yield the (a, b) row ranges, ``rows`` rows each, that cover [0, stop)."""
    for a in range(0, stop, rows):
        yield a, min(a + rows, stop)


def _runs(flags: np.ndarray, value: bool = True) -> list[list[int]]:
    """The [start, stop) index ranges of the runs of ``value`` in a 1D
    boolean array, found by ``bytes.find`` on its bytes (False is 0, True
    is 1)."""
    data = flags.tobytes()
    runs, start = [], data.find(value)
    while start >= 0:
        stop = data.find(not value, start)
        stop = len(data) if stop < 0 else stop
        runs.append([start, stop])
        start = data.find(value, stop)
    return runs


def distinct_row_runs(*arrays: np.ndarray) -> list[tuple[int, int, int]]:
    """The rows of 2D float64 arrays of one shape that differ from the row
    above, as (a, b, stop) runs in order: rows a to b - 1 differ in their
    bits from the row above in some array (row 0 always does), and rows b
    to stop - 1 repeat row b - 1 bit for bit in every array (+0.0 and -0.0
    differ; a NaN repeats only its own bits). Each stop is the next run's
    start, the last one the height.

    Interpolation calls it on its small y-blended grids and keeps the
    dense field as :class:`DistinctRows`, which no stage searches again.
    Only arrays still come here whole: :func:`save_pgm`'s image and an
    :class:`alignment.DenseDisparity` made from caller arrays.

    Candidates are the rows that repeat the row above in three sampled
    columns of each array; each run of them is then compared whole with the
    rows above it, a chunk of rows at a time. So arrays with no repeated row
    cost only the sample, one cache line per row, column and array.
    """
    height, width = arrays[0].shape
    first, *rest = [arr.view(np.uint64) for arr in arrays]
    repeat = np.zeros(height, dtype=bool)
    np.equal(first[1:, width // 2], first[:-1, width // 2], out=repeat[1:])
    for x in (width // 4, 3 * width // 4):
        repeat[1:] &= first[1:, x] == first[:-1, x]
    for more in rest:
        for x in (width // 4, width // 2, 3 * width // 4):
            repeat[1:] &= more[1:, x] == more[:-1, x]
    # save_pgm calls this right after the previous file's write, when each
    # numpy call starts on cold caches and costs more than the sample's
    # reads; so the check calls the reduction itself, not np.all's wrapper,
    # and the distinct runs are read without an inverted copy.
    rows = chunk_rows(height, width)
    for k0, k1 in _runs(repeat):
        for c in range(k0, k1, rows):
            d = min(c + rows, k1)
            np.logical_and.reduce(first[c:d] == first[c - 1:d - 1], axis=1, out=repeat[c:d])
            for more in rest:
                repeat[c:d] &= np.logical_and.reduce(more[c:d] == more[c - 1:d - 1], axis=1)
    runs = _runs(repeat, False)
    return [(a, b, stop) for (a, b), (stop, _) in zip(runs, runs[1:] + [[height, 0]])]


@dataclass(frozen=True)
class DistinctRows:
    """A (height, width) float64 map kept as the rows that differ from the
    row above: ``runs`` are (a, b, stop) runs as :func:`distinct_row_runs`
    gives them, and ``rows`` holds rows a to b - 1 of each run, either in
    place (a map as its own rows, ``height`` of them) or packed, one run's
    after the other's. Rows b to stop - 1 repeat row b - 1.
    """

    rows: np.ndarray
    runs: list[tuple[int, int, int]]

    @property
    def shape(self) -> tuple[int, int]:
        return self.runs[-1][2], self.rows.shape[1]

    def index(self) -> np.ndarray:
        """The row of ``rows`` that holds each row of the map."""
        index = np.empty(self.runs[-1][2], dtype=np.intp)
        in_place, start = len(self.rows) == len(index), 0
        for a, b, stop in self.runs:
            if in_place:
                start = a
            index[a:b] = np.arange(start, start + b - a)
            index[b:stop] = start + b - a - 1
            start += b - a
        return index

    def expand(self) -> np.ndarray:
        """The map itself, a new (height, width) array."""
        return self.rows.take(self.index(), axis=0)


def image_array(image: GrayImage, name: str = "image") -> np.ndarray:
    """Check the GrayImage shape invariants and return the array as float64.

    Reads no pixel: kernels use it on the whole reference and then run
    :func:`validate_image` on just the region they read.
    """
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must have width and height >= 1, got {arr.shape}")
    return arr


def _all_finite(arr: np.ndarray) -> bool:
    """Whether every pixel of a 2D float64 array is finite.

    A finite sum proves it with one pass and no temporary (``np.einsum``
    uses no BLAS and warns about no NaN or inf). Only a NaN, an inf or a
    sum that overflows falls back to the exact per-pixel scan.
    """
    return math.isfinite(np.einsum("ij->", arr)) or bool(np.all(np.isfinite(arr)))


def validate_image(image: GrayImage, name: str = "image") -> np.ndarray:
    """Check the GrayImage invariants, finite pixels included, and return
    the array as float64. Finiteness is learnt from the pixel sum, with the
    per-pixel scan only when the sum is not finite (see :func:`_all_finite`)."""
    arr = image_array(image, name)
    if not _all_finite(arr):
        raise ValueError(f"{name} contains non-finite intensities")
    return arr


# One header token at the match position: the whitespace and '#' comments
# before it (a comment runs to CR or LF), then the token, which ends at
# whitespace or '#'. A bytes pattern's \s is the six ASCII whitespace bytes
# that ``bytes.isspace`` accepts.
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\n\r]*)*([^\s#]*)")


def load_pgm(path) -> GrayImage:
    """Load a binary (P5) PGM file as a normalized float64 image.

    Intensities are divided by maxval; 16-bit samples are read
    most-significant-byte first per the PGM convention.
    """
    with open(path, "rb") as fh:
        data = fh.read()

    match = _HEADER_TOKEN.match(data)
    magic, pos = match[1], match.end()
    if magic != b"P5":
        raise PgmError(f"unsupported format magic {magic!r}, only binary 'P5' is accepted")

    fields = []
    for name in ("width", "height", "maxval"):
        match = _HEADER_TOKEN.match(data, pos)
        token, pos = match[1], match.end()
        if not token.isdigit():
            raise PgmError(f"malformed header field {name!r}: {token!r}")
        fields.append(int(token))
    width, height, maxval = fields

    if width < 1 or height < 1:
        raise PgmError(f"invalid dimensions width={width} height={height}")
    if maxval not in SUPPORTED_MAXVALS:
        raise PgmError(f"unsupported maxval {maxval}, expected 255 or 65535")

    # Exactly one whitespace byte separates the header from the payload.
    if pos >= len(data) or not data[pos:pos + 1].isspace():
        raise PgmError("malformed header: missing whitespace before pixel payload")
    pos += 1

    dtype = np.dtype(">u2") if maxval == 65535 else np.dtype("u1")
    expected = width * height * dtype.itemsize
    payload = data[pos:pos + expected]
    if len(payload) < expected:
        raise PgmError(
            f"truncated payload: expected {expected} bytes, got {len(payload)}"
        )

    raw = np.frombuffer(payload, dtype=dtype).reshape(height, width)
    return np.true_divide(raw, maxval, dtype=np.float64)


def save_pgm(image: GrayImage | DistinctRows, path, maxval: int = 255, comments: list[str] | None = None,
             *, _normalize: bool = False) -> None:
    """Write a binary (P5) PGM file.

    Values are clamped to [0, 1] and quantized with round-half-up; 16-bit
    samples are written most-significant-byte first. ``comments`` become
    '#' header lines (no newlines allowed inside them), UTF-8 with surrogate
    escapes so a path keeps its bytes. A non-finite pixel or an unencodable
    comment raises ``ValueError`` before the file is opened.

    ``image`` is an array, whose rows that differ from the row above are
    found by :func:`distinct_row_runs`, or a map already kept as
    :class:`DistinctRows`, which is not searched again. Only those rows are
    read: they are checked and quantized a chunk at a time through one
    chunk-sized buffer, straight into the output array, and the bytes of
    each run's last row are copied down the rows that repeat it. A repeated
    row holds no value that its checked original does not, so the bytes and
    the errors are those of quantizing every row.

    A chunk is checked as :func:`validate_image` checks an image. With the
    private ``_normalize`` (the CLI's disparity maps), it is instead scaled
    onto [0, 1] as (chunk - lo) / (hi - lo) in that buffer, lo and hi being
    the min and max of the distinct rows, which are the image's (0.5
    everywhere if they are equal; both are halved first if hi - lo
    overflows). NaN makes the min NaN and an inf is the min or the max, so
    finite lo and hi prove every pixel finite. The image itself is left as
    it is.
    """
    if maxval not in SUPPORTED_MAXVALS:
        raise PgmError(f"unsupported maxval {maxval}, expected 255 or 65535")
    if not isinstance(image, DistinctRows):
        arr = image_array(image)
        image = DistinctRows(arr, distinct_row_runs(arr))
    height, width = image.shape
    index = image.index()
    distinct = [image.rows[index[a]:index[a] + b - a] for a, b, _ in image.runs]
    scale = None
    if _normalize:
        lo = float(np.min([part.min() for part in distinct]))
        hi = float(np.max([part.max() for part in distinct]))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("image contains non-finite intensities")
        scale = (lo, hi)
    dtype = np.dtype(">u2") if maxval == 65535 else np.dtype("u1")
    quantized = np.empty((height, width), dtype=dtype)
    rows = chunk_rows(height, width)
    scaled = np.empty((rows, width))
    for (a, b, stop), part in zip(image.runs, distinct):
        for c in range(0, b - a, rows):
            d = min(c + rows, b - a)
            _quantize_rows(part[c:d], quantized[a + c:a + d], scaled[:d - c], maxval, scale)
        quantized[b:stop] = quantized[b - 1]
    header = "P5\n"
    for comment in comments or ():
        if "\n" in comment or "\r" in comment:
            raise ValueError(f"PGM comment must be a single line: {comment!r}")
        header += f"# {comment}\n"
    header = (header + f"{width} {height}\n{maxval}\n").encode("utf-8", "surrogateescape")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(quantized)


def _quantize_rows(chunk, out, s, maxval, scale) -> None:
    """Quantize one chunk of :func:`save_pgm`'s rows into ``out`` through the
    scratch ``s``: checked and clamped, or with ``scale`` = (lo, hi) scaled
    onto [0, 1]."""
    if scale is None:
        if not _all_finite(chunk):
            raise ValueError("image contains non-finite intensities")
        np.clip(chunk, 0.0, 1.0, out=s)
    else:
        lo, hi = scale
        if hi == lo:
            s.fill(0.5)
        elif math.isfinite(hi - lo):
            # Rounding is monotone, so lo <= c <= hi lands in [0, 1] unclamped.
            np.subtract(chunk, lo, out=s)
            s /= hi - lo
        else:  # hi - lo overflows; halving is exact and keeps the order
            np.multiply(chunk, 0.5, out=s)
            s -= 0.5 * lo
            s /= 0.5 * hi - 0.5 * lo
    # 0.5 <= c * maxval + 0.5 <= maxval + 0.5 for 0 <= c <= 1, so the cast's
    # truncation is the floor, and it cannot wrap.
    s *= maxval
    s += 0.5
    np.copyto(out, s, casting="unsafe")


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle with one constant ground-truth shift (du, dv)."""

    x0: int
    y0: int
    width: int
    height: int
    du: int
    dv: int


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a deterministic synthetic stereo pair.

    ``regions`` must tile the image exactly; each carries the ground-truth
    disparity applied to the template over that rectangle. Shifts are capped
    at min(width, height)/4 so blocks always stay matchable.
    """

    width: int
    height: int
    regions: tuple[Region, ...] = field(default_factory=tuple)
    texture_seed: int = 0
    noise_floor: float = 0.0

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"image extent must be positive, got {self.width}x{self.height}")
        if not self.regions:
            raise ValueError("disparity pattern must contain at least one region")
        if self.texture_seed < 0:
            raise ValueError(f"texture_seed must be non-negative, got {self.texture_seed}")
        if not 0.0 <= self.noise_floor <= 1.0:  # the template is clipped to [0, 1]
            raise ValueError(f"noise_floor must be a standard deviation in [0, 1], got {self.noise_floor}")
        bound = min(self.width, self.height) / 4
        cover = np.zeros((self.height, self.width), dtype=np.uint8)
        for region in self.regions:
            if max(abs(region.du), abs(region.dv)) > bound:
                raise ValueError(
                    f"region shift ({region.du}, {region.dv}) exceeds bound {bound}"
                )
            if region.width < 1 or region.height < 1:
                raise ValueError("region extents must be positive")
            if (
                region.x0 < 0
                or region.y0 < 0
                or region.x0 + region.width > self.width
                or region.y0 + region.height > self.height
            ):
                raise ValueError(f"region {region} exceeds image bounds")
            cover[region.y0:region.y0 + region.height, region.x0:region.x0 + region.width] += 1
        if not np.all(cover == 1):
            raise ValueError("regions must tile the image exactly (no gaps, no overlap)")


def uniform_pattern(width: int, height: int, du: int, dv: int) -> tuple[Region, ...]:
    """One region covering the whole image."""
    return (Region(0, 0, width, height, du, dv),)


def quadrant_pattern(width: int, height: int, shifts) -> tuple[Region, ...]:
    """Four quadrant regions; ``shifts`` is a sequence of four (du, dv) pairs."""
    if len(shifts) != 4:
        raise ValueError(f"quadrant pattern needs exactly 4 shifts, got {len(shifts)}")
    wl, ht = width // 2, height // 2
    wr, hb = width - wl, height - ht
    (du0, dv0), (du1, dv1), (du2, dv2), (du3, dv3) = shifts
    return (
        Region(0, 0, wl, ht, du0, dv0),
        Region(wl, 0, wr, ht, du1, dv1),
        Region(0, ht, wl, hb, du2, dv2),
        Region(wl, ht, wr, hb, du3, dv3),
    )


@dataclass(frozen=True)
class GroundTruth:
    """Dense per-pixel ground-truth shifts for a synthetic pair."""

    du: np.ndarray
    dv: np.ndarray

    def at(self, x: int, y: int) -> tuple[int, int]:
        return int(self.du[y, x]), int(self.dv[y, x])


def _prefix_sums(arr: np.ndarray, squared: bool = False) -> np.ndarray:
    """Padded 2-D prefix table of ``arr``, or of ``arr * arr`` if
    ``squared``: ``t[y + 1, x + 1]`` is the sum of ``arr[:y + 1, :x + 1]``
    and row and column 0 are zero.

    Built row by row, with no full-size temporary: one row of scratch holds
    the column sums down to row y, an in-place ``np.add`` moves it on by one
    row (squared through a second row of scratch), and its ``np.cumsum``
    is table row y + 1. These are the additions of ``cumsum(axis=0)`` then
    ``cumsum(axis=1)`` in the same order, so the table is bit-identical to
    theirs.
    """
    h, w = arr.shape
    t = np.zeros((h + 1, w + 1))
    # -0.0 + x is x for every x, -0.0 included, as cumsum's first term is.
    column = np.full(w, -0.0)
    square = np.empty(w)
    for y in range(h):
        column += np.multiply(arr[y], arr[y], out=square) if squared else arr[y]
        np.cumsum(column, out=t[y + 1, 1:])
    return t


def _box_blur(arr: np.ndarray, radius: int) -> np.ndarray:
    """Mean over the (2*radius+1)^2 neighborhood clipped to the image.

    Each window sum is ``far - top - left + near`` from the prefix table.
    The corners are read as two row ``take``s of the table and a column
    ``take`` of each, not four ``np.ix_`` fancy gathers; the values read
    and the arithmetic on them are the same.
    """
    h, w = arr.shape
    padded = _prefix_sums(arr)
    ys = np.arange(h)
    xs = np.arange(w)
    y0 = np.maximum(ys - radius, 0)
    y1 = np.minimum(ys + radius + 1, h)
    x0 = np.maximum(xs - radius, 0)
    x1 = np.minimum(xs + radius + 1, w)
    below, above = padded.take(y1, axis=0), padded.take(y0, axis=0)
    total = (
        below.take(x1, axis=1)
        - above.take(x1, axis=1)
        - below.take(x0, axis=1)
        + above.take(x0, axis=1)
    )
    counts = np.outer(y1 - y0, x1 - x0)
    return total / counts


def make_synthetic_stereo(spec: SyntheticSpec) -> tuple[GrayImage, GrayImage, GroundTruth]:
    """Generate a (template, reference, truth) triple from ``spec``.

    The reference is seeded uniform noise blurred by a 5x5 box filter and
    rescaled to [0, 1], so every diagonal carries texture. The template is
    the reference warped by the negated per-region disparity (i.e.
    template(x, y) = reference(x + du, y + dv), edge-clamped) plus Gaussian
    noise of standard deviation ``noise_floor``. Bit-identical for equal specs.
    """
    h, w = spec.height, spec.width
    rng = np.random.default_rng(spec.texture_seed)
    raw = rng.random((h, w))
    blurred = _box_blur(raw, radius=2)
    lo, hi = blurred.min(), blurred.max()
    reference = (blurred - lo) / (hi - lo) if hi > lo else np.zeros_like(blurred)

    # Each region has one constant shift, so its source pixels are the
    # outer product of two clipped 1D index vectors.
    template = np.empty((h, w))
    du_map = np.empty((h, w), dtype=np.int64)
    dv_map = np.empty((h, w), dtype=np.int64)
    for region in spec.regions:
        rows = slice(region.y0, region.y0 + region.height)
        cols = slice(region.x0, region.x0 + region.width)
        src_y = np.clip(np.arange(rows.start, rows.stop) + region.dv, 0, h - 1)
        src_x = np.clip(np.arange(cols.start, cols.stop) + region.du, 0, w - 1)
        template[rows, cols] = reference[np.ix_(src_y, src_x)]
        du_map[rows, cols] = region.du
        dv_map[rows, cols] = region.dv
    if spec.noise_floor > 0:
        noise = rng.standard_normal((h, w))
        noise *= spec.noise_floor
        template += noise
        np.clip(template, 0.0, 1.0, out=template)

    return template, reference, GroundTruth(du=du_map, dv=dv_map)
