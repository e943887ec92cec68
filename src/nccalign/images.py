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


def save_pgm(image: GrayImage, path, maxval: int = 255, comments: list[str] | None = None,
             *, _normalize: bool = False) -> None:
    """Write a binary (P5) PGM file.

    Values are clamped to [0, 1] and quantized with round-half-up; 16-bit
    samples are written most-significant-byte first. ``comments`` become
    '#' header lines (no newlines allowed inside them), UTF-8 with surrogate
    escapes so a path keeps its bytes. A non-finite pixel or an unencodable
    comment raises ``ValueError`` before the file is opened.

    The image is checked and quantized a chunk of rows at a time through
    one chunk-sized buffer, straight into the output array; a chunk is
    checked as :func:`validate_image` checks an image. With the private
    ``_normalize`` (the CLI's disparity maps), each checked chunk is first
    scaled onto [0, 1] as (chunk - lo) / (hi - lo) in that buffer, lo and hi
    being the image's min and max (0.5 everywhere if they are equal), so
    the image itself is left as it is.
    """
    if maxval not in SUPPORTED_MAXVALS:
        raise PgmError(f"unsupported maxval {maxval}, expected 255 or 65535")
    arr = image_array(image)
    height, width = arr.shape
    if _normalize:
        lo, hi = arr.min(), arr.max()
    dtype = np.dtype(">u2") if maxval == 65535 else np.dtype("u1")
    quantized = np.empty((height, width), dtype=dtype)
    rows = chunk_rows(height, width)
    scaled = np.empty((rows, width))
    for a, b in row_chunks(height, rows):
        chunk, s = arr[a:b], scaled[:b - a]
        if not _all_finite(chunk):
            raise ValueError("image contains non-finite intensities")
        if not _normalize:
            np.clip(chunk, 0.0, 1.0, out=s)
        elif hi > lo:
            # Rounding is monotone, so lo <= c <= hi lands in [0, 1] unclamped.
            np.subtract(chunk, lo, out=s)
            s /= hi - lo
        else:
            s.fill(0.5)
        # floor(c * maxval + 0.5) <= maxval for c <= 1, so the cast cannot wrap.
        s *= maxval
        s += 0.5
        np.floor(s, out=quantized[a:b], casting="unsafe")
    header = "P5\n"
    for comment in comments or ():
        if "\n" in comment or "\r" in comment:
            raise ValueError(f"PGM comment must be a single line: {comment!r}")
        header += f"# {comment}\n"
    header = (header + f"{width} {height}\n{maxval}\n").encode("utf-8", "surrogateescape")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(quantized)


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
