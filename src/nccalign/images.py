"""Grayscale image representation, binary PGM I/O, and synthetic stereo pairs.

Images are plain 2D float64 numpy arrays of shape (height, width) holding
intensities normalized to [0, 1]. Normalization happens once at the file
boundary; downstream stages treat pixels as continuous voltage-like values
and may leave [0, 1] transiently (noise, scaling).
"""

from __future__ import annotations

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


def row_chunks(start: int, stop: int, rows: int):
    """Yield the (a, b) row ranges, ``rows`` rows each, that cover [start, stop)."""
    for a in range(start, stop, rows):
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


def validate_image(image: GrayImage, name: str = "image") -> np.ndarray:
    """Check the GrayImage invariants, finite pixels included, and return
    the array as float64."""
    arr = image_array(image, name)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite intensities")
    return arr


def _read_header_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Read one whitespace-delimited header token, skipping '#' comments."""
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c == b"#":
            while pos < n and data[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos:pos + 1].isspace() and data[pos:pos + 1] != b"#":
        pos += 1
    return data[start:pos], pos


def load_pgm(path) -> GrayImage:
    """Load a binary (P5) PGM file as a normalized float64 image.

    Intensities are divided by maxval; 16-bit samples are read
    most-significant-byte first per the PGM convention.
    """
    with open(path, "rb") as fh:
        data = fh.read()

    magic, pos = _read_header_token(data, 0)
    if magic != b"P5":
        raise PgmError(f"unsupported format magic {magic!r}, only binary 'P5' is accepted")

    fields = []
    for name in ("width", "height", "maxval"):
        token, pos = _read_header_token(data, pos)
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


def save_pgm(image: GrayImage, path, maxval: int = 255, comments: list[str] | None = None) -> None:
    """Write a binary (P5) PGM file.

    Values are clamped to [0, 1] and quantized with round-half-up; 16-bit
    samples are written most-significant-byte first. ``comments`` become
    '#' header lines (no newlines allowed inside them). A non-finite pixel
    raises ``ValueError`` before the file is opened.

    The image is checked and quantized a chunk of rows at a time through
    two chunk-sized buffers, straight into the output array.
    """
    if maxval not in SUPPORTED_MAXVALS:
        raise PgmError(f"unsupported maxval {maxval}, expected 255 or 65535")
    arr = image_array(image)
    height, width = arr.shape
    dtype = np.dtype(">u2") if maxval == 65535 else np.dtype("u1")
    quantized = np.empty((height, width), dtype=dtype)
    rows = chunk_rows(height, width)
    scaled = np.empty((rows, width))
    finite = np.empty((rows, width), dtype=bool)
    for a, b in row_chunks(0, height, rows):
        chunk, s = arr[a:b], scaled[:b - a]
        if not np.isfinite(chunk, out=finite[:b - a]).all():
            raise ValueError("image contains non-finite intensities")
        # floor(c * maxval + 0.5) <= maxval for c <= 1, so the cast cannot wrap.
        np.clip(chunk, 0.0, 1.0, out=s)
        s *= maxval
        s += 0.5
        np.floor(s, out=quantized[a:b], casting="unsafe")
    header = "P5\n"
    for comment in comments or ():
        if "\n" in comment or "\r" in comment:
            raise ValueError(f"PGM comment must be a single line: {comment!r}")
        header += f"# {comment}\n"
    header += f"{width} {height}\n{maxval}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
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
        if not (0.0 <= self.noise_floor and np.isfinite(self.noise_floor)):
            raise ValueError(f"noise_floor must be a finite non-negative fraction, got {self.noise_floor}")
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


def _box_blur(arr: np.ndarray, radius: int) -> np.ndarray:
    """Mean over the (2*radius+1)^2 neighborhood clipped to the image."""
    h, w = arr.shape
    padded = np.zeros((h + 1, w + 1))
    padded[1:, 1:] = np.cumsum(np.cumsum(arr, axis=0), axis=1)
    ys = np.arange(h)
    xs = np.arange(w)
    y0 = np.maximum(ys - radius, 0)
    y1 = np.minimum(ys + radius + 1, h)
    x0 = np.maximum(xs - radius, 0)
    x1 = np.minimum(xs + radius + 1, w)
    total = (
        padded[np.ix_(y1, x1)]
        - padded[np.ix_(y0, x1)]
        - padded[np.ix_(y1, x0)]
        + padded[np.ix_(y0, x0)]
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

    du_map = np.zeros((h, w), dtype=np.int64)
    dv_map = np.zeros((h, w), dtype=np.int64)
    for region in spec.regions:
        du_map[region.y0:region.y0 + region.height, region.x0:region.x0 + region.width] = region.du
        dv_map[region.y0:region.y0 + region.height, region.x0:region.x0 + region.width] = region.dv

    ys, xs = np.indices((h, w))
    src_x = np.clip(xs + du_map, 0, w - 1)
    src_y = np.clip(ys + dv_map, 0, h - 1)
    template = reference[src_y, src_x]
    if spec.noise_floor > 0:
        template = template + spec.noise_floor * rng.standard_normal((h, w))
        template = np.clip(template, 0.0, 1.0)
    else:
        template = template.copy()

    return template, reference, GroundTruth(du=du_map, dv=dv_map)
