import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nccalign import (
    ShiftRange,
    SyntheticSpec,
    images,
    make_synthetic_stereo,
    partition_template,
    quadrant_pattern,
    streaming,
)

QUADRANT_SHIFTS = [(3, 5), (-4, 2), (6, -7), (-2, -6)]

# The acceptance criteria run the experiment set's argument lists.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))


@pytest.fixture(scope="session")
def quadrant_pair():
    """512x512 quadrant pair with shifts <= +/-8 and 1% texture noise.

    The quadrant shifts point inward per quadrant, so no generated pixel is
    edge-clamped and every 64px block lies inside a single region.
    """
    spec = SyntheticSpec(
        width=512,
        height=512,
        regions=quadrant_pattern(512, 512, QUADRANT_SHIFTS),
        texture_seed=7,
        noise_floor=0.01,
    )
    template, reference, truth = make_synthetic_stereo(spec)
    grid = partition_template(template, 64, 0.0)
    return {
        "template": template,
        "reference": reference,
        "truth": truth,
        "grid": grid,
        "shifts": ShiftRange.symmetric(8),
    }


def csv_body(path):
    """An output CSV's lines without its '#' header lines."""
    text = path.read_text(encoding="utf-8", errors="surrogateescape")
    return [line for line in text.splitlines() if not line.startswith("#")]


def csv_rows(path):
    """An output CSV's body rows as dicts keyed by its column names."""
    body = csv_body(path)
    header = body[0].split(",")
    return [dict(zip(header, line.split(","))) for line in body[1:]]


def random_image(seed: int, height: int, width: int) -> np.ndarray:
    """Seeded uniform texture; healthy variance for NCC property tests."""
    return np.random.default_rng(seed).random((height, width))


def cumsum_prefix_sums(arr: np.ndarray) -> np.ndarray:
    """The padded 2-D prefix table as two whole-image cumulative sums,
    ``cumsum(axis=0)`` then ``cumsum(axis=1)``; row and column 0 are zero."""
    h, w = arr.shape
    t = np.zeros((h + 1, w + 1))
    np.cumsum(arr, axis=0, out=t[1:, 1:])
    np.cumsum(t[1:, 1:], axis=1, out=t[1:, 1:])
    return t


def edge_rectangles(height: int, width: int, win_h: int, win_w: int):
    """(x slice, y slice) rectangles of window origins over a height x width
    image: one inside, one clipped at each image edge (its windows reach the
    first or last row or column), every origin, and a single window."""
    last_x, last_y = width - win_w, height - win_h
    mid_x, mid_y = last_x // 2, last_y // 2
    return [
        (slice(mid_x // 2, mid_x + 1), slice(mid_y // 2, mid_y + 1)),
        (slice(0, mid_x + 1), slice(mid_y // 2, mid_y + 1)),
        (slice(mid_x, last_x + 1), slice(mid_y // 2, mid_y + 1)),
        (slice(mid_x // 2, mid_x + 1), slice(0, mid_y + 1)),
        (slice(mid_x // 2, mid_x + 1), slice(mid_y, last_y + 1)),
        (slice(0, last_x + 1), slice(0, last_y + 1)),
        (slice(mid_x, mid_x + 1), slice(last_y, last_y + 1)),
    ]


def assert_rectangle_matches_windows(lookup, xs: slice, ys: slice) -> None:
    """``lookup(xs, ys)`` over a rectangle equals, bit for bit, the scalar
    ``lookup(x0, y0)`` of each of its windows."""
    rect = lookup(xs, ys)
    windows = [[lookup(x0, y0) for x0 in range(xs.start, xs.stop)]
               for y0 in range(ys.start, ys.stop)]
    assert all(np.ndim(value) == 0 for row in windows for value in row)
    expected = np.array(windows, dtype=np.float64)
    assert rect.shape == expected.shape
    np.testing.assert_array_equal(rect.view(np.uint64), expected.view(np.uint64))


def record_quantized_chunks(monkeypatch, images) -> list:
    """Rebind ``images._quantize_rows`` with a wrapper that records each
    chunk of rows ``save_pgm`` hands it (a view of the saved image)."""
    original, chunks = images._quantize_rows, []

    def recorded(chunk, *args):
        chunks.append(chunk)
        return original(chunk, *args)

    monkeypatch.setattr(images, "_quantize_rows", recorded)
    return chunks


def record_searched_shapes(monkeypatch) -> list:
    """Rebind ``distinct_row_runs`` in each ``nccalign`` module that binds
    it with a wrapper that records, per call, the shapes of the arrays it
    is given (a tuple of shapes)."""
    original, calls = images.distinct_row_runs, []

    def recorded(*arrays):
        calls.append(tuple(np.shape(array) for array in arrays))
        return original(*arrays)

    for name, module in list(sys.modules.items()):
        if name.startswith("nccalign") and getattr(module, "distinct_row_runs", None) is original:
            monkeypatch.setattr(module, "distinct_row_runs", recorded)
    return calls


@pytest.fixture
def streams(monkeypatch):
    """What the stream kernel computes from here on, starting from an empty
    memory: ``front_ends`` gains the arguments of each noiseless front end
    computed (one per opened block of a call that misses), ``drawn`` counts
    the noise streams drawn (``NoiseModel.rng`` calls) by stage, and
    ``read`` the streams the calls read, drawn or held, by stage."""
    counts = SimpleNamespace(front_ends=[], drawn=Counter(), read=Counter())
    front_end, rng, draws = streaming._front_end, streaming.NoiseModel.rng, streaming._draws

    def counted_front_end(*args):
        counts.front_ends.append(args)
        return front_end(*args)

    def counted_rng(noise, stage, stream_id):
        counts.drawn[stage] += 1
        return rng(noise, stage, stream_id)

    def counted_draws(noise, stage, stream_ids, shapes):
        counts.read[stage] += len(stream_ids)
        return draws(noise, stage, stream_ids, shapes)

    monkeypatch.setattr(streaming, "_front_end", counted_front_end)
    monkeypatch.setattr(streaming.NoiseModel, "rng", counted_rng)
    monkeypatch.setattr(streaming, "_draws", counted_draws)
    streaming._last.clear()
    return counts
