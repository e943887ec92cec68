import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nccalign import (
    PgmError,
    Region,
    SyntheticSpec,
    load_pgm,
    make_synthetic_stereo,
    quadrant_pattern,
    save_pgm,
    uniform_pattern,
)
from nccalign.images import GroundTruth, _box_blur

from conftest import cumsum_prefix_sums


def write_pgm_bytes(path, header: bytes, payload: bytes):
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


WHITESPACE = [bytes([c]) for c in b" \t\n\r\x0b\x0c"]
# A header comment: '#', text with no CR or LF (digits, '#', whitespace and
# non-ASCII bytes among it), ended by CR or LF.
COMMENTS = st.builds(
    lambda text, end: b"#" + bytes(text) + end,
    st.lists(st.sampled_from(b"09P# \t\x0b\x0c\x00\x85\xa0\xff"), max_size=6),
    st.sampled_from([b"\n", b"\r"]))
# What may stand between two header fields.
HEADER_GAPS = st.lists(st.one_of(st.sampled_from(WHITESPACE), COMMENTS), min_size=1,
                       max_size=4).map(b"".join)


class TestLoadPgm:
    def test_8bit_values_normalized(self, tmp_path):
        path = tmp_path / "a.pgm"
        write_pgm_bytes(path, b"P5\n2 2\n255\n", bytes([0, 255, 128, 64]))
        img = load_pgm(path)
        assert img.shape == (2, 2)
        np.testing.assert_array_equal(img, np.array([[0, 255], [128, 64]]) / 255.0)

    def test_16bit_msb_first(self, tmp_path):
        path = tmp_path / "b.pgm"
        write_pgm_bytes(path, b"P5\n1 1\n65535\n", bytes([0x01, 0x00]))
        img = load_pgm(path)
        assert img.shape == (1, 1)
        assert img[0, 0] == 256 / 65535

    def test_rejects_ascii_pgm(self, tmp_path):
        path = tmp_path / "c.pgm"
        write_pgm_bytes(path, b"P2\n1 1\n255\n", b"0")
        with pytest.raises(PgmError, match="P5"):
            load_pgm(path)

    def test_rejects_unsupported_maxval(self, tmp_path):
        path = tmp_path / "d.pgm"
        write_pgm_bytes(path, b"P5\n1 1\n1023\n", bytes([0, 0]))
        with pytest.raises(PgmError, match="maxval"):
            load_pgm(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "e.pgm"
        write_pgm_bytes(path, b"P5\n4 4\n255\n", bytes([1, 2, 3]))
        with pytest.raises(PgmError, match="truncated"):
            load_pgm(path)

    def test_rejects_malformed_dimension(self, tmp_path):
        path = tmp_path / "f.pgm"
        write_pgm_bytes(path, b"P5\nxx 2\n255\n", bytes([0] * 4))
        with pytest.raises(PgmError, match="width"):
            load_pgm(path)

    def test_skips_header_comments(self, tmp_path):
        path = tmp_path / "g.pgm"
        write_pgm_bytes(path, b"P5\n# a comment\n2 1\n255\n", bytes([10, 20]))
        img = load_pgm(path)
        np.testing.assert_allclose(img, np.array([[10, 20]]) / 255.0)

    @given(gaps=st.lists(HEADER_GAPS, min_size=3, max_size=3), end=st.sampled_from(WHITESPACE))
    @settings(max_examples=50, deadline=None)
    def test_header_gaps_load_as_plain_header(self, tmp_path_factory, gaps, end):
        path = tmp_path_factory.mktemp("pgm") / "i.pgm"
        header = b"P5" + gaps[0] + b"2" + gaps[1] + b"1" + gaps[2] + b"255" + end
        write_pgm_bytes(path, header, bytes([10, 20]))
        np.testing.assert_array_equal(load_pgm(path), np.array([[10, 20]]) / 255.0)

    @given(comments=st.lists(COMMENTS, min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_field_glued_to_comment_ends_at_hash(self, tmp_path_factory, comments):
        path = tmp_path_factory.mktemp("pgm") / "j.pgm"
        header = b"P5" + comments[0] + b"2" + comments[1] + b"1" + comments[2] + b"255\n"
        write_pgm_bytes(path, header, bytes([10, 20]))
        np.testing.assert_array_equal(load_pgm(path), np.array([[10, 20]]) / 255.0)

    @given(comment=COMMENTS)
    @settings(max_examples=50, deadline=None)
    def test_comment_after_maxval_is_missing_whitespace(self, tmp_path_factory, comment):
        path = tmp_path_factory.mktemp("pgm") / "k.pgm"
        write_pgm_bytes(path, b"P5 2 1 255" + comment, bytes([10, 20]))
        with pytest.raises(PgmError, match="missing whitespace"):
            load_pgm(path)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_loaded_intensities_in_unit_interval(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        payload = rng.integers(0, 256, size=12, dtype=np.uint8).tobytes()
        path = tmp_path_factory.mktemp("pgm") / "h.pgm"
        write_pgm_bytes(path, b"P5\n4 3\n255\n", payload)
        img = load_pgm(path)
        assert np.all((img >= 0.0) & (img <= 1.0))
        assert np.all(np.isfinite(img))


class TestSavePgm:
    def test_half_rounds_up(self, tmp_path):
        path = tmp_path / "a.pgm"
        save_pgm(np.full((2, 2), 0.5), path, maxval=255)
        raw = path.read_bytes()
        assert raw.endswith(bytes([128] * 4))

    def test_out_of_range_clamps_to_maxval(self, tmp_path):
        path = tmp_path / "b.pgm"
        save_pgm(np.array([[1.2, -0.3]]), path, maxval=255)
        assert path.read_bytes().endswith(bytes([255, 0]))

    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_round_trip_error_bound(self, tmp_path, maxval):
        for seed in range(20):
            img = np.random.default_rng(seed).random((13, 9))
            path = tmp_path / f"rt_{maxval}_{seed}.pgm"
            save_pgm(img, path, maxval=maxval)
            back = load_pgm(path)
            assert np.abs(back - img).max() <= 1.0 / (2 * maxval)

    def test_unwritable_path_raises(self, tmp_path):
        with pytest.raises(OSError):
            save_pgm(np.zeros((2, 2)), tmp_path / "nodir" / "x.pgm")


class TestSyntheticSpec:
    def test_rejects_oversized_shift(self):
        with pytest.raises(ValueError, match="bound"):
            SyntheticSpec(64, 64, uniform_pattern(64, 64, 20, 0))

    def test_rejects_gaps(self):
        regions = (Region(0, 0, 32, 64, 1, 1),)
        with pytest.raises(ValueError, match="tile"):
            SyntheticSpec(64, 64, regions)

    def test_rejects_overlap(self):
        regions = (
            Region(0, 0, 64, 64, 1, 1),
            Region(0, 0, 32, 64, 0, 0),
        )
        with pytest.raises(ValueError, match="tile"):
            SyntheticSpec(64, 64, regions)


class TestMakeSyntheticStereo:
    def test_zero_pattern_gives_identical_images(self):
        spec = SyntheticSpec(48, 40, uniform_pattern(48, 40, 0, 0), texture_seed=3)
        template, reference, truth = make_synthetic_stereo(spec)
        np.testing.assert_array_equal(template, reference)
        assert truth.at(10, 10) == (0, 0)

    def test_uniform_shift_matches_on_valid_interior(self):
        spec = SyntheticSpec(64, 64, uniform_pattern(64, 64, 3, 5), texture_seed=3)
        template, reference, _ = make_synthetic_stereo(spec)
        np.testing.assert_array_equal(template[:-5, :-3], reference[5:, 3:])

    def test_deterministic_per_spec(self):
        spec = SyntheticSpec(
            64, 64, quadrant_pattern(64, 64, [(1, 2), (-2, 1), (2, -1), (-1, -2)]),
            texture_seed=9, noise_floor=0.02,
        )
        t1, r1, g1 = make_synthetic_stereo(spec)
        t2, r2, g2 = make_synthetic_stereo(spec)
        assert t1.tobytes() == t2.tobytes()
        assert r1.tobytes() == r2.tobytes()
        np.testing.assert_array_equal(g1.du, g2.du)

    def test_output_in_unit_interval(self):
        spec = SyntheticSpec(64, 64, uniform_pattern(64, 64, 2, 2), texture_seed=1, noise_floor=0.05)
        template, reference, _ = make_synthetic_stereo(spec)
        for img in (template, reference):
            assert img.min() >= 0.0 and img.max() <= 1.0


def ix_box_blur(arr, radius):
    """The clipped box mean from the ``cumsum`` prefix table, its four
    corners read by ``np.ix_`` gathers."""
    h, w = arr.shape
    padded = cumsum_prefix_sums(arr)
    ys, xs = np.arange(h), np.arange(w)
    y0, y1 = np.maximum(ys - radius, 0), np.minimum(ys + radius + 1, h)
    x0, x1 = np.maximum(xs - radius, 0), np.minimum(xs + radius + 1, w)
    total = (padded[np.ix_(y1, x1)] - padded[np.ix_(y0, x1)]
             - padded[np.ix_(y1, x0)] + padded[np.ix_(y0, x0)])
    return total / np.outer(y1 - y0, x1 - x0)


class TestBoxBlur:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (41, 37)])
    @pytest.mark.parametrize("radius", [0, 2, 41])
    def test_equals_ix_gathers_bit_for_bit(self, shape, radius):
        arr = np.random.default_rng(12).random(shape)
        got = _box_blur(arr, radius)
        assert got.shape == shape
        np.testing.assert_array_equal(got.view(np.uint64), ix_box_blur(arr, radius).view(np.uint64))


def indices_synthetic_stereo(spec):
    """The generator as one whole-image gather through ``np.indices`` and
    two clipped per-pixel index maps, blurred by :func:`ix_box_blur`."""
    h, w = spec.height, spec.width
    rng = np.random.default_rng(spec.texture_seed)
    blurred = ix_box_blur(rng.random((h, w)), radius=2)
    lo, hi = blurred.min(), blurred.max()
    reference = (blurred - lo) / (hi - lo) if hi > lo else np.zeros_like(blurred)
    du_map = np.zeros((h, w), dtype=np.int64)
    dv_map = np.zeros((h, w), dtype=np.int64)
    for region in spec.regions:
        du_map[region.y0:region.y0 + region.height, region.x0:region.x0 + region.width] = region.du
        dv_map[region.y0:region.y0 + region.height, region.x0:region.x0 + region.width] = region.dv
    ys, xs = np.indices((h, w))
    template = reference[np.clip(ys + dv_map, 0, h - 1), np.clip(xs + du_map, 0, w - 1)]
    if spec.noise_floor > 0:
        template = np.clip(template + spec.noise_floor * rng.standard_normal((h, w)), 0.0, 1.0)
    return template, reference, GroundTruth(du=du_map, dv=dv_map)


class TestRegionGenerator:
    # Shifts of 9, near the bound min(w, h) / 4, of both signs: the
    # outward ones clamp at every image edge, the inward ones at none.
    @pytest.mark.parametrize("regions", (
        uniform_pattern(41, 37, 9, -9),
        uniform_pattern(41, 37, -9, 9),
        quadrant_pattern(41, 37, [(-9, -9), (9, -9), (-9, 9), (9, 9)]),
        quadrant_pattern(41, 37, [(9, 9), (-9, 9), (9, -9), (-9, -9)]),
    ))
    @pytest.mark.parametrize("noise_floor", (0.0, 0.05))
    def test_bit_identical_to_indices_gather(self, regions, noise_floor):
        spec = SyntheticSpec(41, 37, regions, texture_seed=11, noise_floor=noise_floor)
        got = make_synthetic_stereo(spec)
        want = indices_synthetic_stereo(spec)
        for a, b in ((got[0], want[0]), (got[1], want[1])):
            np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))
        for a, b in ((got[2].du, want[2].du), (got[2].dv, want[2].dv)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
