import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nccalign import (
    OUT_OF_BOUNDS,
    ZERO_VARIANCE,
    MovingAverageConfig,
    NoiseModel,
    ShiftRange,
    dynamic_range_to_noise,
    ncc_stream,
    power_budget,
    rms,
    zero_mean_stream,
)
from nccalign import best_shift, build_diag_tables
from nccalign import streaming
from nccalign.ncc import OpCounter
from nccalign.streaming import (
    _add_noise,
    _clean_products,
    _front_ends,
    _moving_average_batch,
    _stream_draws,
)

from conftest import random_image

POLE_ALPHAS = (1.0, 0.9, 0.5, 1 / 3, 0.25, 0.123456789, 0.01)


def scalar_pole(x: np.ndarray, alpha: float) -> np.ndarray:
    """The single-pole recurrence y[-1] = x[0], y[k] = alpha * x[k] +
    (1 - alpha) * y[k-1] along the last axis, one Python float (an IEEE
    double) at a time."""
    out = []
    for row in x.reshape(-1, x.shape[-1]).tolist():
        y = row[0]
        for sample in row:
            y = alpha * sample + (1.0 - alpha) * y
            out.append(y)
    return np.array(out).reshape(x.shape)


class TestMovingAverage:
    def test_boxcar_growing_warmup(self):
        out = _moving_average_batch([1.0, 3.0, 5.0], MovingAverageConfig.boxcar(2))
        np.testing.assert_allclose(out, [1.0, 2.0, 4.0])

    @pytest.mark.parametrize("config", [
        MovingAverageConfig.boxcar(1),
        MovingAverageConfig.boxcar(4),
        MovingAverageConfig.single_pole(0.25),
        MovingAverageConfig.single_pole(1.0),
    ])
    def test_constant_signal_is_fixed_point(self, config):
        signal = np.full(12, 0.37)
        np.testing.assert_allclose(_moving_average_batch(signal, config), signal, atol=1e-12)

    def test_pole_alpha_one_is_identity(self):
        signal = np.array([0.4, 0.1, 0.9, 0.6])
        np.testing.assert_allclose(_moving_average_batch(signal, MovingAverageConfig.single_pole(1.0)),
                                   signal)

    @pytest.mark.parametrize("alpha", POLE_ALPHAS)
    @pytest.mark.parametrize("shape, layout", [
        ((289, 64), "C"), ((1089, 128), "C"), ((5, 7), "C"), ((64,), "C"), ((3, 1), "C"),
        ((1,), "C"), ((289, 64), "F"), ((289, 64), "transposed"),
    ], ids=["289x64", "1089x128", "5x7", "64", "3x1", "1", "289x64-fortran", "289x64-transposed"])
    def test_pole_equals_scalar_recurrence(self, alpha, shape, layout):
        rng = np.random.default_rng(len(shape) * 1000 + shape[-1])
        if layout == "transposed":
            x = (rng.standard_normal(shape[::-1]) * 100).T
        else:
            x = np.asarray(rng.standard_normal(shape) * 100, order=layout)
        before = x.copy()
        out = _moving_average_batch(x, MovingAverageConfig.single_pole(alpha))
        assert out.shape == x.shape
        np.testing.assert_array_equal(np.ascontiguousarray(out).view(np.uint64),
                                      scalar_pole(x, alpha).view(np.uint64))
        np.testing.assert_array_equal(x, before)

    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            MovingAverageConfig.boxcar(0)
        with pytest.raises(ValueError):
            MovingAverageConfig.single_pole(0.0)
        with pytest.raises(ValueError):
            MovingAverageConfig.single_pole(1.5)
        with pytest.raises(ValueError):
            MovingAverageConfig(kind="gauss")

    def test_parse(self):
        assert MovingAverageConfig.parse("boxcar:16") == MovingAverageConfig.boxcar(16)
        assert MovingAverageConfig.parse("pole:0.5") == MovingAverageConfig.single_pole(0.5)
        with pytest.raises(ValueError):
            MovingAverageConfig.parse("boxcar")


class TestZeroMeanStream:
    def test_constant_becomes_zero(self):
        out = zero_mean_stream(np.full(8, 0.6), MovingAverageConfig.boxcar(3))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_short_example(self):
        out = zero_mean_stream([1.0, 3.0, 5.0], MovingAverageConfig.boxcar(2))
        np.testing.assert_allclose(out, [0.0, 1.0, 1.0])

    def test_full_length_window_last_sample(self):
        signal = np.array([0.2, 0.9, 0.4, 0.7, 0.1])
        out = zero_mean_stream(signal, MovingAverageConfig.boxcar(len(signal)))
        assert out[-1] == pytest.approx(signal[-1] - signal.mean())

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            zero_mean_stream([], MovingAverageConfig.boxcar(2))

    def test_two_dimensional_signal_rejected(self):
        with pytest.raises(ValueError, match="1D"):
            zero_mean_stream(np.zeros((2, 3)), MovingAverageConfig.boxcar(2))


class TestRms:
    def test_constant(self):
        assert rms(np.full(5, -0.3)) == pytest.approx(0.3)

    def test_three_four(self):
        assert rms([3.0, 4.0]) == pytest.approx(np.sqrt(12.5))

    def test_single_zero(self):
        assert rms([0.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rms([])


def multiply_integrate(b_zm, t_zm, noise, stream_id=(0,)):
    """The stream kernel's numerators: ``_clean_products``, with each row's
    energy computed here, then ``_add_noise`` on a copy."""
    clean, rms_p = _clean_products(b_zm, t_zm, np.sum(b_zm * b_zm, axis=1))
    return _add_noise(clean.copy(), rms_p, b_zm.shape[1], noise, stream_id)


def per_sample_numerators(b_zm, t_zm, noise, stream_id):
    """The numerators with the multiplier noise added to every product
    before the row is integrated, each stream drawn from ``noise.rng``, and
    each row's sum of the magnitudes of the terms it adds."""
    n, d = b_zm.shape
    rms_p = np.sqrt(np.sum(b_zm * b_zm, axis=1) / d) * rms(t_zm)
    products = b_zm * t_zm[None, :]
    if noise.multiplier_fraction > 0:
        draws = noise.rng(0, stream_id).standard_normal((n, d))
        products = products + draws * noise.multiplier_fraction * rms_p[:, None]
    readout = np.zeros(n)
    if noise.integrator_fraction > 0:
        readout = noise.rng(1, stream_id).standard_normal(n) * noise.integrator_fraction * rms_p * np.sqrt(d)
    return products.sum(axis=1) + readout, np.abs(products).sum(axis=1) + np.abs(readout)


class TestMultiplyIntegrate:
    NOISELESS = NoiseModel()

    def test_exact_dot_product(self):
        out = multiply_integrate(np.array([[1.0, 2.0], [0.5, -1.0]]), np.array([3.0, 4.0]), self.NOISELESS)
        np.testing.assert_allclose(out, [11.0, -2.5])

    def test_self_correlation_is_variance_sum(self):
        x = random_image(40, 1, 9)[0]
        xc = x - x.mean()
        expected = float(np.sum(xc * xc))
        assert multiply_integrate(xc[None, :], xc, self.NOISELESS)[0] == pytest.approx(expected)

    def test_multiplier_noise_std_matches_fraction(self):
        # Every row is the same stream, so the rows share one clean sum and
        # one product RMS; a row's D per-sample draws sum to sqrt(D) times
        # the std of one.
        rng = np.random.default_rng(3)
        d = 16
        a = rng.random(d)
        b = rng.random(d)
        rows = np.tile(a, (40_000, 1))
        noise = NoiseModel(multiplier_fraction=0.01, seed=9)
        noisy = multiply_integrate(rows, b, noise, (1,))
        sd = float(np.std(noisy - a @ b))
        assert sd == pytest.approx(0.01 * rms(a) * rms(b) * np.sqrt(d), rel=0.02)

    def test_integrator_noise_scales_with_sqrt_n(self):
        # Alternating signs: the clean sum is 0 and both RMS values are 1.
        noise = NoiseModel(integrator_fraction=0.5, seed=4)
        g = noise.rng(1, (2,)).standard_normal(1)[0]
        for n in (16, 64, 256):
            t = np.resize([1.0, -1.0], n)
            value = multiply_integrate(np.ones((1, n)), t, noise, (2,))[0]
            assert value == pytest.approx(g * 0.5 * np.sqrt(n))

    def test_streams_deterministic_and_distinct(self):
        b = random_image(41, 3, 32)
        t = random_image(42, 1, 32)[0]
        noise = NoiseModel(0.1, 0.2, seed=7)
        first = multiply_integrate(b, t, noise, (3, 1))
        second = multiply_integrate(b, t, noise, (3, 1))
        other = multiply_integrate(b, t, noise, (3, 2))
        np.testing.assert_array_equal(first, second)
        assert np.all(first != other)

    @pytest.mark.parametrize("n, d", [(1, 1), (1, 64), (289, 64), (40, 128)])
    @pytest.mark.parametrize("noise", [
        NoiseModel(0.01, 0.0, seed=0),
        NoiseModel(0.5, 0.2, seed=3),
        NoiseModel(0.0, 0.2, seed=11),
    ], ids=["mult", "both", "int"])
    def test_row_sum_within_rounding_of_per_sample_noise(self, n, d, noise):
        # Integrating the draws as one row sum reorders the additions
        # only, so the two agree to rounding of the terms summed.
        b = random_image(46, n, d) - 0.5
        t = random_image(47, 1, d)[0] - 0.5
        expected, scale = per_sample_numerators(b, t, noise, (5,))
        got = multiply_integrate(b, t, noise, (5,))
        assert np.all(np.abs(got - expected) <= 1e-12 * scale)


class TestNccStream:
    def test_noiseless_self_match_near_one(self):
        # Template equals the reference window; the causal moving average
        # keeps C(0,0) slightly below 1 (warmup suppresses early samples).
        from nccalign import SyntheticSpec, make_synthetic_stereo, uniform_pattern
        spec = SyntheticSpec(200, 200, uniform_pattern(200, 200, 0, 0), texture_seed=3)
        _, reference, _ = make_synthetic_stereo(spec)
        block = reference[30:158, 40:168].copy()
        cmap = ncc_stream(block, reference, (40, 30), ShiftRange(0, 0, 0, 0),
                          build_diag_tables(reference))
        assert cmap.values[0, 0] == pytest.approx(1.0, abs=0.05)

    def test_degenerate_pole_flags_everything(self):
        ref = random_image(43, 32, 32)
        block = ref[8:16, 8:16].copy()
        cmap = ncc_stream(
            block, ref, (8, 8), ShiftRange.symmetric(2), build_diag_tables(ref),
            ma_config=MovingAverageConfig.single_pole(1.0),
        )
        inbounds = cmap.validity != 2
        assert np.all(cmap.validity[inbounds] == ZERO_VARIANCE)
        assert best_shift(cmap) is None

    def test_overshoot_is_clamped_and_flagged(self):
        # A sluggish pole filter barely removes the mean, so the stream
        # numerator exceeds the exact-variance denominator at self-match.
        ref = random_image(5, 64, 64)
        block = ref[10:42, 20:52].copy()
        cmap = ncc_stream(
            block, ref, (20, 10), ShiftRange(0, 0, 0, 0), build_diag_tables(ref),
            ma_config=MovingAverageConfig.single_pole(0.01),
        )
        assert cmap.values[0, 0] == 1.0
        assert bool(cmap.clamped[0, 0])

    def test_values_stay_in_unit_range(self):
        ref = random_image(44, 40, 40)
        block = ref[10:26, 12:28].copy()
        cmap = ncc_stream(block, ref, (12, 10), ShiftRange.symmetric(4), build_diag_tables(ref),
                          noise=NoiseModel(0.2, 0.2, seed=11))
        valid = cmap.valid_mask
        assert np.all(np.abs(cmap.values[valid]) <= 1.0)

    def test_noiseless_argmax_agrees_with_diag(self):
        from nccalign import SyntheticSpec, make_synthetic_stereo, uniform_pattern, partition_template, estimate_disparity
        spec = SyntheticSpec(256, 256, uniform_pattern(256, 256, 2, 3), texture_seed=11)
        template, reference, _ = make_synthetic_stereo(spec)
        grid = partition_template(template, 32, 0.0)
        shifts = ShiftRange.symmetric(4)
        f_diag = estimate_disparity(template, reference, grid, "diag", shifts)
        f_stream = estimate_disparity(template, reference, grid, "stream", shifts,
                                      noise=NoiseModel(0, 0, 0))
        agree = (f_diag.du == f_stream.du) & (f_diag.dv == f_stream.dv)
        assert agree.mean() >= 0.90

    def test_argmax_error_nondecreasing_in_multiplier_noise(self):
        # Statistical: mean per-block argmax error over 20 seeded runs, with
        # the integrator fraction held at 0.20.
        from nccalign import SyntheticSpec, make_synthetic_stereo, uniform_pattern, partition_template, estimate_disparity
        from nccalign.cli import _block_truth
        spec = SyntheticSpec(128, 128, uniform_pattern(128, 128, 2, 3), texture_seed=9, noise_floor=0.01)
        template, reference, truth = make_synthetic_stereo(spec)
        grid = partition_template(template, 16, 0.0)
        shifts = ShiftRange.symmetric(4)
        tdu, tdv = _block_truth(truth, grid)
        mean_errors = []
        for fraction in (0.01, 0.10, 0.20):
            errors = []
            for seed in range(20):
                field = estimate_disparity(template, reference, grid, "stream", shifts,
                                           noise=NoiseModel(fraction, 0.20, seed))
                errors.append(float(np.mean(np.abs(field.du - tdu) + np.abs(field.dv - tdv))))
            mean_errors.append(np.mean(errors))
        assert mean_errors[0] <= mean_errors[1] <= mean_errors[2]

    def test_block_streams_independent_of_evaluation_order(self):
        ref = random_image(45, 48, 48)
        tables = build_diag_tables(ref)
        noise = NoiseModel(0.05, 0.2, seed=13)
        shifts = ShiftRange.symmetric(3)
        blocks = [(4, 4), (20, 12), (30, 28)]
        maps_forward = [
            ncc_stream(ref[y:y + 8, x:x + 8], ref, (x, y), shifts, noise=noise,
                       tables=tables, block_id=i).values
            for i, (x, y) in enumerate(blocks)
        ]
        maps_reverse = [
            ncc_stream(ref[y:y + 8, x:x + 8], ref, (x, y), shifts, noise=noise,
                       tables=tables, block_id=i).values
            for i, (x, y) in reversed(list(enumerate(blocks)))
        ]
        for forward, backward in zip(maps_forward, reversed(maps_reverse)):
            np.testing.assert_array_equal(forward, backward)


def assert_maps_bit_equal(a, b):
    np.testing.assert_array_equal(a.values.view(np.uint64), b.values.view(np.uint64))
    np.testing.assert_array_equal(a.validity, b.validity)
    np.testing.assert_array_equal(a.clamped, b.clamped)


class TestDeadStreams:
    """Under a filter that passes the signal whole, every zero-mean stream
    is (nearly) 0: a dead stream. It reaches the shared tail as a window
    variance sum of 0, so it flags zero-variance with value 0, noise or
    not, and out-of-bounds shifts keep their flag."""

    REF_SHAPE, BLOCK = (40, 48), 8
    SHIFTS = ShiftRange(2, 5, -3, 3)
    # Inside; clipped at the top; clipped at the right and bottom; no shift
    # in bounds, as du >= 2 leaves the reference's right edge.
    ORIGINS = [(16, 16), (4, 1), (36, 30), (40, 16)]

    def inbounds(self):
        """Per origin, the shifts whose window lies inside the reference,
        (n, n_dv, n_du)."""
        h, w = self.REF_SHAPE
        dv = np.arange(self.SHIFTS.dv_min, self.SHIFTS.dv_max + 1)[:, None]
        du = np.arange(self.SHIFTS.du_min, self.SHIFTS.du_max + 1)[None, :]
        return np.array([(x + du >= 0) & (x + du + self.BLOCK <= w)
                         & (y + dv >= 0) & (y + dv + self.BLOCK <= h) for x, y in self.ORIGINS])

    @pytest.mark.parametrize("ma_config", [MovingAverageConfig.single_pole(1.0),
                                           MovingAverageConfig.boxcar(1)], ids=["pole", "boxcar"])
    @pytest.mark.parametrize("orientation", ["main", "anti"])
    def test_dead_streams_flag_zero_variance(self, ma_config, orientation):
        ref = random_image(50, *self.REF_SHAPE)
        tables = build_diag_tables(ref, orientation)
        blocks = [ref[y:y + self.BLOCK, x:x + self.BLOCK].copy() for x, y in self.ORIGINS]
        noise = NoiseModel(0.1, 0.2, seed=23)
        stacked = ncc_stream(blocks, ref, self.ORIGINS, self.SHIFTS, tables, ma_config=ma_config,
                             noise=noise)
        inbounds = self.inbounds()
        assert inbounds[:3].any(axis=(1, 2)).all() and not inbounds[3].any()
        assert not inbounds[1:].all(axis=(1, 2)).any()
        assert (stacked.validity[inbounds] == ZERO_VARIANCE).all()
        assert (stacked.validity[~inbounds] == OUT_OF_BOUNDS).all()
        assert (stacked.values.view(np.uint64) == 0).all()
        assert not stacked.clamped.any()
        for i, (block, origin) in enumerate(zip(blocks, self.ORIGINS)):
            single = ncc_stream(block, ref, origin, self.SHIFTS, tables, ma_config=ma_config,
                                noise=noise, block_id=i)
            np.testing.assert_array_equal(stacked.values[i].view(np.uint64),
                                          single.values.view(np.uint64))
            np.testing.assert_array_equal(stacked.validity[i], single.validity)
            np.testing.assert_array_equal(stacked.clamped[i], single.clamped)


class TestDrawCache:
    NOISE = NoiseModel(0.1, 0.2, seed=17)

    @staticmethod
    def stream_map(noise):
        ref = random_image(48, 48, 48)
        return ncc_stream(ref[10:26, 12:28].copy(), ref, (12, 10), ShiftRange.symmetric(4),
                          build_diag_tables(ref), noise=noise, block_id=2)

    def test_cold_and_warm_maps_bit_equal(self):
        _stream_draws.cache_clear()
        cold = self.stream_map(self.NOISE)
        warm = self.stream_map(self.NOISE)
        info = _stream_draws.cache_info()
        assert (info.hits, info.misses) == (2, 2)
        assert_maps_bit_equal(cold, warm)

    def test_cached_draws_read_only(self):
        for shape in ((5, 4), (5,)):
            draws = _stream_draws(3, 0, (1,), shape)
            assert draws.shape == (5,)
            assert not draws.flags.writeable
            with pytest.raises(ValueError):
                draws[0] = 0.0

    def test_fractions_of_one_seed_share_draws(self):
        _stream_draws.cache_clear()
        self.stream_map(NoiseModel(0.01, 0.2, seed=17))
        self.stream_map(NoiseModel(0.2, 0.2, seed=17))
        info = _stream_draws.cache_info()
        assert (info.hits, info.misses) == (2, 2)
        self.stream_map(NoiseModel(0.2, 0.2, seed=18))
        assert _stream_draws.cache_info().misses == 4

    def test_diag_fast_frame_leaves_caches_untouched(self, tmp_path):
        from nccalign.cli import main
        self.stream_map(self.NOISE)
        before = _stream_draws.cache_info()
        front_ends = list(_front_ends.items())
        assert before.currsize > 0 and front_ends
        assert main(["align", "--width", "96", "--height", "96", "--block", "16", "--crop", "0.0",
                     "--method", "diag-fast", "--out", str(tmp_path)]) == 0
        assert _stream_draws.cache_info() == before
        assert list(_front_ends.keys()) == [key for key, _ in front_ends]
        assert all(_front_ends[key] is entry for key, entry in front_ends)


class TestFrontEndMemo:
    """The noiseless front ends of the last ``ncc_stream`` call, kept under
    one digest of what the call reads."""

    NOISE = NoiseModel(0.1, 0.2, seed=21)
    ORIGIN, SHIFTS = (12, 10), ShiftRange.symmetric(4)

    @staticmethod
    def reference():
        return random_image(49, 48, 48)

    def stream_map(self, ref, block=None, *, origin=ORIGIN, shifts=SHIFTS, noise=NOISE,
                   orientation="main", ma_config=None, counter=None):
        if block is None:
            x0, y0 = origin
            block = ref[y0:y0 + 16, x0:x0 + 16].copy()
        return ncc_stream(block, ref, origin, shifts, build_diag_tables(ref, orientation),
                          ma_config=ma_config, noise=noise, block_id=3, counter=counter)

    @staticmethod
    def held():
        """The memo's one entry: a list of per-block front ends."""
        (entry,) = _front_ends.values()
        return entry

    def cold(self, *args, **kwargs):
        _front_ends.clear()
        return self.stream_map(*args, **kwargs)

    @pytest.fixture
    def computed(self, monkeypatch):
        """A list that gains one item per front end computed: a miss computes
        one per opened block, a hit none."""
        calls = []

        def counted(*args):
            calls.append(args)
            return front_end(*args)

        front_end = streaming._front_end
        monkeypatch.setattr(streaming, "_front_end", counted)
        return calls

    @pytest.mark.parametrize("ma_config, orientation", [
        (None, "main"),
        (MovingAverageConfig.parse("pole:0.5"), "main"),
        (None, "anti"),
    ], ids=["boxcar", "pole", "anti"])
    def test_cold_and_warm_maps_bit_equal(self, computed, ma_config, orientation):
        ref = self.reference()
        cold = self.cold(ref, orientation=orientation, ma_config=ma_config)
        entry = self.held()
        # A different noise setting reads the same front ends: the entry's
        # arrays, with none computed again.
        self.stream_map(ref, noise=NoiseModel(0.01, 0.0, seed=5), orientation=orientation,
                        ma_config=ma_config)
        warm = self.stream_map(ref, orientation=orientation, ma_config=ma_config)
        assert len(computed) == 1 and self.held() is entry
        assert_maps_bit_equal(cold, warm)

    def assert_misses(self, ref, block, pixel=None, **settings):
        """A call after setting ``pixel``, (array, index, value), or with other
        ``settings`` misses and gives the bits of a cold call."""
        self.cold(ref, block)
        entry = self.held()
        if pixel is not None:
            array, index, value = pixel
            array[index] = value
        warm = self.stream_map(ref, block, **settings)
        assert self.held() is not entry
        assert_maps_bit_equal(warm, self.cold(ref, block, **settings))

    @pytest.mark.parametrize("change", ["region_ulp", "diagonal_ulp", "negative_zero"])
    def test_changed_pixel_misses(self, change):
        ref = self.reference()
        x0, y0 = self.ORIGIN
        block = ref[y0:y0 + 16, x0:x0 + 16].copy()
        ref[y0 + 18, x0 - 3] = 0.0  # inside the region the windows cover
        pixel = {"region_ulp": (ref, (y0 + 3, x0 + 5), np.nextafter(ref[y0 + 3, x0 + 5], 1.0)),
                 "diagonal_ulp": (block, (7, 7), np.nextafter(block[7, 7], 1.0)),
                 "negative_zero": (ref, (y0 + 18, x0 - 3), -0.0)}[change]
        self.assert_misses(ref, block, pixel)

    @pytest.mark.parametrize("settings", [
        {"ma_config": MovingAverageConfig.boxcar(8)},
        {"ma_config": MovingAverageConfig.single_pole(0.5)},
        {"orientation": "anti"},
    ], ids=["boxcar", "pole", "anti"])
    def test_other_filter_or_orientation_misses(self, settings):
        ref = self.reference()
        x0, y0 = self.ORIGIN
        block = ref[y0:y0 + 16, x0:x0 + 16].copy()
        k = np.arange(16)
        block[15 - k, k] = block[k, k]  # both orientations read the same template diagonal
        self.assert_misses(ref, block, **settings)

    def test_moved_blocks_miss(self):
        # One block at two origins, then at the same two swapped: the same
        # diagonals and reference box, read at other places.
        ref = self.reference()
        block = ref[10:26, 12:28].copy()
        for origins in ([(12, 10), (20, 18)], [(20, 18), (12, 10)]):
            warm = self.stream_map(ref, [block, block], origin=origins)
            assert_maps_bit_equal(warm, self.cold(ref, [block, block], origin=origins))

    def test_other_shift_range_misses(self):
        # Corner blocks read the whole reference at +-4 and at +-8.
        ref = self.reference()
        origins = [(0, 0), (32, 0), (0, 32), (32, 32)]
        blocks = [ref[y:y + 16, x:x + 16] for x, y in origins]
        for shifts in (ShiftRange.symmetric(4), ShiftRange.symmetric(8)):
            warm = self.stream_map(ref, blocks, origin=origins, shifts=shifts)
            assert_maps_bit_equal(warm, self.cold(ref, blocks, origin=origins, shifts=shifts))

    def test_other_reference_shape_misses(self):
        # A 16 x 24 reference and the same bytes as 24 x 16: at du, dv in
        # [0, 8] one block reads all of either, along one axis each.
        wide = random_image(50, 16, 24)
        block, at = wide[:, :16].copy(), {"origin": (0, 0), "shifts": ShiftRange(0, 8, 0, 8)}
        for ref in (wide, wide.reshape(24, 16)):
            warm = self.stream_map(ref, block, **at)
            assert_maps_bit_equal(warm, self.cold(ref, block, **at))

    def test_holds_the_last_call_only(self, computed):
        # A per-block call between two equal stacked calls replaces their
        # entry, so the second stacked call misses.
        ref = self.reference()
        origins = [(12, 10), (20, 18), (4, 30)]
        blocks = [ref[y:y + 16, x:x + 16] for x, y in origins]
        stacked = self.cold(ref, blocks, origin=origins)
        self.stream_map(ref)
        assert len(computed) == 4 and len(self.held()) == 1
        assert_maps_bit_equal(stacked, self.stream_map(ref, blocks, origin=origins))
        assert len(computed) == 7 and len(_front_ends) == 1

    def test_off_diagonal_template_pixel_gives_cold_result(self):
        ref = self.reference()
        x0, y0 = self.ORIGIN
        block = ref[y0:y0 + 16, x0:x0 + 16].copy()
        self.cold(ref, block)
        entry = self.held()
        block[2, 9] += 0.25
        warm = self.stream_map(ref, block)
        assert self.held() is entry
        assert_maps_bit_equal(warm, self.cold(ref, block))

    def test_counter_tallies_on_hit_and_miss(self):
        ref = self.reference()
        miss, hit = OpCounter(), OpCounter()
        self.cold(ref, counter=miss)
        self.stream_map(ref, counter=hit)
        assert hit == miss and miss.shifts > 0

    def test_cached_arrays_read_only(self):
        self.cold(self.reference())
        (front_end,) = self.held()
        for array in front_end:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0


class TestDynamicRange:
    def test_forty_db_is_one_percent(self):
        assert dynamic_range_to_noise(40.0) == 0.01

    def test_zero_db(self):
        assert dynamic_range_to_noise(0.0) == 1.0

    def test_twenty_db(self):
        assert dynamic_range_to_noise(20.0) == 0.1

    @given(db=st.floats(0.0, 200.0), delta=st.floats(0.01, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_strictly_decreasing(self, db, delta):
        assert dynamic_range_to_noise(db + delta) < dynamic_range_to_noise(db)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            dynamic_range_to_noise(-1.0)


class TestPowerBudget:
    def test_64_channel_budget(self):
        budget = power_budget(64)
        assert budget.total_mw == pytest.approx(215.15, abs=0.01)
        by_name = {c.name: c for c in budget.components}
        assert by_name["lpf"].power_mw == pytest.approx(179.2, abs=1e-9)
        assert by_name["summer"].power_mw == pytest.approx(35.13, abs=1e-9)
        assert by_name["multiplier"].power_mw == pytest.approx(0.058, abs=1e-9)
        assert by_name["integrator"].power_mw == pytest.approx(0.768, abs=1e-9)
        assert by_name["lpf"].quantity == 64
        assert by_name["summer"].quantity == 64
        assert by_name["multiplier"].quantity == 32
        assert by_name["integrator"].quantity == 32

    def test_zero_channels(self):
        assert power_budget(0).total_mw == 0.0

    def test_double_channels(self):
        assert power_budget(128).total_mw == pytest.approx(430.31, abs=0.02)

    def test_two_channels(self):
        assert power_budget(2).total_mw == pytest.approx(6.723, abs=0.001)

    def test_odd_channels_rejected(self):
        with pytest.raises(ValueError, match="even"):
            power_budget(63)

    @given(k=st.integers(1, 200))
    @settings(max_examples=30, deadline=None)
    def test_total_linear_in_channels(self, k):
        assert power_budget(2 * k).total_mw == pytest.approx(k * power_budget(2).total_mw, rel=1e-12)

    def test_total_consistent_with_component_sum(self):
        budget = power_budget(64)
        assert budget.total_mw == pytest.approx(sum(c.unit_power_mw * c.quantity for c in budget.components), abs=0.01)


class TestNoiseModelValidation:
    def test_negative_fraction_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(multiplier_fraction=-0.1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(seed=-1)
