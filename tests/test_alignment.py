import re

import numpy as np
import pytest

from nccalign import (
    BLOCK_INTERPOLATED,
    BLOCK_INVALID,
    BLOCK_VALID,
    DisparityField,
    DenseDisparity,
    ShiftRange,
    SyntheticSpec,
    UnalignableError,
    UndefinedMetricError,
    estimate_disparity,
    fill_invalid,
    global_correlation,
    improvement_percent,
    interpolate_disparity,
    make_synthetic_stereo,
    partition_template,
    quadrant_pattern,
    random_intensity_perturbation,
    scale_intensity,
    uniform_pattern,
    warp,
)
from nccalign.alignment import bilinear_grid_sample
from nccalign.cli import match_rate

from conftest import random_image


def make_field(du, dv, status=None):
    du = np.asarray(du, dtype=np.float64)
    dv = np.asarray(dv, dtype=np.float64)
    if status is None:
        status = np.full(du.shape, BLOCK_VALID, dtype=np.uint8)
    return DisparityField(du=du, dv=dv, coeff=np.ones(du.shape), status=status)


class TestPartitionTemplate:
    def test_hd_frame_partition(self):
        image = np.zeros((1080, 1920))
        grid = partition_template(image, 128, 0.10)
        assert (grid.margin_y, grid.margin_x) == (54, 96)
        assert (grid.rows, grid.cols) == (7, 13)
        # every block inside the cropped region
        last_x, last_y = grid.origin(grid.rows - 1, grid.cols - 1)
        assert last_x + 128 <= 1920 - 96
        assert last_y + 128 <= 1080 - 54

    def test_no_crop_exact_tiling(self):
        grid = partition_template(np.zeros((256, 256)), 128, 0.0)
        assert (grid.rows, grid.cols) == (2, 2)
        assert grid.origin(1, 1) == (128, 128)

    def test_image_smaller_than_block_rejected(self):
        with pytest.raises(ValueError, match="smaller"):
            partition_template(np.zeros((100, 100)), 128, 0.0)

    def test_crop_fraction_bounds(self):
        with pytest.raises(ValueError, match="crop_fraction"):
            partition_template(np.zeros((256, 256)), 32, 0.2)

    def test_small_block_rejected(self):
        with pytest.raises(ValueError, match="block_size"):
            partition_template(np.zeros((256, 256)), 4, 0.0)


class TestEstimateDisparity:
    def test_quadrant_truth_recovery(self):
        spec = SyntheticSpec(
            256, 256, quadrant_pattern(256, 256, [(2, 3), (-3, 1), (4, -2), (-1, -4)]),
            texture_seed=5, noise_floor=0.01,
        )
        template, reference, truth = make_synthetic_stereo(spec)
        grid = partition_template(template, 32, 0.0)
        field = estimate_disparity(template, reference, grid, "diag", ShiftRange.symmetric(4))
        assert match_rate(field, truth, grid) >= 0.95

    @pytest.mark.parametrize("method", ["full", "full-fast", "diag", "diag-fast", "stream"])
    def test_identical_images_give_zero_shift(self, method):
        image = random_image(50, 64, 64)
        grid = partition_template(image, 16, 0.0)
        field = estimate_disparity(image, image, grid, method, ShiftRange.symmetric(2))
        assert np.all(field.status == BLOCK_VALID)
        assert np.all(field.du == 0)
        assert np.all(field.dv == 0)
        if method != "stream":
            assert np.all(field.coeff >= 1.0 - 1e-9)

    def test_flat_image_all_invalid(self):
        image = np.full((64, 64), 0.5)
        grid = partition_template(image, 16, 0.0)
        field = estimate_disparity(image, image, grid, "diag", ShiftRange.symmetric(2))
        assert np.all(field.status == BLOCK_INVALID)

    def test_unknown_method_rejected(self):
        image = random_image(51, 32, 32)
        grid = partition_template(image, 16, 0.0)
        with pytest.raises(ValueError, match="method"):
            estimate_disparity(image, image, grid, "fft", ShiftRange.symmetric(1))

    def test_shifts_stay_in_search_range(self):
        spec = SyntheticSpec(128, 128, uniform_pattern(128, 128, 2, 1), texture_seed=8, noise_floor=0.05)
        template, reference, _ = make_synthetic_stereo(spec)
        grid = partition_template(template, 16, 0.0)
        shifts = ShiftRange(-3, 3, -2, 2)
        field = estimate_disparity(template, reference, grid, "diag-fast", shifts)
        valid = field.status == BLOCK_VALID
        assert np.all((field.du[valid] >= -3) & (field.du[valid] <= 3))
        assert np.all((field.dv[valid] >= -2) & (field.dv[valid] <= 2))


class TestFillInvalid:
    def test_single_hole_takes_neighbor_mean(self):
        status = np.full((3, 3), BLOCK_VALID, dtype=np.uint8)
        status[1, 1] = BLOCK_INVALID
        field = make_field(np.full((3, 3), 3.0), np.full((3, 3), 5.0), status)
        filled = fill_invalid(field)
        assert filled.du[1, 1] == pytest.approx(3.0)
        assert filled.dv[1, 1] == pytest.approx(5.0)
        assert filled.status[1, 1] == BLOCK_INTERPOLATED

    def test_all_valid_unchanged(self):
        field = make_field([[1.0, 2.0]], [[0.0, -1.0]])
        filled = fill_invalid(field)
        np.testing.assert_array_equal(filled.du, field.du)
        np.testing.assert_array_equal(filled.status, field.status)

    def test_checkerboard_fills_in_one_pass(self):
        # 3x3 checkerboard: corners+center valid with du=2 except center 6;
        # each invalid cell sees valid neighbors {2, 2, 6} -> 10/3.
        status = np.full((3, 3), BLOCK_INVALID, dtype=np.uint8)
        du = np.zeros((3, 3))
        for r, c in [(0, 0), (0, 2), (2, 0), (2, 2)]:
            status[r, c] = BLOCK_VALID
            du[r, c] = 2.0
        status[1, 1] = BLOCK_VALID
        du[1, 1] = 6.0
        field = make_field(du, np.zeros((3, 3)), status)
        filled = fill_invalid(field)
        assert np.all(filled.status != BLOCK_INVALID)
        # edge cells: neighbors two corners (2,2) + center (6)
        for r, c in [(0, 1), (1, 0), (1, 2), (2, 1)]:
            assert filled.du[r, c] == pytest.approx(10.0 / 3.0)
            assert filled.status[r, c] == BLOCK_INTERPOLATED

    def test_isolated_valid_region_propagates(self):
        status = np.full((1, 4), BLOCK_INVALID, dtype=np.uint8)
        status[0, 0] = BLOCK_VALID
        field = make_field([[7.0, 0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0, 0.0]], status)
        filled = fill_invalid(field)
        np.testing.assert_allclose(filled.du, 7.0)
        np.testing.assert_allclose(filled.dv, 1.0)

    def test_no_valid_blocks_raises(self):
        status = np.full((2, 2), BLOCK_INVALID, dtype=np.uint8)
        field = make_field(np.zeros((2, 2)), np.zeros((2, 2)), status)
        with pytest.raises(UnalignableError):
            fill_invalid(field)


class TestInterpolateDisparity:
    def test_uniform_field_constant_everywhere(self):
        image = np.zeros((64, 64))
        grid = partition_template(image, 16, 0.0)
        field = make_field(np.full((4, 4), 18.0), np.full((4, 4), 43.0))
        dense = interpolate_disparity(field, grid, extent=(64, 64))
        np.testing.assert_allclose(dense.du, 18.0)
        np.testing.assert_allclose(dense.dv, 43.0)

    def test_midpoint_between_two_centers(self):
        centers_x = np.array([7.5, 23.5])
        centers_y = np.array([7.5])
        values = np.array([[18.0, 33.0]])
        mid = bilinear_grid_sample(centers_x, centers_y, [values], np.array([15.5]), np.array([7.5]))[0].expand()
        assert mid[0, 0] == pytest.approx(25.5)

    def test_dense_field_matches_blocks_at_centers(self):
        image = np.zeros((36, 36))
        grid = partition_template(image, 9, 0.0)  # odd block size: integer centers
        rng = np.random.default_rng(60)
        field = make_field(rng.uniform(-5, 5, (4, 4)), rng.uniform(-5, 5, (4, 4)))
        dense = interpolate_disparity(field, grid, extent=(36, 36))
        cx, cy = grid.center_coords()
        for i, y in enumerate(cy.astype(int)):
            for j, x in enumerate(cx.astype(int)):
                assert abs(dense.du[y, x] - field.du[i, j]) <= 1e-9
                assert abs(dense.dv[y, x] - field.dv[i, j]) <= 1e-9

    def test_rejects_incomplete_field(self):
        image = np.zeros((32, 32))
        grid = partition_template(image, 16, 0.0)
        status = np.full((2, 2), BLOCK_INVALID, dtype=np.uint8)
        status[0, 0] = BLOCK_VALID
        field = make_field(np.zeros((2, 2)), np.zeros((2, 2)), status)
        with pytest.raises(ValueError, match="invalid"):
            interpolate_disparity(field, grid, extent=(32, 32))

    @pytest.mark.parametrize("du_shape, dv_shape", (((4, 5), (4, 5)), ((1, 1), (1, 1)),
                                                    ((2, 3), (3, 2)), ((3, 2), (2, 3))))
    def test_rejects_field_of_another_shape(self, du_shape, dv_shape):
        # A larger field was read from its top-left corner, a smaller one
        # failed with an IndexError.
        grid = partition_template(np.zeros((32, 48)), 16, 0.0)
        field = make_field(np.zeros(du_shape), np.zeros(du_shape))
        field.dv = np.zeros(dv_shape)
        bad = du_shape if du_shape != (2, 3) else dv_shape
        with pytest.raises(ValueError, match=rf"\({bad[0]}, {bad[1]}\) .*\(2, 3\) block grid"):
            interpolate_disparity(field, grid, extent=(48, 32))

    @pytest.mark.parametrize("extent", ((0, 32), (-5, 32), (48, 0), (48, -1)))
    def test_rejects_empty_extent(self, extent):
        grid = partition_template(np.zeros((32, 48)), 16, 0.0)
        field = make_field(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError, match=rf"extent .*{re.escape(str(extent))}"):
            interpolate_disparity(field, grid, extent=extent)


class TestWarp:
    def test_zero_field_is_identity(self):
        image = random_image(61, 20, 24)
        dense = DenseDisparity(du=np.zeros((20, 24)), dv=np.zeros((20, 24)))
        warped, mask = warp(image, dense)
        assert mask.all()
        assert warped.tobytes() == image.tobytes()

    def test_constant_shift_realigns_generator_pair(self):
        spec = SyntheticSpec(64, 64, uniform_pattern(64, 64, 3, 5), texture_seed=6)
        template, reference, _ = make_synthetic_stereo(spec)
        dense = DenseDisparity(du=np.full((64, 64), 3.0), dv=np.full((64, 64), 5.0))
        warped, mask = warp(template, dense)
        assert mask[5:, 3:].all()
        assert not mask[:5, :].any()
        np.testing.assert_array_equal(warped[mask], reference[mask])

    def test_everything_out_of_bounds(self):
        image = random_image(62, 8, 8)
        dense = DenseDisparity(du=np.full((8, 8), 50.0), dv=np.zeros((8, 8)))
        warped, mask = warp(image, dense)
        assert not mask.any()
        np.testing.assert_array_equal(warped, 0.0)

    def test_extent_mismatch_rejected(self):
        with pytest.raises(ValueError, match="extent|match"):
            warp(np.zeros((8, 8)), DenseDisparity(du=np.zeros((4, 4)), dv=np.zeros((4, 4))))

    @pytest.mark.parametrize("du_shape, dv_shape", (((4, 4), (4, 5)), ((3, 4), (4, 4)), ((4, 4), (4,))))
    def test_component_shapes_that_differ_are_named(self, du_shape, dv_shape):
        # The error names dv against du, with both shapes, whichever of
        # them the template's shape matches.
        with pytest.raises(ValueError) as info:
            warp(np.zeros((4, 4)), DenseDisparity(du=np.zeros(du_shape), dv=np.zeros(dv_shape)))
        assert str(info.value) == f"dense field dv {dv_shape} does not match du {du_shape}"


class TestGlobalCorrelation:
    def test_self_correlation_is_one(self):
        image = random_image(63, 12, 12)
        assert global_correlation(image, image) == 1.0

    def test_mirrored_is_minus_one(self):
        image = random_image(64, 12, 12)
        assert global_correlation(image, 1.0 - image) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_variance_rejected(self):
        image = random_image(65, 8, 8)
        with pytest.raises(UndefinedMetricError, match="variance"):
            global_correlation(image, np.full((8, 8), 0.5))

    def test_mask_restricts_pixels(self):
        a = random_image(66, 8, 8)
        b = a.copy()
        b[4:, :] = 0.123  # corrupt the unmasked half
        mask = np.zeros((8, 8), dtype=bool)
        mask[:4, :] = True
        assert global_correlation(a, b, mask) == 1.0

    def test_too_few_pixels_rejected(self):
        a = random_image(67, 4, 4)
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = True
        with pytest.raises(UndefinedMetricError, match="pixels"):
            global_correlation(a, a, mask)


class TestImprovementPercent:
    def test_reported_reference_values(self):
        assert improvement_percent(0.7247, 0.9923) == pytest.approx(36.93, abs=0.01)

    def test_no_change_is_zero(self):
        assert improvement_percent(0.5, 0.5) == 0.0

    def test_doubling_is_hundred(self):
        assert improvement_percent(0.5, 1.0) == pytest.approx(100.0)

    def test_negative_baseline_keeps_sign_of_change(self):
        # A rise from a negative correlation is an improvement.
        assert improvement_percent(-0.5, 0.5) == pytest.approx(200.0)
        assert improvement_percent(-0.5, -1.0) == pytest.approx(-100.0)

    def test_zero_baseline_rejected(self):
        with pytest.raises(UndefinedMetricError):
            improvement_percent(0.0, 0.5)


class TestIntensityOps:
    def test_scale_by_tenth(self):
        image = random_image(68, 6, 6)
        np.testing.assert_allclose(scale_intensity(image, 0.1), image * 0.1)

    def test_scale_identity(self):
        image = random_image(69, 6, 6)
        assert scale_intensity(image, 1.0).tobytes() == image.tobytes()

    def test_scale_zero_then_all_blocks_invalid(self):
        spec = SyntheticSpec(64, 64, uniform_pattern(64, 64, 1, 1), texture_seed=9)
        template, reference, _ = make_synthetic_stereo(spec)
        dark = scale_intensity(template, 0.0)
        grid = partition_template(dark, 16, 0.0)
        field = estimate_disparity(dark, reference, grid, "diag", ShiftRange.symmetric(2))
        assert np.all(field.status == BLOCK_INVALID)

    def test_negative_factor_rejected(self):
        with pytest.raises(ValueError):
            scale_intensity(np.zeros((4, 4)), -1.0)

    def test_perturbation_zero_amplitude_identity(self):
        image = random_image(70, 6, 6)
        out = random_intensity_perturbation(image, seed=1, amplitude=0.0)
        assert out.tobytes() == image.tobytes()

    def test_perturbation_deterministic(self):
        image = random_image(71, 6, 6)
        a = random_intensity_perturbation(image, seed=5, amplitude=0.4)
        b = random_intensity_perturbation(image, seed=5, amplitude=0.4)
        assert a.tobytes() == b.tobytes()

    def test_perturbed_alignment_still_recovers_truth(self):
        # +/-50% per-pixel factors are strong relative to the texture, so the
        # bound is statistical: mean match rate over 8 perturbation seeds.
        spec = SyntheticSpec(
            512, 512, quadrant_pattern(512, 512, [(2, 3), (-3, 1), (4, -2), (-1, -4)]),
            texture_seed=5, noise_floor=0.01,
        )
        template, reference, truth = make_synthetic_stereo(spec)
        grid = partition_template(template, 128, 0.0)
        rates = []
        for seed in range(8):
            bumpy = random_intensity_perturbation(template, seed=seed, amplitude=0.5)
            field = estimate_disparity(bumpy, reference, grid, "diag", ShiftRange.symmetric(4))
            rates.append(match_rate(field, truth, grid))
        assert np.mean(rates) >= 0.90

    @pytest.mark.parametrize("method", ["full", "diag"])
    @pytest.mark.parametrize("factor", [0.1, 0.5, 2.0])
    def test_disparity_invariant_to_intensity_scale(self, method, factor):
        spec = SyntheticSpec(96, 96, uniform_pattern(96, 96, 2, 1), texture_seed=12, noise_floor=0.02)
        template, reference, _ = make_synthetic_stereo(spec)
        grid = partition_template(template, 16, 0.0)
        shifts = ShiftRange.symmetric(3)
        base = estimate_disparity(template, reference, grid, method, shifts)
        scaled = estimate_disparity(scale_intensity(template, factor), reference, grid, method, shifts)
        np.testing.assert_array_equal(base.du, scaled.du)
        np.testing.assert_array_equal(base.dv, scaled.dv)
        np.testing.assert_array_equal(base.status, scaled.status)
        assert np.abs(base.coeff - scaled.coeff).max() <= 1e-9


class TestAlignmentNeverHurts:
    def test_twenty_seeded_pairs(self):
        shifts = ShiftRange.symmetric(6)
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            du = int(rng.integers(-5, 6))
            dv = int(rng.integers(-5, 6))
            spec = SyntheticSpec(128, 128, uniform_pattern(128, 128, du, dv),
                                 texture_seed=seed, noise_floor=0.01)
            template, reference, _ = make_synthetic_stereo(spec)
            grid = partition_template(template, 16, 0.0)
            field = estimate_disparity(template, reference, grid, "diag-fast", shifts)
            filled = fill_invalid(field)
            dense = interpolate_disparity(filled, grid, extent=(128, 128))
            warped, mask = warp(template, dense)
            before = global_correlation(template, reference, mask)
            after = global_correlation(warped, reference, mask)
            assert after >= before
