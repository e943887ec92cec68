import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nccalign import (
    OUT_OF_BOUNDS,
    VALID,
    ZERO_VARIANCE,
    NoiseModel,
    ShiftRange,
    SyntheticSpec,
    best_shift,
    build_diag_tables,
    build_sum_tables,
    estimate_disparity,
    make_synthetic_stereo,
    ncc_diag,
    ncc_diag_fast,
    ncc_full_fast,
    ncc_full_naive,
    ncc_stream,
    partition_template,
    uniform_pattern,
)
from nccalign.ncc import OpCounter, _samples

from conftest import assert_rectangle_matches_windows, edge_rectangles, random_image


def oracle_diag_ncc(block, reference, origin, du, dv, orientation):
    """Independent 1D check: Pearson correlation of the two diagonals."""
    d = block.shape[0]
    k = np.arange(d)
    if orientation == "main":
        rows, cols = k, k
    else:
        rows, cols = d - 1 - k, k
    t_diag = block[rows, cols]
    x0, y0 = origin
    r_diag = reference[y0 + dv + rows, x0 + du + cols]
    return np.corrcoef(t_diag, r_diag)[0, 1]


class TestDiagonalSamples:
    BLOCK = np.arange(1, 10).reshape(3, 3) / 9.0

    def test_main_diagonal(self):
        samples = _samples(self.BLOCK, "main")
        np.testing.assert_allclose(samples, np.array([1, 5, 9]) / 9.0)

    def test_anti_diagonal(self):
        samples = _samples(self.BLOCK, "anti")
        np.testing.assert_allclose(samples, np.array([7, 5, 3]) / 9.0)

    @pytest.mark.parametrize("kernel", [ncc_diag_fast, ncc_stream],
                             ids=["ncc_diag_fast", "ncc_stream"])
    def test_non_square_rejected(self, kernel):
        ref = np.zeros((16, 16))
        with pytest.raises(ValueError, match="square"):
            kernel(np.zeros((3, 4)), ref, (0, 0), ShiftRange(0, 0, 0, 0), build_diag_tables(ref))

    def test_unknown_orientation_rejected(self):
        with pytest.raises(ValueError, match="orientation"):
            ncc_diag(self.BLOCK, np.zeros((8, 8)), (0, 0), ShiftRange(0, 0, 0, 0), "sideways")


class TestDiagTables:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 97), (97, 1), (33, 70), (1080, 1920)])
    @pytest.mark.parametrize("orientation", ["main", "anti"])
    def test_tables_follow_recurrence_bit_for_bit(self, shape, orientation):
        """Main: T[y + 1, x + 1] = r[y, x] + T[y, x]; anti:
        T[y, x + 1] = r[y, x] + T[y + 1, x]; the padding is +0.0. Some
        pixels are -0.0."""
        rng = np.random.default_rng(33)
        ref = rng.random(shape)
        ref[rng.random(shape) < 0.05] = -0.0
        ref[0, 0] = -0.0
        tables = build_diag_tables(ref, orientation)
        for table, values in ((tables.sum_table, ref), (tables.sumsq_table, ref * ref)):
            if orientation == "main":
                got, prev, pad = table[1:, 1:], table[:-1, :-1], table[0]
            else:
                got, prev, pad = table[:-1, 1:], table[1:, :-1], table[-1]
            np.testing.assert_array_equal(got.view(np.uint64), (values + prev).view(np.uint64))
            assert not pad.view(np.uint64).any() and not table[:, 0].view(np.uint64).any()

    def test_build_needs_no_full_size_temporary(self):
        ref = random_image(34, 1080, 1920)
        tracemalloc.start()
        try:
            tables = build_diag_tables(ref, "main")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - tables.sum_table.nbytes - tables.sumsq_table.nbytes < 2**20

    @pytest.mark.parametrize("orientation", ["main", "anti"])
    @pytest.mark.parametrize("length", [1, 7])
    def test_rectangle_lookups_equal_window_lookups(self, orientation, length):
        img = random_image(35, 29, 41)
        img[5:20, 8:30] = 0.25  # flat windows, whose variance counts as 0
        tables = build_diag_tables(img, orientation)
        for xs, ys in edge_rectangles(29, 41, length, length):
            assert_rectangle_matches_windows(lambda x0, y0: tables.window_var_sum(x0, y0, length),
                                             xs, ys)

    def test_constant_image_has_zero_diag_variance(self):
        for orientation in ("main", "anti"):
            tables = build_diag_tables(np.full((8, 8), 0.5), orientation)
            for x0 in range(4):
                for y0 in range(4):
                    assert tables.window_var_sum(x0, y0, 4) == 0.0

    def test_single_row_image(self):
        img = np.array([[0.1, 0.4, 0.9, 0.2]])
        main, anti = build_diag_tables(img, "main"), build_diag_tables(img, "anti")
        # Every diagonal of one row holds one pixel: the main tables keep it
        # below the row, the anti tables above it.
        np.testing.assert_array_equal(main.sum_table[1, 1:], img[0])
        np.testing.assert_array_equal(anti.sum_table[0, 1:], img[0])
        np.testing.assert_array_equal(main.sumsq_table[1, 1:], img[0] ** 2)
        np.testing.assert_array_equal(anti.sumsq_table[0, 1:], img[0] ** 2)
        for x in range(4):
            assert main.window_var_sum(x, 0, 1) == anti.window_var_sum(x, 0, 1) == 0.0

    @pytest.mark.parametrize("orientation", ["main", "anti"])
    def test_window_variance_matches_direct(self, orientation):
        img = random_image(20, 32, 32)
        tables = build_diag_tables(img, orientation)
        d = 6
        k = np.arange(d)
        rows = k if orientation == "main" else d - 1 - k
        for y0 in range(0, 32 - d, 3):
            for x0 in range(0, 32 - d, 3):
                samples = img[y0 + rows, x0 + k]
                direct = np.sum((samples - samples.mean()) ** 2)
                assert tables.window_var_sum(x0, y0, d) == pytest.approx(direct, abs=1e-12)


class TestNccDiag:
    def test_perfect_match_is_one(self):
        ref = random_image(21, 24, 24)
        block = ref[4:12, 6:14].copy()
        cmap = ncc_diag(block, ref, (6, 4), ShiftRange.symmetric(3))
        assert cmap.values[3, 3] == pytest.approx(1.0, abs=1e-9)

    def test_interior_blocks_recover_uniform_shift(self):
        spec = SyntheticSpec(96, 96, uniform_pattern(96, 96, 3, 5), texture_seed=1)
        template, reference, _ = make_synthetic_stereo(spec)
        grid = partition_template(template, 16, 0.0)
        field = estimate_disparity(template, reference, grid, "diag", ShiftRange.symmetric(8))
        interior_du = field.du[:-1, :-1]
        interior_dv = field.dv[:-1, :-1]
        assert np.all(interior_du == 3)
        assert np.all(interior_dv == 5)

    @pytest.mark.parametrize("orientation", ["main", "anti"])
    def test_matches_pearson_oracle(self, orientation):
        shifts = ShiftRange.symmetric(2)
        for seed in range(20):
            ref = random_image(300 + seed, 16, 16)
            block = random_image(400 + seed, 6, 6)
            cmap = ncc_diag(block, ref, (5, 5), shifts, orientation)
            for dv in range(-2, 3):
                for du in range(-2, 3):
                    expected = oracle_diag_ncc(block, ref, (5, 5), du, dv, orientation)
                    assert cmap.values[2 + dv, 2 + du] == pytest.approx(expected, abs=1e-9)

    def test_non_square_block_rejected(self):
        with pytest.raises(ValueError, match="square"):
            ncc_diag(np.zeros((4, 6)), np.zeros((16, 16)), (0, 0), ShiftRange(0, 0, 0, 0))


class TestNccDiagFast:
    def test_matches_ncc_diag_on_random_cases(self):
        shifts = ShiftRange.symmetric(4)
        for seed in range(25):
            ref = random_image(500 + seed, 32, 32)
            block = random_image(600 + seed, 8, 8)
            for orientation in ("main", "anti"):
                tables = build_diag_tables(ref, orientation)
                slow = ncc_diag(block, ref, (12, 12), shifts, orientation)
                fast = ncc_diag_fast(block, ref, (12, 12), shifts, tables)
                np.testing.assert_array_equal(slow.validity, fast.validity)
                assert np.abs(slow.values - fast.values).max() <= 1e-9

    def test_perfect_match_is_one(self):
        ref = random_image(22, 40, 40)
        block = ref[10:26, 12:28].copy()
        tables = build_diag_tables(ref)
        cmap = ncc_diag_fast(block, ref, (12, 10), ShiftRange.symmetric(4), tables)
        assert cmap.values[4, 4] == pytest.approx(1.0, abs=1e-9)

    def test_flat_diagonal_flags_while_full_ncc_works(self):
        # Textured block whose main diagonal is constant: diagonal NCC cannot
        # see any feature, full NCC can.
        ref = random_image(23, 24, 24)
        block = ref[8:16, 8:16].copy()
        d = block.shape[0]
        block[np.arange(d), np.arange(d)] = 0.5
        ref[8:16, 8:16] = block
        tables = build_diag_tables(ref)
        dmap = ncc_diag_fast(block, ref, (8, 8), ShiftRange(0, 0, 0, 0), tables)
        assert dmap.validity[0, 0] == ZERO_VARIANCE
        fmap = ncc_full_naive(block, ref, (8, 8), ShiftRange(0, 0, 0, 0))
        assert fmap.validity[0, 0] == VALID
        assert fmap.values[0, 0] == pytest.approx(1.0, abs=1e-9)


class TestCostModel:
    def test_diag_cost_is_block_side(self):
        ref = random_image(24, 40, 40)
        block = ref[10:26, 10:26].copy()  # 16x16
        shifts = ShiftRange.symmetric(3)
        full_counter, diag_counter = OpCounter(), OpCounter()
        ncc_full_naive(block, ref, (10, 10), shifts, counter=full_counter)
        ncc_diag(block, ref, (10, 10), shifts, counter=diag_counter)
        assert full_counter.shifts == diag_counter.shifts
        assert full_counter.multiplies // full_counter.shifts == 256
        assert diag_counter.multiplies // diag_counter.shifts == 16
        assert full_counter.multiplies // diag_counter.multiplies == 16


class TestInvariants:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_coefficients_bounded(self, seed):
        ref = random_image(seed, 24, 24)
        block = random_image(seed + 90_000, 8, 8)
        tables = build_diag_tables(ref)
        cmap = ncc_diag_fast(block, ref, (8, 8), ShiftRange.symmetric(4), tables)
        assert np.all(np.abs(cmap.values[cmap.valid_mask]) <= 1.0 + 1e-9)

    @pytest.mark.parametrize("gain,offset", [(0.1, 0.0), (2.0, 0.3)])
    def test_affine_template_invariance(self, gain, offset):
        ref = random_image(25, 32, 32)
        block = ref[6:18, 8:20].copy()
        shifts = ShiftRange.symmetric(4)
        base = ncc_diag(block, ref, (8, 6), shifts)
        scaled = ncc_diag(gain * block + offset, ref, (8, 6), shifts)
        np.testing.assert_array_equal(base.validity, scaled.validity)
        assert np.abs(base.values - scaled.values).max() <= 1e-9

    def test_diag_argmax_mostly_agrees_with_full(self):
        spec = SyntheticSpec(160, 160, uniform_pattern(160, 160, 2, 3), texture_seed=31)
        template, reference, _ = make_synthetic_stereo(spec)
        grid = partition_template(template, 16, 0.0)
        shifts = ShiftRange.symmetric(4)
        f_full = estimate_disparity(template, reference, grid, "full-fast", shifts)
        f_diag = estimate_disparity(template, reference, grid, "diag-fast", shifts)
        interior = np.zeros(f_full.du.shape, dtype=bool)
        interior[:-1, :-1] = True  # last row/col blocks touch the generator's clamped band
        agree = (f_full.du == f_diag.du) & (f_full.dv == f_diag.dv)
        assert agree[interior].mean() >= 0.95


class TestHdOrientationOracle:
    """The orientation oracles at the size the system runs: a 1920x1080
    texture, 128-pixel blocks and +/-16 shifts, three seeded blocks per
    orientation. Each block is the reference window at a seeded shift."""

    @pytest.fixture(scope="class")
    def reference(self):
        return random_image(26, 1080, 1920)

    @pytest.mark.parametrize("orientation", ["main", "anti"])
    def test_fast_kernels_match_ncc_diag(self, reference, orientation):
        d, shifts = 128, ShiftRange.symmetric(16)
        tables = build_diag_tables(reference, orientation)
        rng = np.random.default_rng([27, orientation == "anti"])
        edge_blocks = 0
        for _ in range(3):
            x0, y0 = int(rng.integers(0, 1920 - d + 1)), int(rng.integers(0, 1080 - d + 1))
            du, dv = rng.integers(-16, 17, size=2)
            # The block is the window at (x0 + du, y0 + dv), moved inside the image.
            du = int(np.clip(x0 + du, 0, 1920 - d)) - x0
            dv = int(np.clip(y0 + dv, 0, 1080 - d)) - y0
            block = reference[y0 + dv:y0 + dv + d, x0 + du:x0 + du + d].copy()
            slow = ncc_diag(block, reference, (x0, y0), shifts, orientation)
            fast = ncc_diag_fast(block, reference, (x0, y0), shifts, tables)
            np.testing.assert_array_equal(slow.validity, fast.validity)
            assert np.abs(slow.values - fast.values).max() <= 1e-9
            edge_blocks += bool((fast.validity == OUT_OF_BOUNDS).any())
            stream = ncc_stream(block, reference, (x0, y0), shifts, tables, noise=NoiseModel())
            want, got = best_shift(slow), best_shift(stream)
            assert (got.du, got.dv) == (want.du, want.dv) == (du, dv)
        assert edge_blocks >= 1  # the out-of-bounds flags are compared too

    @pytest.fixture(scope="class")
    def flat_patch_reference(self):
        reference = random_image(0, 1080, 1920)
        reference[-180:, -220:] = 0.37
        return reference

    @pytest.mark.parametrize("kind", ["full", "main", "anti"])
    def test_flat_patch_flags_match_the_oracle(self, flat_patch_reference, kind):
        # Every window at origin (1760, 920), +/-8, lies in the flat patch.
        # The prefix sums are large there, so cancellation in sumsq - sum^2/n
        # leaves the table variance of a flat window a tiny positive value;
        # the fast kernels must still flag it zero-variance, as the oracles do.
        reference, origin, shifts = flat_patch_reference, (1760, 920), ShiftRange.symmetric(8)
        block = random_image(1, 128, 128)
        if kind == "full":
            slow = ncc_full_naive(block, reference, origin, shifts)
            fast = [ncc_full_fast(block, reference, origin, shifts, build_sum_tables(reference))]
        else:
            tables = build_diag_tables(reference, kind)
            slow = ncc_diag(block, reference, origin, shifts, kind)
            fast = [ncc_diag_fast(block, reference, origin, shifts, tables),
                    ncc_stream(block, reference, origin, shifts, tables, noise=NoiseModel())]
        assert (slow.validity == ZERO_VARIANCE).all()
        for cmap in fast:
            np.testing.assert_array_equal(cmap.validity, slow.validity)
