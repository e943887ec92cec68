import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nccalign import (
    EPS_VAR,
    OUT_OF_BOUNDS,
    VALID,
    ZERO_VARIANCE,
    ShiftRange,
    best_shift,
    build_diag_tables,
    build_sum_tables,
    ncc_diag,
    ncc_diag_fast,
    ncc_full_fast,
    ncc_full_naive,
    ncc_stream,
)
from nccalign.images import _prefix_sums
from nccalign.ncc import CorrelationMap, OpCounter, _inbounds_ranges, _two_pass

from conftest import (
    assert_rectangle_matches_windows,
    cumsum_prefix_sums,
    edge_rectangles,
    random_image,
)


def laid_out(arr, layout):
    """``arr`` with the same values, laid out in memory as ``layout``."""
    if layout == "F":
        return np.asfortranarray(arr)
    return arr[::-1].copy()[::-1] if layout == "rows reversed" else arr


class TestSumTables:
    def test_constant_image(self):
        tables = build_sum_tables(np.full((3, 3), 0.5))
        assert tables.sum_table[1:, 1:][2, 2] == pytest.approx(4.5)
        for y0 in range(2):
            for x0 in range(2):
                assert tables.window_var_sum(x0, y0, 2, 2) == 0.0

    def test_single_pixel(self):
        tables = build_sum_tables(np.array([[0.7]]))
        assert tables.sum_table[1:, 1:][0, 0] == pytest.approx(0.7)
        assert tables.sumsq_table[1:, 1:][0, 0] == pytest.approx(0.49)

    def test_window_variance_matches_two_pass(self):
        img = random_image(0, 16, 16)
        tables = build_sum_tables(img)
        for size in (2, 3, 5, 8):
            for y0 in range(0, 16 - size):
                for x0 in range(0, 16 - size):
                    window = img[y0:y0 + size, x0:x0 + size]
                    direct = np.sum((window - window.mean()) ** 2)
                    assert tables.window_var_sum(x0, y0, size, size) == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("width, height", [(1, 1), (7, 7), (5, 9)])
    def test_rectangle_lookups_equal_window_lookups(self, width, height):
        img = random_image(36, 29, 41)
        img[5:20, 8:30] = 0.25  # flat windows, whose variance counts as 0
        tables = build_sum_tables(img)
        for xs, ys in edge_rectangles(29, 41, height, width):
            assert_rectangle_matches_windows(
                lambda x0, y0: tables.window_var_sum(x0, y0, width, height), xs, ys)


    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (33, 65), (1080, 1920)])
    @pytest.mark.parametrize("layout", ["C", "F", "rows reversed"])
    def test_prefix_tables_equal_cumsum_tables_bit_for_bit(self, shape, layout):
        """The row-by-row tables are the two ``cumsum`` passes' tables, bit
        for bit, also where a column starts with -0.0."""
        rng = np.random.default_rng(38)
        arr = rng.random(shape)
        arr[rng.random(shape) < 0.05] = -0.0
        arr[0, 0] = -0.0
        arr = laid_out(arr, layout)
        tables = build_sum_tables(arr)
        for got, want in ((_prefix_sums(arr), cumsum_prefix_sums(arr)),
                          (_prefix_sums(arr, squared=True), cumsum_prefix_sums(arr * arr)),
                          (tables.sum_table, cumsum_prefix_sums(arr)),
                          (tables.sumsq_table, cumsum_prefix_sums(arr * arr))):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_build_needs_no_full_size_temporary(self):
        img = random_image(37, 1080, 1920)
        tracemalloc.start()
        try:
            tables = build_sum_tables(img)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - tables.sum_table.nbytes - tables.sumsq_table.nbytes < 2**20


def two_pass(values):
    """Two-pass (mean, variance sum) through whole-array temporaries."""
    mean = float(np.mean(values))
    centred = np.asarray(values, dtype=np.float64) - mean
    return mean, float(np.sum(centred * centred))


def diagonal_copy(block, kind):
    """The D ``kind`` diagonal samples of a square block, copied into a
    contiguous array. The oracle reads strided views instead, so the
    formula's copies check that the view sums keep every bit."""
    return np.ascontiguousarray(np.diagonal(block if kind == "main" else block[::-1]))


def per_shift_map(kind, block, reference, origin, shifts):
    """The oracles as a formula: per in-bounds shift, :func:`two_pass` of
    the window's samples, then ``np.sum((window - mean) * t_c)`` divided by
    the root of the variance sums' product, or a flag."""
    if kind == "full":
        th, tw = block.shape
        t_samples, window_at = block, lambda ys, xs: reference[ys:ys + th, xs:xs + tw]
    else:
        d = block.shape[0]
        t_samples = diagonal_copy(block, kind)
        window_at = lambda ys, xs: diagonal_copy(reference[ys:ys + d, xs:xs + d], kind)
    bounds = _inbounds_ranges(origin, block.shape, reference.shape, shifts)
    du_lo, du_hi, dv_lo, dv_hi = bounds
    x0, y0 = origin
    t_mean, t_var = two_pass(t_samples)
    t_c = t_samples - t_mean
    numerators = np.empty((dv_hi - dv_lo + 1, du_hi - du_lo + 1))
    r_var = np.empty_like(numerators)
    for iv, ys in enumerate(range(y0 + dv_lo, y0 + dv_hi + 1)):
        for iu, xs in enumerate(range(x0 + du_lo, x0 + du_hi + 1)):
            window = window_at(ys, xs)
            mean, r_var[iv, iu] = two_pass(window)
            numerators[iv, iu] = np.sum((window - mean) * t_c)
    ok = (r_var >= EPS_VAR) & (t_var >= EPS_VAR)
    values = np.zeros((shifts.n_dv, shifts.n_du))
    validity = np.full(values.shape, OUT_OF_BOUNDS, dtype=np.uint8)
    inbounds = (slice(dv_lo - shifts.dv_min, dv_hi - shifts.dv_min + 1),
                slice(du_lo - shifts.du_min, du_hi - shifts.du_min + 1))
    values[inbounds] = np.where(ok, numerators / np.sqrt(np.where(ok, r_var * t_var, 1.0)), 0.0)
    validity[inbounds] = np.where(ok, VALID, ZERO_VARIANCE)
    return CorrelationMap(shifts, values, validity)


def assert_oracle_equals_formula(kind, block, reference, origin, shifts):
    if kind == "full":
        got = ncc_full_naive(block, reference, origin, shifts)
    else:
        got = ncc_diag(block, reference, origin, shifts, kind)
    want = per_shift_map(kind, block, reference, origin, shifts)
    np.testing.assert_array_equal(got.validity, want.validity)
    np.testing.assert_array_equal(got.values.view(np.uint64), want.values.view(np.uint64))
    return got


# (x0, y0) of a 16x16 block whose +/-5 shifts stay inside the 64x72
# reference, and of one clipped at each edge.
ORACLE_ORIGINS = {"inside": (28, 24), "left": (2, 24), "right": (54, 24),
                  "top": (28, 2), "bottom": (28, 46)}


class TestOracleLoop:
    """``ncc_full_naive`` and ``ncc_diag`` run their shifts through views of
    the region; each map equals the per-shift formula's bit for bit."""

    @pytest.mark.parametrize("kind", ["full", "main", "anti"])
    @pytest.mark.parametrize("edge", sorted(ORACLE_ORIGINS))
    @pytest.mark.parametrize("ref_layout, block_layout", [
        ("C", "C"), ("F", "F"), ("F", "C"), ("C", "F"), ("rows reversed", "rows reversed")])
    def test_equals_per_shift_formula(self, kind, edge, ref_layout, block_layout):
        reference = laid_out(random_image(39, 64, 72), ref_layout)
        block = laid_out(random_image(40, 16, 16), block_layout)
        cmap = assert_oracle_equals_formula(kind, block, reference, ORACLE_ORIGINS[edge],
                                            ShiftRange.symmetric(5))
        assert (cmap.validity == OUT_OF_BOUNDS).any() == (edge != "inside")

    @pytest.mark.parametrize("kind", ["full", "main", "anti"])
    def test_flat_windows_flag_zero_variance(self, kind):
        # The windows at du, dv in -2..4 lie in the flat patch; the rest do not.
        reference = random_image(41, 64, 72)
        reference[38:60, 38:60] = 0.37
        cmap = assert_oracle_equals_formula(kind, random_image(42, 16, 16), reference, (40, 40),
                                            ShiftRange.symmetric(5))
        flat = np.zeros(cmap.validity.shape, dtype=bool)
        flat[3:10, 3:10] = True
        assert (cmap.validity[flat] == ZERO_VARIANCE).all()
        assert (cmap.validity[~flat] == VALID).all()

    @pytest.mark.parametrize("kind", ["full", "main", "anti"])
    def test_paper_geometry(self, kind):
        reference = random_image(43, 1080, 1920)
        shifts = ShiftRange.symmetric(16)
        for origin in ((896, 476), (1784, 940)):  # inside; clipped at the right and bottom
            x0, y0 = origin
            block = reference[y0 + 3:y0 + 131, x0 - 2:x0 + 126].copy()
            cmap = assert_oracle_equals_formula(kind, block, reference, origin, shifts)
            assert cmap.validity[16 + 3, 16 - 2] == VALID

    @pytest.mark.parametrize("values", [
        random_image(44, 9, 13), np.asfortranarray(random_image(45, 9, 13)),
        random_image(46, 1, 128)[0], [0.25, 0.5, 1.0], np.full((4, 4), 0.37)])
    def test_two_pass_equals_whole_array_two_pass(self, values):
        mean, _, var = _two_pass(np.asarray(values, dtype=np.float64))
        got, want = (mean, var), two_pass(values)
        assert np.array(got).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()


class TestNccFullNaive:
    def test_perfect_match_is_one(self):
        ref = random_image(1, 24, 24)
        block = ref[5:13, 7:15].copy()
        cmap = ncc_full_naive(block, ref, (7, 5), ShiftRange.symmetric(3))
        assert cmap.values[3, 3] == pytest.approx(1.0, abs=1e-9)

    def test_negated_window_is_minus_one(self):
        ref = random_image(2, 20, 20)
        window = ref[4:12, 4:12]
        block = -(window - window.mean())
        cmap = ncc_full_naive(block, ref, (4, 4), ShiftRange(0, 0, 0, 0))
        assert cmap.values[0, 0] == pytest.approx(-1.0, abs=1e-9)

    def test_flat_template_flags_zero_variance(self):
        ref = random_image(3, 20, 20)
        cmap = ncc_full_naive(np.full((6, 6), 0.3), ref, (6, 6), ShiftRange.symmetric(2))
        assert np.all(cmap.validity == ZERO_VARIANCE)

    def test_out_of_bounds_shifts_flagged(self):
        ref = random_image(4, 16, 16)
        block = ref[0:8, 0:8].copy()
        cmap = ncc_full_naive(block, ref, (0, 0), ShiftRange.symmetric(2))
        assert cmap.validity[2 + 0, 2 - 1] == OUT_OF_BOUNDS
        assert cmap.validity[2 - 2, 2 + 0] == OUT_OF_BOUNDS
        assert cmap.validity[2 + 1, 2 + 1] == VALID

    def test_template_larger_than_reference_rejected(self):
        with pytest.raises(ValueError, match="larger"):
            ncc_full_naive(np.zeros((8, 8)), np.zeros((4, 12)), (0, 0), ShiftRange(0, 0, 0, 0))


class TestNccFullFast:
    def test_matches_naive_on_random_cases(self):
        for seed in range(25):
            ref = random_image(100 + seed, 48, 48)
            block = random_image(200 + seed, 16, 16)
            tables = build_sum_tables(ref)
            shifts = ShiftRange.symmetric(8)
            naive = ncc_full_naive(block, ref, (16, 16), shifts)
            fast = ncc_full_fast(block, ref, (16, 16), shifts, tables)
            np.testing.assert_array_equal(naive.validity, fast.validity)
            assert np.abs(naive.values - fast.values).max() <= 1e-9

    def test_shifted_copy_peaks_at_shift(self):
        ref = random_image(5, 32, 32)
        block = ref[9:17, 12:20].copy()  # origin (10, 8) shifted by (2, 1)
        tables = build_sum_tables(ref)
        cmap = ncc_full_fast(block, ref, (10, 8), ShiftRange.symmetric(4), tables)
        best = best_shift(cmap)
        assert (best.du, best.dv) == (2, 1)
        assert best.coeff == pytest.approx(1.0, abs=1e-9)

    def test_table_dimension_mismatch_rejected(self):
        ref = random_image(6, 20, 20)
        tables = build_sum_tables(ref[:10])
        with pytest.raises(ValueError, match="tables"):
            ncc_full_fast(ref[:4, :4], ref, (0, 0), ShiftRange(0, 0, 0, 0), tables)

    def test_fully_out_of_bounds_range(self):
        ref = random_image(7, 16, 16)
        block = ref[0:8, 0:8].copy()
        shifts = ShiftRange(-5, -3, -5, -3)
        full = ncc_full_fast(block, ref, (0, 0), shifts, build_sum_tables(ref))
        diag_tables = build_diag_tables(ref)
        diag = ncc_diag_fast(block, ref, (0, 0), shifts, diag_tables)
        stream = ncc_stream(block, ref, (0, 0), shifts, diag_tables)
        for cmap in (full, diag, stream):
            assert cmap.validity.shape == (shifts.n_dv, shifts.n_du)
            assert np.all(cmap.validity == OUT_OF_BOUNDS)
            assert best_shift(cmap) is None
        assert stream.clamped.dtype == bool
        assert stream.clamped.shape == (shifts.n_dv, shifts.n_du)
        assert not stream.clamped.any()


class TestTableArguments:
    """The three fast kernels share one call form; the tables are checked by type."""

    REF = random_image(8, 24, 24)
    BLOCK = REF[8:16, 8:16].copy()
    SHIFTS = ShiftRange.symmetric(2)
    KERNELS = {"ncc_full_fast": ncc_full_fast, "ncc_diag_fast": ncc_diag_fast,
               "ncc_stream": ncc_stream}
    EXPECTED = {"ncc_full_fast": "SumTables", "ncc_diag_fast": "DiagTables",
                "ncc_stream": "DiagTables"}

    def _call(self, name, *args, **kwargs):
        return self.KERNELS[name](self.BLOCK, self.REF, (8, 8), self.SHIFTS, *args, **kwargs)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_string_tables_rejected(self, name):
        with pytest.raises(TypeError, match=f"expected {self.EXPECTED[name]}, got str"):
            self._call(name, "anti")

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_wrong_table_kind_rejected(self, name):
        wrong = build_diag_tables(self.REF) if name == "ncc_full_fast" else build_sum_tables(self.REF)
        with pytest.raises(TypeError, match=f"expected {self.EXPECTED[name]}, got {type(wrong).__name__}"):
            self._call(name, wrong)

    @pytest.mark.parametrize("name", ("ncc_diag_fast", "ncc_stream"))
    def test_positional_orientation_rejected(self, name):
        with pytest.raises(TypeError):
            self._call(name, build_diag_tables(self.REF, "main"), "anti")

    def test_diag_table_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="tables built for"):
            self._call("ncc_diag_fast", build_diag_tables(self.REF[:20]))

    def test_counter_is_keyword_only(self):
        counter = OpCounter()
        with pytest.raises(TypeError):
            ncc_full_naive(self.BLOCK, self.REF, (8, 8), self.SHIFTS, counter)
        with pytest.raises(TypeError):
            self._call("ncc_full_fast", build_sum_tables(self.REF), counter)
        with pytest.raises(TypeError):
            ncc_diag(self.BLOCK, self.REF, (8, 8), self.SHIFTS, "main", counter)
        assert counter.shifts == 0


class TestBestShift:
    @staticmethod
    def _cmap(values, validity=None):
        values = np.asarray(values, dtype=np.float64)
        if validity is None:
            validity = np.full(values.shape, VALID, dtype=np.uint8)
        n_dv, n_du = values.shape
        shifts = ShiftRange(-(n_du // 2), n_du // 2, -(n_dv // 2), n_dv // 2)
        return CorrelationMap(shifts=shifts, values=values, validity=validity)

    def test_unique_maximum(self):
        values = np.zeros((7, 7))
        values[1, 6] = 0.98  # dv=-2, du=3
        best = best_shift(self._cmap(values))
        assert (best.du, best.dv, best.coeff) == (3, -2, 0.98)

    def test_tie_prefers_smaller_dv(self):
        values = np.zeros((3, 3))
        values[1, 2] = 0.5  # (du=1, dv=0)
        values[2, 1] = 0.5  # (du=0, dv=1)
        best = best_shift(self._cmap(values))
        assert (best.du, best.dv) == (1, 0)

    def test_tie_prefers_smaller_norm(self):
        values = np.zeros((5, 5))
        values[2, 2] = 0.7  # (0, 0)
        values[2, 4] = 0.7  # (2, 0)
        best = best_shift(self._cmap(values))
        assert (best.du, best.dv) == (0, 0)

    def test_tie_prefers_smaller_du(self):
        values = np.zeros((3, 3))
        values[1, 2] = 0.6  # (du=1, dv=0)
        values[1, 0] = 0.6  # (du=-1, dv=0)
        best = best_shift(self._cmap(values))
        assert (best.du, best.dv, best.coeff) == (-1, 0, 0.6)

    def test_flagged_maximum_never_picked(self):
        values = np.zeros((5, 5))
        validity = np.full((5, 5), VALID, dtype=np.uint8)
        values[2, 2] = 0.9  # (0, 0): the largest value, but flagged
        validity[2, 2] = ZERO_VARIANCE
        values[0, 4] = 0.4  # (du=2, dv=-2)
        values[4, 0] = 0.9  # (du=-2, dv=2): ties the flagged value
        validity[4, 0] = OUT_OF_BOUNDS
        best = best_shift(self._cmap(values, validity))
        assert (best.du, best.dv, best.coeff) == (2, -2, 0.4)

    def test_all_flagged_returns_none(self):
        values = np.zeros((3, 3))
        validity = np.full((3, 3), ZERO_VARIANCE, dtype=np.uint8)
        assert best_shift(self._cmap(values, validity)) is None


class TestInvariants:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_coefficients_bounded(self, seed):
        ref = random_image(seed, 24, 24)
        block = random_image(seed + 50_000, 8, 8)
        tables = build_sum_tables(ref)
        cmap = ncc_full_fast(block, ref, (8, 8), ShiftRange.symmetric(4), tables)
        assert np.all(np.abs(cmap.values[cmap.valid_mask]) <= 1.0 + 1e-9)

    @pytest.mark.parametrize("gain,offset", [(0.1, 0.0), (0.5, 0.2), (2.0, -0.1)])
    def test_affine_template_invariance(self, gain, offset):
        ref = random_image(8, 32, 32)
        block = ref[10:18, 10:18].copy()
        shifts = ShiftRange.symmetric(4)
        tables = build_sum_tables(ref)
        base = ncc_full_fast(block, ref, (10, 10), shifts, tables)
        scaled = ncc_full_fast(gain * block + offset, ref, (10, 10), shifts, tables)
        np.testing.assert_array_equal(base.validity, scaled.validity)
        assert np.abs(base.values - scaled.values).max() <= 1e-9
        b0, b1 = best_shift(base), best_shift(scaled)
        assert (b0.du, b0.dv) == (b1.du, b1.dv)

    def test_swap_symmetry_at_zero_shift(self):
        ref = random_image(9, 20, 20)
        block = random_image(10, 8, 8)
        c1 = ncc_full_naive(block, ref, (6, 6), ShiftRange(0, 0, 0, 0)).values[0, 0]
        window = ref[6:14, 6:14].copy()
        c2 = ncc_full_naive(window, block, (0, 0), ShiftRange(0, 0, 0, 0)).values[0, 0]
        assert c1 == pytest.approx(c2, abs=1e-12)


class TestOpCounter:
    @pytest.mark.parametrize("origin, inbounds", [((8, 8), 49), ((1, 14), 30)])
    @pytest.mark.parametrize("pair", ["full", "diag"])
    def test_naive_and_fast_tally_identically(self, pair, origin, inbounds):
        # (1, 14) clips the +/-3 range to du -1..3 and dv -3..2.
        ref = random_image(11, 24, 24)
        x0, y0 = origin
        block = ref[y0:y0 + 8, x0:x0 + 8].copy()
        shifts = ShiftRange.symmetric(3)
        c_naive, c_fast = OpCounter(), OpCounter()
        if pair == "full":
            ncc_full_naive(block, ref, origin, shifts, counter=c_naive)
            ncc_full_fast(block, ref, origin, shifts, build_sum_tables(ref), counter=c_fast)
            per_shift = 64
        else:
            ncc_diag(block, ref, origin, shifts, counter=c_naive)
            ncc_diag_fast(block, ref, origin, shifts, build_diag_tables(ref), counter=c_fast)
            per_shift = 8
        assert c_naive == c_fast
        assert c_naive.shifts == inbounds
        assert c_naive.multiplies == c_naive.adds == inbounds * per_shift

    @pytest.mark.parametrize("kernel", ["full", "full-fast", "diag", "diag-fast"])
    def test_stacked_call_tallies_its_blocks(self, kernel):
        ref = random_image(12, 24, 24)
        origins = [(8, 8), (1, 14), (16, 0)]
        blocks = [ref[y:y + 8, x:x + 8].copy() for x, y in origins]
        shifts = ShiftRange.symmetric(3)
        call = {
            "full": lambda b, o, c: ncc_full_naive(b, ref, o, shifts, counter=c),
            "full-fast": lambda b, o, c: ncc_full_fast(b, ref, o, shifts, build_sum_tables(ref),
                                                       counter=c),
            "diag": lambda b, o, c: ncc_diag(b, ref, o, shifts, counter=c),
            "diag-fast": lambda b, o, c: ncc_diag_fast(b, ref, o, shifts, build_diag_tables(ref),
                                                       counter=c),
        }[kernel]
        per_block, stacked = OpCounter(), OpCounter()
        for block, origin in zip(blocks, origins):
            call(block, origin, per_block)
        call(blocks, origins, stacked)
        assert stacked == per_block
