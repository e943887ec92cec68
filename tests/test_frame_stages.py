"""Per-frame stages that do each whole-image pass once.

The warp samples its rows in one band per usable CPU; the correlation
centres the reference side once for a tuple of images; the diagonal
tables are built only for the orientations a run reads. Each is compared
with the form it replaced: the one-band warp and the ``np.indices``
oracle, one ``global_correlation`` call per image, and the
both-orientation table build.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from nccalign import (
    ShiftRange,
    UndefinedMetricError,
    build_diag_tables,
    global_correlation,
    ncc_diag_fast,
    ncc_stream,
    save_pgm,
)
from nccalign import alignment
from nccalign.alignment import DenseDisparity, warp
from nccalign.cli import _normalized_map
from nccalign.diagonal import ORIENTATIONS

from conftest import random_image
from test_fast_paths import indices_warp


# -- warp bands ------------------------------------------------------------

def _fake_cpus(monkeypatch, n):
    """Make ``nccalign.alignment`` see ``n`` usable CPUs, and count the
    ``map_coordinates`` calls (one per band) it then makes."""
    monkeypatch.setattr(alignment, "os", SimpleNamespace(sched_getaffinity=lambda pid: set(range(n))))
    calls = []
    real = alignment.map_coordinates

    def counted(*args, **kwargs):
        calls.append(kwargs["output"].shape[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(alignment, "map_coordinates", counted)
    return calls


def _warp_case(seed, h, w, reach):
    rng = np.random.default_rng(seed)
    template = rng.random((h, w))
    du, dv = rng.uniform(-reach, reach, (2, h, w))
    return template, du, dv


class TestWarpBands:
    @pytest.mark.parametrize("cpus", (1, 2, 3, 8))
    @pytest.mark.parametrize("h, w, reach", ((1, 9, 3.0), (2, 5, 1.5), (5, 7, 4.0), (24, 19, 8.0), (37, 41, 30.0)))
    def test_equals_one_band_and_oracle(self, monkeypatch, cpus, h, w, reach):
        template, du, dv = _warp_case(1000 * h + w, h, w, reach)
        inputs = (template.copy(), du.copy(), dv.copy())
        with monkeypatch.context() as one:
            _fake_cpus(one, 1)
            want, want_mask = warp(template, DenseDisparity(du=du, dv=dv))
        calls = _fake_cpus(monkeypatch, cpus)
        got, got_mask = warp(template, DenseDisparity(du=du, dv=dv))

        assert len(calls) == min(cpus, h)
        assert max(calls) - min(calls) <= 1
        assert sum(calls) == h
        np.testing.assert_array_equal(got_mask, want_mask)
        np.testing.assert_array_equal(got, want)
        oracle, oracle_mask = indices_warp(template, du, dv)
        np.testing.assert_array_equal(got_mask, oracle_mask)
        np.testing.assert_array_equal(got, oracle)
        for before, after in zip(inputs, (template, du, dv)):
            np.testing.assert_array_equal(before, after)

    def test_cpu_count_without_affinity_api(self, monkeypatch):
        calls = _fake_cpus(monkeypatch, 1)
        monkeypatch.setattr(alignment, "os", SimpleNamespace(cpu_count=lambda: 3))
        template, du, dv = _warp_case(2, 7, 5, 2.0)
        got, got_mask = warp(template, DenseDisparity(du=du, dv=dv))
        assert len(calls) == 3
        oracle, oracle_mask = indices_warp(template, du, dv)
        np.testing.assert_array_equal(got_mask, oracle_mask)
        np.testing.assert_array_equal(got, oracle)

    def test_worker_error_reaches_caller(self, monkeypatch):
        _fake_cpus(monkeypatch, 2)

        def failing(*args, **kwargs):
            raise RuntimeError("band failed")

        monkeypatch.setattr(alignment, "map_coordinates", failing)
        template, du, dv = _warp_case(3, 6, 6, 1.0)
        with pytest.raises(RuntimeError, match="band failed"):
            warp(template, DenseDisparity(du=du, dv=dv))


# -- tuple correlation -----------------------------------------------------

def _error(call):
    with pytest.raises((ValueError, UndefinedMetricError)) as info:
        call()
    return type(info.value), str(info.value)


class TestTupleCorrelation:
    @pytest.mark.parametrize("masked", (False, True))
    def test_bit_identical_to_single_calls(self, masked):
        a1, a2, b = (random_image(seed, 33, 29) for seed in (1, 2, 3))
        a2 = 0.3 * a2 + 0.7 * b
        mask = random_image(4, 33, 29) > 0.3 if masked else None
        got = global_correlation((a1, a2), b, mask)
        assert isinstance(got, tuple)
        assert got == (global_correlation(a1, b, mask), global_correlation(a2, b, mask))
        assert global_correlation((a2,), b, mask) == (got[1],)

    @pytest.mark.parametrize("masked", (False, True))
    def test_inputs_unmodified(self, masked):
        image = random_image(5, 16, 18)
        before = image.copy()
        mask = image > 0.2 if masked else None
        assert global_correlation((image, image), image, mask) == (1.0, 1.0)
        assert global_correlation(image, image, mask) == 1.0
        np.testing.assert_array_equal(image, before)

    @pytest.mark.parametrize("position", (0, 1))
    def test_errors_match_single_call_for_any_image(self, position):
        good = random_image(6, 12, 12)
        b = random_image(7, 12, 12)

        def with_bad(bad):
            images = [good, good]
            images[position] = bad
            return tuple(images)

        flat = np.full((12, 12), 0.5)
        wrong_shape = random_image(8, 12, 13)
        for bad in (flat, wrong_shape):
            single = _error(lambda: global_correlation(bad, b))
            assert _error(lambda: global_correlation(with_bad(bad), b)) == single
        one_pixel = np.zeros((12, 12), dtype=bool)
        one_pixel[3, 4] = True
        single = _error(lambda: global_correlation(good, b, one_pixel))
        assert single[0] is UndefinedMetricError
        assert _error(lambda: global_correlation(with_bad(good), b, one_pixel)) == single

    def test_flat_reference_rejected(self):
        image = random_image(9, 10, 10)
        with pytest.raises(UndefinedMetricError, match="zero variance"):
            global_correlation((image, image), np.full((10, 10), 0.5))


# -- orientation-only diagonal tables --------------------------------------

FIELDS = {"main": ("main_sum", "main_sumsq"), "anti": ("anti_sum", "anti_sumsq")}
SHIFTS = ShiftRange.symmetric(3)


class TestOrientationTables:
    @pytest.mark.parametrize("orientation", ORIENTATIONS)
    def test_equal_to_both_orientation_build(self, orientation):
        ref = random_image(10, 30, 27)
        one = build_diag_tables(ref, (orientation,))
        both = build_diag_tables(ref)
        for name in FIELDS[orientation]:
            np.testing.assert_array_equal(getattr(one, name), getattr(both, name))
        (other,) = set(ORIENTATIONS) - {orientation}
        for name in FIELDS[other]:
            assert getattr(one, name) is None
        assert one.shape == both.shape == ref.shape
        xs, ys = np.meshgrid(np.arange(20), np.arange(22))
        np.testing.assert_array_equal(one.window_var_sum(xs, ys, 6, orientation),
                                      both.window_var_sum(xs, ys, 6, orientation))

    @pytest.mark.parametrize("orientation", ORIENTATIONS)
    def test_unbuilt_orientation_raises_value_error(self, orientation):
        (other,) = set(ORIENTATIONS) - {orientation}
        ref = random_image(11, 24, 24)
        tables = build_diag_tables(ref, (orientation,))
        for lookup in (tables.window_sum, tables.window_sumsq, tables.window_var_sum):
            with pytest.raises(ValueError, match="not built"):
                lookup(2, 3, 5, other)
        block = ref[8:16, 8:16].copy()
        with pytest.raises(ValueError, match="not built"):
            ncc_diag_fast(block, ref, (8, 8), SHIFTS, tables, other)
        with pytest.raises(ValueError, match="not built"):
            ncc_stream(block, ref, (8, 8), SHIFTS, other, tables=tables)

    @pytest.mark.parametrize("orientation", ORIENTATIONS)
    def test_stream_builds_its_orientation_alone(self, orientation):
        ref = random_image(12, 24, 24)
        block = ref[6:14, 9:17].copy()
        own = ncc_stream(block, ref, (9, 6), SHIFTS, orientation)
        given = ncc_stream(block, ref, (9, 6), SHIFTS, orientation, tables=build_diag_tables(ref))
        np.testing.assert_array_equal(own.values, given.values)
        np.testing.assert_array_equal(own.validity, given.validity)

    @pytest.mark.parametrize("orientations", ((), ("sideways",), ("main", "sideways")))
    def test_bad_orientations_rejected(self, orientations):
        with pytest.raises(ValueError):
            build_diag_tables(random_image(13, 8, 8), orientations)


# -- in-place quantisation -------------------------------------------------

def test_quantisation_leaves_input_unmodified(tmp_path):
    image = np.random.default_rng(14).uniform(-0.5, 1.5, (9, 11))
    before = image.copy()
    save_pgm(image, tmp_path / "q.pgm")
    normalized = _normalized_map(image)
    np.testing.assert_array_equal(image, before)
    np.testing.assert_array_equal(normalized, (before - before.min()) / (before.max() - before.min()))
