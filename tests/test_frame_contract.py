"""One ``align`` frame against the frame-level kernel contract.

``estimate_disparity`` hands every block of a frame to one kernel call and
one ``best_shift`` call, looking both up by module-global name at call time,
so a tracer that rebinds those names (as ``perfbench/spans.py`` does) sees
every call. Inputs are validated a fixed number of times per frame, however
many blocks it has. The kernel's maps span only the shifts some block can
keep in bounds. At the paper size each fast method's blocks equal its
oracle's, and noiseless ``stream`` picks ``diag``'s shifts.
"""

import math
import sys

import pytest

from nccalign import alignment, images
from nccalign.alignment import BLOCK_INVALID, METHODS, estimate_disparity, partition_template
from nccalign.cli import main
from nccalign.ncc import OpCounter, ShiftRange

from conftest import csv_body, csv_rows, random_image

SMALL = ["--width", "256", "--height", "256", "--crop", "0"]

# The names perfbench's tracer rebinds in ``nccalign.alignment``, and the
# kernel of each method.
TRACED = ("ncc_diag_fast", "ncc_stream", "build_diag_tables", "best_shift")
KERNELS = {"full": "ncc_full_naive", "full-fast": "ncc_full_fast", "diag": "ncc_diag",
           "diag-fast": "ncc_diag_fast", "stream": "ncc_stream"}


def align(tmp_path, name, *argv):
    out = tmp_path / name
    assert main(["align", *argv, "--out", str(out)]) == 0
    return out


def count_calls(monkeypatch, module, name, calls):
    """Rebind ``module.name`` with a wrapper that records each call's
    keyword names in ``calls[name]``."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.setdefault(name, []).append(sorted(kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("method", METHODS)
def test_validations_do_not_grow_with_blocks(monkeypatch, tmp_path, method):
    """``validate_image`` runs as often in a 64-block frame as in a 16-block
    one, wherever a module bound it."""
    modules = [module for key, module in sys.modules.items()
               if key.startswith("nccalign") and getattr(module, "validate_image", None)
               is images.validate_image]
    counts = {}
    for block in (64, 32):
        calls = {}
        with monkeypatch.context() as patch:
            for module in modules:
                count_calls(patch, module, "validate_image", calls)
            align(tmp_path, f"block-{block}", *SMALL, "--block", str(block), "--method", method)
        counts[block] = len(calls["validate_image"])
    assert counts[32] == counts[64]


@pytest.mark.parametrize("method", METHODS)
def test_traced_names_see_every_frame_call(monkeypatch, tmp_path, method):
    """Rebound as the tracer rebinds them, the kernel and ``best_shift`` see
    one call per frame, the kernel with ``counter`` by keyword, and the
    diagonal methods build their tables once."""
    calls = {}
    for name in set(TRACED) | {KERNELS[method]}:
        count_calls(monkeypatch, alignment, name, calls)
    align(tmp_path, method, *SMALL, "--block", "32", "--method", method)
    assert len(calls[KERNELS[method]]) == 1
    assert "counter" in calls[KERNELS[method]][0]
    assert len(calls["best_shift"]) == 1
    assert len(calls.get("build_diag_tables", [])) == (method in ("diag-fast", "stream"))


def bound_kernel(monkeypatch, method, n_max, seen):
    """Rebind the kernel of ``method`` with a wrapper that records the shift
    range of each call in ``seen`` and fails, before any map is allocated,
    on one wider than ``n_max`` shifts per axis."""
    original = getattr(alignment, KERNELS[method])

    def bounded(blocks, reference, origins, shifts, *args, **kwargs):
        seen.append(shifts)
        assert shifts.n_du <= n_max and shifts.n_dv <= n_max, shifts
        return original(blocks, reference, origins, shifts, *args, **kwargs)

    monkeypatch.setattr(alignment, KERNELS[method], bounded)


@pytest.mark.parametrize("method", METHODS)
def test_search_range_wider_than_image_costs_the_reachable_span(monkeypatch, tmp_path, method):
    """At 64x64 with 16-pixel blocks and no crop, no block keeps a shift
    beyond +-48 in bounds: a +-100000 search hands the kernel at most 97
    shifts per axis and gives the +-48 run's blocks."""
    seen = []
    bound_kernel(monkeypatch, method, 97, seen)
    bodies = []
    for radius in (48, 100000):
        out = align(tmp_path, f"r{radius}", "--width", "64", "--height", "64", "--block", "16",
                    "--crop", "0", f"--search-du=-{radius}:{radius}",
                    f"--search-dv=-{radius}:{radius}", "--method", method, "--noise-mult", "0.1")
        bodies.append(csv_body(out / "disparity.csv"))
    assert bodies[0] == bodies[1]
    assert seen == [ShiftRange.symmetric(48)] * 2


@pytest.mark.parametrize("method", METHODS)
def test_kernel_sees_one_shift_when_none_is_in_bounds(monkeypatch, method):
    """With no shift in bounds for any block, the kernel still runs once, on
    a single out-of-bounds shift, and every block is invalid."""
    image = random_image(52, 64, 64)
    grid = partition_template(image, 16, 0.0)
    seen, counter = [], OpCounter()
    bound_kernel(monkeypatch, method, 1, seen)
    field = estimate_disparity(image, image, grid, method, ShiftRange(49, 1000, -2, 2),
                               counter=counter)
    assert seen == [ShiftRange(49, 49, -2, -2)]
    assert (field.status == BLOCK_INVALID).all() and counter.shifts == 0


# One paper-size frame (1920x1080, block 128, crop 0.10) at +-4.
PAPER = ["--width", "1920", "--height", "1080", "--block", "128", "--crop", "0.10",
         "--search-du=-4:4", "--search-dv=-4:4"]


@pytest.fixture(scope="module")
def paper_blocks(tmp_path_factory):
    root = tmp_path_factory.mktemp("paper")
    blocks = {}
    for method, orientation in (("full", "main"), ("full-fast", "main"), ("diag", "main"),
                                ("diag-fast", "main"), ("diag", "anti"), ("diag-fast", "anti"),
                                ("stream", "main"), ("stream", "anti")):
        out = root / f"{method}-{orientation}"
        noiseless = ["--noise-int", "0"] if method == "stream" else []
        assert main(["align", *PAPER, "--method", method, "--orientation", orientation, *noiseless,
                     "--out", str(out)]) == 0
        blocks[method, orientation] = csv_rows(out / "disparity.csv")
    return blocks


@pytest.mark.parametrize("oracle, fast", [
    (("full", "main"), ("full-fast", "main")),
    (("diag", "main"), ("diag-fast", "main")),
    (("diag", "anti"), ("diag-fast", "anti")),
    (("diag", "main"), ("stream", "main")),
    (("diag", "anti"), ("stream", "anti")),
])
def test_paper_frame_fast_method_equals_oracle(paper_blocks, oracle, fast):
    """Each block's ``du``, ``dv`` and ``status`` equal the oracle's, and its
    ``coeff`` is within 1e-9 of it. Noiseless ``stream`` removes the mean
    with a causal boxcar, not the block mean, so only its coefficients
    differ."""
    want, got = paper_blocks[oracle], paper_blocks[fast]
    assert len(got) == len(want) == 91
    for a, b in zip(want, got):
        for column in ("block_row", "block_col", "du", "dv", "status"):
            assert a[column] == b[column], (column, b["block_row"], b["block_col"])
        if fast[0] == "stream":
            continue
        x, y = float(a["coeff"]), float(b["coeff"])
        assert abs(x - y) <= 1e-9 or (math.isnan(x) and math.isnan(y))

