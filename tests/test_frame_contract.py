"""One ``align`` frame against the frame-level kernel contract.

``estimate_disparity`` hands every block of a frame to one kernel call and
one ``best_shift`` call, looking both up by module-global name at call time,
so a tracer that rebinds those names (as ``perfbench/spans.py`` does) sees
every call. Inputs are validated a fixed number of times per frame, however
many blocks it has. At the paper size each fast method's blocks equal its
oracle's.
"""

import math
import sys

import pytest

from nccalign import alignment, images
from nccalign.alignment import METHODS
from nccalign.cli import main

from conftest import csv_rows

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


# One paper-size frame (1920x1080, block 128, crop 0.10) at +-4.
PAPER = ["--width", "1920", "--height", "1080", "--block", "128", "--crop", "0.10",
         "--search-du=-4:4", "--search-dv=-4:4"]


@pytest.fixture(scope="module")
def paper_blocks(tmp_path_factory):
    root = tmp_path_factory.mktemp("paper")
    blocks = {}
    for method, orientation in (("full", "main"), ("full-fast", "main"), ("diag", "main"),
                                ("diag-fast", "main"), ("diag", "anti"), ("diag-fast", "anti")):
        out = root / f"{method}-{orientation}"
        assert main(["align", *PAPER, "--method", method, "--orientation", orientation,
                     "--out", str(out)]) == 0
        blocks[method, orientation] = csv_rows(out / "disparity.csv")
    return blocks


@pytest.mark.parametrize("oracle, fast", [
    (("full", "main"), ("full-fast", "main")),
    (("diag", "main"), ("diag-fast", "main")),
    (("diag", "anti"), ("diag-fast", "anti")),
])
def test_paper_frame_fast_method_equals_oracle(paper_blocks, oracle, fast):
    """Each block's ``du``, ``dv`` and ``status`` equal the oracle's, and its
    ``coeff`` is within 1e-9 of it."""
    want, got = paper_blocks[oracle], paper_blocks[fast]
    assert len(got) == len(want) == 91
    for a, b in zip(want, got):
        for column in ("block_row", "block_col", "du", "dv", "status"):
            assert a[column] == b[column], (column, b["block_row"], b["block_col"])
        x, y = float(a["coeff"]), float(b["coeff"])
        assert abs(x - y) <= 1e-9 or (math.isnan(x) and math.isnan(y))
