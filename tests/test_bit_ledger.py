"""Bit ledger: SHA-256 of the raw bytes the estimator and the kernels return.

The golden hashes (``test_golden.py``) read CSV values printed to 10
significant digits, so a change in the last bits can pass them. This ledger
hashes the float64 and uint8 bytes themselves:

- ``estimate_disparity``'s ``du``, ``dv``, ``coeff`` and ``status`` for all
  five methods on a small pair, over a crop-0 grid whose edge blocks clip the
  search range, with one flat template block and a flat reference patch;
- the same at the paper frame (1920x1080, block 128, crop 0.10, +-16) for
  ``full-fast``, ``diag-fast`` main and anti, and noiseless and noisy
  ``stream``;
- ``values``, ``validity`` and (stream) ``clamped`` of each kernel's maps for
  five blocks of the small pair, inside, clipped and flat, under two search
  ranges: once as five per-block calls, once as one stacked call;
- the frame stages after the estimate, for the paper ``diag-fast`` frame,
  a 512x512 noisy ``stream`` frame (block 64, +-8) at crop 0 and at crop
  0.10, and a 640x480 ``diag-fast`` frame of one shift, (3, 5), across the
  whole image (block 128, crop 0.10, +-16):
  ``interpolate_disparity``'s ``du`` and ``dv``, ``warp``'s ``out`` and
  ``mask``, the raw bytes of the three PGM files ``align`` writes from them
  (the two maps with ``_normalize=True``, then the 8-bit aligned image),
  and the float64 bits of ``global_correlation((template, warped),
  reference, mask)``, which ``metrics.csv`` prints to only 10 digits.

Every hash was recorded before the kernels took stacked blocks, the stacked
ones as the per-block maps stacked, so a stacked call must return the
per-block bits. A changed hash means the numbers changed: find the cause
rather than re-recording it. The bits depend on numpy and its BLAS, which
round the FFT and the diagonal products; the builds they were recorded with
are in ``RECORDED_WITH``.
"""

import hashlib

import numpy as np
import pytest

from nccalign import (
    MovingAverageConfig,
    NoiseModel,
    ShiftRange,
    SyntheticSpec,
    best_shift,
    build_diag_tables,
    build_sum_tables,
    estimate_disparity,
    fill_invalid,
    global_correlation,
    interpolate_disparity,
    make_synthetic_stereo,
    ncc_diag,
    ncc_diag_fast,
    ncc_full_fast,
    ncc_full_naive,
    ncc_stream,
    partition_template,
    quadrant_pattern,
    save_pgm,
    uniform_pattern,
    warp,
)

RECORDED_WITH = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0"}

NOISY = NoiseModel(multiplier_fraction=0.1, integrator_fraction=0.2, seed=3)
# Loud enough to push some stream values past +-1, so the clamp is covered.
LOUD = NoiseModel(multiplier_fraction=1.0, integrator_fraction=2.0, seed=3)

# name -> (method, estimate_disparity keywords)
METHODS = {
    "full": ("full", {}),
    "full-fast": ("full-fast", {}),
    "diag-main": ("diag", {}),
    "diag-anti": ("diag", {"orientation": "anti"}),
    "diag-fast-main": ("diag-fast", {}),
    "diag-fast-anti": ("diag-fast", {"orientation": "anti"}),
    "stream": ("stream", {}),
    "stream-noisy": ("stream", {"noise": NOISY}),
    "stream-pole-anti": ("stream", {"orientation": "anti", "noise": NOISY,
                                    "ma_config": MovingAverageConfig.single_pole(0.25)}),
}

SMALL_FIELDS = {
    "full": "37c702706893c9690da9a3e7b6bad37246dfd255466bffd1a24d4d56460e6d71",
    "full-fast": "434b9e65481731246fb4d0f4590382abe15562393091288ccd7b55eea4f6cc11",
    "diag-main": "f8be2545b681412a760f995d2e97da8375bc412f9c24fcde7bec0bdad0565d14",
    "diag-anti": "9d89cf2d9529cf3b5ede6191c0b1babddfe7c918dd677318f8ab76f1fc40778b",
    "diag-fast-main": "2bddf579f234b3892ac7df0a2383fb1872f90dcc3cc87c491ba8de5565b93f61",
    "diag-fast-anti": "168dfc276c54ab2d4abadab5a28470fb10300cbfd8127618d07dec09fe06c1b7",
    "stream": "25e634931404f2bba77058225824527d7ef9907397d51ffc0373eb9891c5f785",
    "stream-noisy": "4d8d328727ac56623aa03539b5169035df02c11291777f6967111ffa689cba09",
    "stream-pole-anti": "777f769478ae0f794fc674a94cddaee53b48e0bc539792aaa8e10437a8ac27b4",
}

PAPER_FIELDS = {
    "full-fast": "8f97f5ecfe7ec6609871a0ccc6e223214d004992832e6986e736d1540152b34e",
    "diag-fast-main": "789e46737c72b692e9ffda098a635ad4df1b98fb31e66abaa6bcc119911abdba",
    "diag-fast-anti": "fd7ac07e6b0920360bf1eb6bf4c07d2f5c2d2ea355a9d7735d7733274e52f3e8",
    "stream": "7864185f70bb895cfdfb7d2254b85fc2c0847a0847041eee7a2f38f55c0a8eb6",
    "stream-noisy": "7620a3eae18cbc8700ac4998dec588cdee2b80e68efc99e51fc5a8cd45bdc933",
}

# name -> (interpolate_disparity's du and dv, warp's out and mask, the
# disparity_x, disparity_y and aligned PGM files, and the float.hex of
# corr_before and corr_after)
FRAME_STAGES = {
    "paper-diag-fast": (
        "ba698f339fb975d5d51ebf10a5178f3635ec9f4b35772dc77edfa4bb07d6765b",
        "27a1e527642348488e85f46778b940432b24ac8376789d98691569678e9c767b",
        "bac3becf988ff61aab6728d8c8ae251dff8ca9af27bd42e751763d134e108252",
        ("0x1.04a23eddbf96bp-5", "0x1.d1e4fe394d5c3p-1"),
    ),
    "stream-512": (
        "b8d900149f5ad82cdb10cc975e0ade10b09dc70cbbfa97e2410306dbea5a39df",
        "3b27a1cb9daa58be15e51133c35dbcb78138b70b875f052cb3bea3d2f83a06da",
        "aea055ec41ef55214a9ed5b770abfa2b653bfe2e642b814c685471145afcc40b",
        ("0x1.39bfa106a53c9p-5", "0x1.c8424fa5085a3p-1"),
    ),
    "stream-512-crop": (
        "a5f37753ea8efdec22de4a639a72387000aca47172713cbf869617ac9784861d",
        "05ce13e4527a4e6e5f63b05c848c6cdbb2914b1423d4d461361da0f6e76accd9",
        "3f467bbfe0e15ffe35f621f7b4634af325aa8ee4152410f560cbf93f1020f2a2",
        ("0x1.37b9da5fca492p-5", "0x1.b132fae5d113fp-1"),
    ),
    "uniform-640": (
        "da9a1655d3cb87ca883cef09c534bb911effa8063497a18319c922862841632a",
        "764aa0ec51c260f034730eff7992726beb6557c8bcd47d6859409f641767e0b3",
        "87cbabff91a73ef663a335fc33a52cff6f5893a97bfdc178c3bac825fa081f16",
        ("0x1.048504a354b35p-8", "0x1.fdf9e800fc13bp-1"),
    ),
}

KERNEL_MAPS = {
    "full": (
        "9e768097780b4cfb113872e143d762b34b996b68624d1cbe702b8c231f0cfead",
        "d7fbb8e9024a6c677ec7f3202d70b6f4327fb21853e321c1843cb10bad4f1865",
    ),
    "full-fast": (
        "809d05acf3ab9da3b2329240da647d2f9f71682686525402b6d3cf6f828d780b",
        "851b700aa4e357d48c3f297ad13831063841782cab0b8a1aea41a2c6dc86dd02",
    ),
    "diag-main": (
        "7d2095b80f1bd960d28d567c024e2dc95ac4cb1cb3bfaa73c0e709d2a5245324",
        "f3aa792e02579ca08c036a563279034f5d4f0ebb966cb4fd719ea7c3ad50bb2d",
    ),
    "diag-anti": (
        "19222d7fe90f3a248a097924458d55597b166b945caf523ef92845600a7950d4",
        "0c769f55847c7c29ec973da8a111c06bd84f1a455e984be504e93e6f1a7f200f",
    ),
    "diag-fast-main": (
        "7735b1593a4bf21bf8e847306330043f05070a56643ba3ce54ae82a292065050",
        "7badb591b2f7d1da418d4dc1471cb0cbe9b063fe2dc5032cf1963c66f1b01660",
    ),
    "diag-fast-anti": (
        "a5019a8df797e55767c8dc5f153b5c8cae538a279329b4e8316c36037918541d",
        "2ecd14b4dea1311e6567f5c2831eece5643598885fa52a50d81e4db838092450",
    ),
    "stream-main": (
        "6f1ba308adb0c087e429d34f6686c5071a47955be9aa48dd4c25be8cd944fa82",
        "c507357cdad8f40dc882741e809561fea01e8722e887e96a07cfe58cacaaccfe",
    ),
    "stream-anti": (
        "69cb22b13e2418fc473cf9a559745229c933537fc4fe6f1490b8218f90cf74c1",
        "eb9a84ae00baa0fa86976b7822fe09b60971c06c204b4f2b0fd857f6d0444e27",
    ),
}


def _digest(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _platform() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return (f"numpy {np.__version__}, BLAS {blas}; recorded with numpy "
            f"{RECORDED_WITH['numpy']}, BLAS {RECORDED_WITH['blas']}")


def small_pair():
    """192x160 quadrant pair, a flat 32x32 template block at (32, 32) and a
    flat reference patch that some windows of the block at (96, 64) lie in."""
    spec = SyntheticSpec(width=192, height=160,
                         regions=quadrant_pattern(192, 160, [(3, 2), (-2, 3), (2, -3), (-3, -2)]),
                         texture_seed=11, noise_floor=0.01)
    template, reference, _ = make_synthetic_stereo(spec)
    template[32:64, 32:64] = 0.5
    reference[60:110, 70:130] = 0.25
    return template, reference


@pytest.fixture(scope="module")
def small():
    return small_pair()


@pytest.fixture(scope="module")
def paper():
    spec = SyntheticSpec(width=1920, height=1080,
                         regions=quadrant_pattern(1920, 1080, [(3, 5), (-4, 2), (6, -7), (-2, -6)]),
                         texture_seed=7, noise_floor=0.01)
    template, reference, _ = make_synthetic_stereo(spec)
    return template, reference


def field_digest(template, reference, name, block, crop, radius) -> str:
    method, kwargs = METHODS[name]
    grid = partition_template(template, block, crop)
    field = estimate_disparity(template, reference, grid, method, ShiftRange.symmetric(radius),
                               **kwargs)
    return _digest(field.du, field.dv, field.coeff, field.status)


@pytest.mark.parametrize("name", sorted(SMALL_FIELDS))
def test_small_pair_fields(small, name):
    got = field_digest(*small, name, block=32, crop=0.0, radius=6)
    assert got == SMALL_FIELDS[name], _platform()


@pytest.mark.parametrize("name", sorted(PAPER_FIELDS))
def test_paper_frame_fields(paper, name):
    got = field_digest(*paper, name, block=128, crop=0.10, radius=16)
    assert got == PAPER_FIELDS[name], _platform()


@pytest.fixture(scope="module")
def stream_pair():
    spec = SyntheticSpec(width=512, height=512,
                         regions=quadrant_pattern(512, 512, [(3, 5), (-4, 2), (6, -7), (-2, -6)]),
                         texture_seed=7, noise_floor=0.01)
    template, reference, _ = make_synthetic_stereo(spec)
    return template, reference


@pytest.fixture(scope="module")
def uniform_pair():
    spec = SyntheticSpec(width=640, height=480, regions=uniform_pattern(640, 480, 3, 5),
                         texture_seed=7, noise_floor=0.01)
    template, reference, _ = make_synthetic_stereo(spec)
    return template, reference


# name -> (pair fixture, estimate_disparity name, block, crop, radius)
FRAMES = {
    "paper-diag-fast": ("paper", "diag-fast-main", 128, 0.10, 16),
    "stream-512": ("stream_pair", "stream-noisy", 64, 0.0, 8),
    "stream-512-crop": ("stream_pair", "stream-noisy", 64, 0.10, 8),
    "uniform-640": ("uniform_pair", "diag-fast-main", 128, 0.10, 16),
}


@pytest.mark.parametrize("name", sorted(FRAME_STAGES))
def test_frame_stages(request, tmp_path, name):
    pair, method, block, crop, radius = FRAMES[name]
    template, reference = request.getfixturevalue(pair)
    method, kwargs = METHODS[method]
    grid = partition_template(template, block, crop)
    field = fill_invalid(estimate_disparity(template, reference, grid, method,
                                            ShiftRange.symmetric(radius), **kwargs))
    dense = interpolate_disparity(field, grid, template.shape[::-1])
    warped, mask = warp(template, dense)
    files = hashlib.sha256()
    for image, normalize in ((dense.du, True), (dense.dv, True), (warped, False)):
        path = tmp_path / "out.pgm"
        save_pgm(image, path, _normalize=normalize)
        files.update(path.read_bytes())
    score = global_correlation((template, warped), reference, mask)
    got = (_digest(dense.du, dense.dv), _digest(warped, mask), files.hexdigest(),
           tuple(map(float.hex, score)))
    assert got == FRAME_STAGES[name], _platform()


# Five 32x32 blocks of the small pair: inside, clipped at the top left,
# clipped at the bottom right, the flat template block, and the block whose
# windows reach into the flat reference patch.
ORIGINS = [(80, 64), (0, 0), (160, 128), (32, 32), (96, 64)]
# Under the second range the bottom-right block has no shift in bounds.
RANGES = [ShiftRange.symmetric(6), ShiftRange(2, 8, -3, 3)]
BLOCK_ID = 5


def kernel_call(name, template, reference, origins):
    """A kernel call of ``name`` on the blocks at ``origins``: a list of
    (x, y) makes one stacked call, a single (x, y) a per-block call. Returns
    a function of the shift range."""
    stacked = isinstance(origins, list)
    blocks = ([template[y:y + 32, x:x + 32] for x, y in origins] if stacked
              else template[origins[1]:origins[1] + 32, origins[0]:origins[0] + 32])
    block_id = BLOCK_ID + (0 if stacked else ORIGINS.index(origins))
    if name == "full":
        return lambda shifts: ncc_full_naive(blocks, reference, origins, shifts)
    if name == "full-fast":
        tables = build_sum_tables(reference)
        return lambda shifts: ncc_full_fast(blocks, reference, origins, shifts, tables)
    kind, orientation = name.rsplit("-", 1)
    if kind == "diag":
        return lambda shifts: ncc_diag(blocks, reference, origins, shifts, orientation)
    tables = build_diag_tables(reference, orientation)
    if kind == "diag-fast":
        return lambda shifts: ncc_diag_fast(blocks, reference, origins, shifts, tables)
    return lambda shifts: ncc_stream(blocks, reference, origins, shifts, tables, noise=LOUD,
                                     block_id=block_id)


def map_arrays(cmap):
    arrays = [cmap.values, cmap.validity]
    return arrays if cmap.clamped is None else arrays + [cmap.clamped]


@pytest.mark.parametrize("name", sorted(KERNEL_MAPS))
def test_kernel_maps(small, name):
    per_block = [array for shifts in RANGES for origin in ORIGINS
                 for array in map_arrays(kernel_call(name, *small, origin)(shifts))]
    stacked_call = kernel_call(name, *small, ORIGINS)
    stacked = [array for shifts in RANGES for array in map_arrays(stacked_call(shifts))]
    assert (_digest(*per_block), _digest(*stacked)) == KERNEL_MAPS[name], _platform()


@pytest.mark.parametrize("name", sorted(KERNEL_MAPS))
def test_stacked_best_shift_is_per_block(small, name):
    """``best_shift`` of a stacked map returns each block's per-block result."""
    for shifts in RANGES:
        stacked = best_shift(kernel_call(name, *small, ORIGINS)(shifts))
        assert stacked == [best_shift(kernel_call(name, *small, origin)(shifts))
                           for origin in ORIGINS]
