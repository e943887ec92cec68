"""Golden-output regression test for ``nccalign align``.

Three small synthetic runs go through ``cli.main`` in-process. The SHA-256
of each output body (``#`` header lines stripped) must equal the hash
recorded before the per-frame fast paths (region-only validation, strided
diagonal gather, separable interpolation, ``map_coordinates`` warp) went in,
so later performance work keeps the outputs byte-identical. A changed hash
means the numbers changed: find the cause rather than re-recording it.

The hashes were recorded with numpy 2.4 and OpenBLAS on x86-64; another BLAS
may round the diagonal numerators differently.
"""

import hashlib

import pytest

from nccalign.cli import main

PAIR = [
    "--width", "192", "--height", "160", "--pattern", "quadrant:3,2:-2,3:2,-3:-3,-2",
    "--noise-floor", "0.01", "--gen-seed", "11",
]
ALIGN = ["--block", "32", "--crop", "0.1", "--search-du=-6:6", "--search-dv=-6:6"]

GOLDEN = {
    "diag-fast-main": (
        ["--method", "diag-fast"],
        {
            "disparity.csv": "3b2d71a81b6d1186dddc9dc7673a7a47a9f65be93d50f128b016a53509302ddc",
            "metrics.csv": "d441dd2f4f410c75f080e5c5ac682f4055da51cc377216292b6276e5ddc4c07c",
            "disparity_x.pgm": "de911537825eccefcbd6b493b48734a5f43c7fe160e07eb4b3a4058d0bd43e13",
            "disparity_y.pgm": "7efa84f5ace7cb2f2923b8b97dbcf29cc57f3c13ba06701ccaa748dd45e2d6bd",
            "aligned.pgm": "1c877343b5e90f1da607335579f47ac0a26fb588bd7ccd6728c41b2e351476cd",
        },
    ),
    "diag-fast-anti": (
        ["--method", "diag-fast", "--orientation", "anti"],
        {
            "disparity.csv": "a9d26a99e65523c52cd4a9a0727537f0676dcc1bc1b842aab4c639ae876c379d",
            "metrics.csv": "e31109af15655195635bbef6393a9ddae5119c002c79eff9a87e3acbb787f370",
            "disparity_x.pgm": "63488e044f25031e582d07697cb7058cbb9e8ffbdcaa985b72fbad13c93d283e",
            "disparity_y.pgm": "84ae941bb56dbd8c002b7219c941111ec67216bc2eb3e7fad862d4ce8925c24b",
            "aligned.pgm": "8bc24957a9e597169746ec39654e77d6dd65613b42362c43aa8b6661a7210d34",
        },
    ),
    "stream-noisy": (
        ["--method", "stream", "--noise-mult", "0.1", "--noise-int", "0.2"],
        {
            "disparity.csv": "d5ec0096c88a53f662d9fa3c515ef6044e2bbbbbb74b49c7d97a6d1d2863da1c",
            "metrics.csv": "322a4e48595f94ce121a30acb9dfa40e2c74c606ffe620933d1c13577ac66271",
            "disparity_x.pgm": "3e5ed7c7b9afe3787c1e74ff212222b2a2a8a0feb00d4d2d9c13fe154812c124",
            "disparity_y.pgm": "86fdd6b442ec2e0efe19715c56c9d1dfa1e2d58aba7ab7192918db822111cbd2",
            "aligned.pgm": "ec7df32ef9acbfbc2f49b9d3a8568d94d7264db105aa2dc5a9adfd667531c416",
        },
    ),
}


def body_sha256(path) -> str:
    lines = path.read_bytes().splitlines(keepends=True)
    return hashlib.sha256(b"".join(line for line in lines if not line.startswith(b"#"))).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_align_outputs_match_golden_hashes(tmp_path, capsys, name):
    flags, expected = GOLDEN[name]
    assert main(["align", *PAIR, *ALIGN, *flags, "--out", str(tmp_path)]) == 0
    got = {output: body_sha256(tmp_path / output) for output in expected}
    assert got == expected
