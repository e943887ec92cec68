"""Golden-output regression test for ``nccalign align``.

Small synthetic runs go through ``cli.main`` in-process, one per method and
noise setting, some over a search range that edge blocks only partly keep
in bounds. The SHA-256 of each output body (``#`` header lines stripped)
must equal the recorded hash. The first three were recorded before the
per-frame fast paths (region-only validation, strided diagonal gather,
separable interpolation, ``map_coordinates`` warp) went in, the
``full-fast-odd-top-left`` entry before the window statistics were read as
rectangle slices, the two ``diag-fast-hd`` entries (the paper workload, where
the diagonal numerators sum the most products) before those numerators were
read through a strided view instead of a copy, the two ``stream-anti``
entries before the stream front end read its window samples through that
same view (flipped to sample order for the anti-diagonal), the others
before the kernels were moved onto one shared flag/divide/scatter tail, so
later performance and design work keeps the outputs byte-identical. A
changed hash means the numbers changed: find the cause rather than
re-recording it.

The hashes were recorded with numpy 2.4 and OpenBLAS on x86-64; another BLAS
may round the diagonal numerators differently.
"""

import hashlib

import pytest

from nccalign.cli import main
from nccalign.streaming import _front_ends, _stream_draws

PAIR = [
    "--width", "192", "--height", "160", "--pattern", "quadrant:3,2:-2,3:2,-3:-3,-2",
    "--noise-floor", "0.01", "--gen-seed", "11",
]
ALIGN = ["--block", "32", "--crop", "0.1", "--search-du=-6:6", "--search-dv=-6:6"]
# A range wider than the pair: edge blocks keep only part of it in bounds,
# so the kernels' scatter into a partial slice of the map is checked too.
CLIPPED = ["--search-du=-40:40", "--search-dv=-2:30"]
# An odd-sized pair with 24-pixel blocks, whose search ranges clip at the
# left and the top edge: the window-statistic rectangles of edge blocks
# start at the reference's first row or column.
ODD_TOP_LEFT = ["--width", "203", "--height", "149", "--block", "24",
                "--search-du=-30:4", "--search-dv=-30:5"]

# The paper workload: a 1920x1080 quadrant pair, 128-pixel blocks, crop
# 0.10 and ±16, where each diagonal numerator sums 128 products.
HD = ["--width", "1920", "--height", "1080", "--pattern", "quadrant:3,5:-4,2:6,-7:-2,-6",
      "--gen-seed", "7", "--block", "128", "--search-du=-16:16", "--search-dv=-16:16"]

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
    "full": (
        ["--method", "full"],
        {
            "disparity.csv": "3a924099c6710c90cb76401488dc7b94ca57a5816a8a1f7ac57958605953c528",
            "metrics.csv": "416d4aa18ed512fe982016bff0749eff528c07303d396c9af629aca155c69cc8",
            "disparity_x.pgm": "11fe3cf907e3c702451f1b04a8f5c280176d6c509b33456c0aef9a55e0dc9386",
            "disparity_y.pgm": "885fdb5388845ec8d57eef76a17d83fe2c50465ba710ebdfde07d1f7d5ad6916",
            "aligned.pgm": "3d6ea64e19d329be61e2f2aa8344b0b27e801616c23fc9713c0021af68da7f66",
        },
    ),
    "full-fast": (
        ["--method", "full-fast"],
        {
            "disparity.csv": "3a924099c6710c90cb76401488dc7b94ca57a5816a8a1f7ac57958605953c528",
            "metrics.csv": "416d4aa18ed512fe982016bff0749eff528c07303d396c9af629aca155c69cc8",
            "disparity_x.pgm": "11fe3cf907e3c702451f1b04a8f5c280176d6c509b33456c0aef9a55e0dc9386",
            "disparity_y.pgm": "885fdb5388845ec8d57eef76a17d83fe2c50465ba710ebdfde07d1f7d5ad6916",
            "aligned.pgm": "3d6ea64e19d329be61e2f2aa8344b0b27e801616c23fc9713c0021af68da7f66",
        },
    ),
    "diag-main": (
        ["--method", "diag"],
        {
            "disparity.csv": "3b2d71a81b6d1186dddc9dc7673a7a47a9f65be93d50f128b016a53509302ddc",
            "metrics.csv": "d441dd2f4f410c75f080e5c5ac682f4055da51cc377216292b6276e5ddc4c07c",
            "disparity_x.pgm": "de911537825eccefcbd6b493b48734a5f43c7fe160e07eb4b3a4058d0bd43e13",
            "disparity_y.pgm": "7efa84f5ace7cb2f2923b8b97dbcf29cc57f3c13ba06701ccaa748dd45e2d6bd",
            "aligned.pgm": "1c877343b5e90f1da607335579f47ac0a26fb588bd7ccd6728c41b2e351476cd",
        },
    ),
    "stream-noiseless": (
        ["--method", "stream", "--noise-int", "0"],
        {
            "disparity.csv": "3053aa1b38d8146168f0ce62001df7a5f259856179dbd77cba916fb9609d9bb8",
            "metrics.csv": "d441dd2f4f410c75f080e5c5ac682f4055da51cc377216292b6276e5ddc4c07c",
            "disparity_x.pgm": "de911537825eccefcbd6b493b48734a5f43c7fe160e07eb4b3a4058d0bd43e13",
            "disparity_y.pgm": "7efa84f5ace7cb2f2923b8b97dbcf29cc57f3c13ba06701ccaa748dd45e2d6bd",
            "aligned.pgm": "1c877343b5e90f1da607335579f47ac0a26fb588bd7ccd6728c41b2e351476cd",
        },
    ),
    "stream-pole": (
        ["--method", "stream", "--ma", "pole:0.25", "--noise-mult", "0.05"],
        {
            "disparity.csv": "11dcef8295b3e1b10805b33724235aa7287407d19fe33fdcad1963e2a7d570f8",
            "metrics.csv": "bce39b819cd72d464b11d4b01b8a52547c8eecccd3dd4366ed96e5e086d1b2b4",
            "disparity_x.pgm": "0491e262661aa1ca5defab5b7f1e42ad958305048cb6a85e549098337356af66",
            "disparity_y.pgm": "6662d9a2217bc731195d9915555110e5fb380eed9907b21e9e389f275134df8c",
            "aligned.pgm": "154c1a8f48c2408163bd94e3dddcfae3a88b3d2039c6b4fb814eff70cb8d86e1",
        },
    ),
    "diag-fast-clipped": (
        ["--method", "diag-fast", *CLIPPED],
        {
            "disparity.csv": "0478b9dccd111bdc85c7aa450e1f679e89adad074877c4cca37425172b459b63",
            "metrics.csv": "7d773cb9267c7736c0e72b4bd48f7d654751349afab45ab4351e435c433ca881",
            "disparity_x.pgm": "11fa9121dfecf09b9a1518f439698fe9ec88f32e2959da9a3aa3b3c577daa83a",
            "disparity_y.pgm": "5db1a59329c2263c34ba684df5a76c63aa8bded19e29d3973db37b18724dfea5",
            "aligned.pgm": "0c0d054b711559763a278fb9f828949d4986da94f84fe22aeea7d2e812f1afd7",
        },
    ),
    "full-fast-clipped": (
        ["--method", "full-fast", *CLIPPED],
        {
            "disparity.csv": "c5bcc55ac325ef467f9026977e96120952746dd4afa65989e3bb6ece92cb8a02",
            "metrics.csv": "f75af38d0cf6d85eff3f81604c6f2f65fae40a7eac19711cd698e4dc925cac00",
            "disparity_x.pgm": "11fe3cf907e3c702451f1b04a8f5c280176d6c509b33456c0aef9a55e0dc9386",
            "disparity_y.pgm": "535d1b906813cf30a0ce9de91519982ad03067163f264d9fdc0842628d68cbec",
            "aligned.pgm": "0c4dba5051c84765c2744780f11b1d3c148026ad41b7a4b7a16fb4352ed0180d",
        },
    ),
    "full-fast-odd-top-left": (
        ["--method", "full-fast", *ODD_TOP_LEFT],
        {
            "disparity.csv": "80f442c1e5d407b1ede498c9ef809b9b419a5bef20ebeb65f6488ad3fb8b880a",
            "metrics.csv": "57fe28dd5d09a87140b8a61918a83134aa1b77cbb8c31e5a22618d19a5f44652",
            "disparity_x.pgm": "3611b257a132601808d9a55904abeb604e4dcb4444972ac489aa63e592157fe5",
            "disparity_y.pgm": "1bdae7d07d83d514277eb1ba2beda71672a67f293ca4b68be5ecca85cb4a7ab8",
            "aligned.pgm": "a52b438e5867eb9bc72e73e892938cefa41704b4f8a6964c702b2396207b026e",
        },
    ),
    "stream-noisy-clipped": (
        ["--method", "stream", "--noise-mult", "0.1", "--noise-int", "0.2", *CLIPPED],
        {
            "disparity.csv": "5a64e44f1bc8090afd6bbf7bd1e372650766cbf8feb1ac451488efbe6ebbe885",
            "metrics.csv": "66d3d4b8e93789e5fffcb0ea076008203e5c502af13ad78c9b27c734042e46ca",
            "disparity_x.pgm": "fae6e7908e010cd6457dbab4fe19d2d67743244c073752fdcc5473e35dcb5f9c",
            "disparity_y.pgm": "7149a6911c69b47ec50f67e0cb812247dd95de6fe34ce4fbf963e2c4771d03e9",
            "aligned.pgm": "3094b568490c7a2866fde16a30e2abc04f5358012b29fdf1a9cfaea2df90a4d9",
        },
    ),
    "stream-anti": (
        ["--method", "stream", "--orientation", "anti", "--noise-mult", "0.1", "--noise-int", "0.2"],
        {
            "disparity.csv": "83a75c30f3085a0692de4e7578216d8a56d472ba3b614d531b7e84f57b72e83e",
            "metrics.csv": "e18912a24ce634c306ad16dc2b24669cd9030fc2d17e6b24c6104cb8b3c0e459",
            "disparity_x.pgm": "6fd2ad894f16c2681015cd4a09903ba8b30f55ba277a9e6e700d07b43b074b7b",
            "disparity_y.pgm": "60c8ba3f72a4c95fdd5757047bccf5246904e47c2d0193f8b5daea8c26dbd331",
            "aligned.pgm": "43a5ffd61c79b919bf12cb68bb578535714009dab5881c943bcac552e9fc09ea",
        },
    ),
    "stream-anti-clipped": (
        ["--method", "stream", "--orientation", "anti", "--noise-mult", "0.1", "--noise-int", "0.2",
         *CLIPPED],
        {
            "disparity.csv": "c899eddfaa32edfe00c99522cf4fc3f813d82e91ff999e29eb4a5228d53ed95d",
            "metrics.csv": "c212d3744fabd67710672aeec29b4f78cffbfe50026eb7fa7f8322ade313afda",
            "disparity_x.pgm": "0e43ba140ace4846f091478c0b3d81df4ef1760058057186c72e02054877492a",
            "disparity_y.pgm": "61cbbd706fb50c64014d734367a511bb8c6aa63a4b5f3e3b0b373c0258900299",
            "aligned.pgm": "95c473e6e9e8dfe686c42881b67b8fe957deda0d50cc989ba1ed06117eb1372c",
        },
    ),
    "diag-fast-hd-main": (
        ["--method", "diag-fast", *HD],
        {
            "disparity.csv": "4f893d2c85bf45fa40002640ea98f442add94ea41a0ed2a9167237ce32f5469c",
            "metrics.csv": "d61f5259cc769f73bb8696d4cec5cd635cdc361ae8616c115c7168f3588c5e92",
            "disparity_x.pgm": "b539c86ed0262d5031fcc99ffd1e578943d38b297e2745983929d5f1b5066fd6",
            "disparity_y.pgm": "547dea068f067ac87169864a4613bb21ef25b507c47ec53c8fe8f1f2412e189b",
            "aligned.pgm": "596401ec2800b3f8ea7dd145c52fc953df142841b3a3f1069cc55c03e29251f6",
        },
    ),
    "diag-fast-hd-anti": (
        ["--method", "diag-fast", "--orientation", "anti", *HD],
        {
            "disparity.csv": "a980839a1ba4463b7a2b5eb119912c165ebdcb0ae2ee1daeb9ae87374d77c55f",
            "metrics.csv": "d61f5259cc769f73bb8696d4cec5cd635cdc361ae8616c115c7168f3588c5e92",
            "disparity_x.pgm": "b539c86ed0262d5031fcc99ffd1e578943d38b297e2745983929d5f1b5066fd6",
            "disparity_y.pgm": "547dea068f067ac87169864a4613bb21ef25b507c47ec53c8fe8f1f2412e189b",
            "aligned.pgm": "596401ec2800b3f8ea7dd145c52fc953df142841b3a3f1069cc55c03e29251f6",
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


@pytest.mark.parametrize("name", sorted(name for name in GOLDEN if name.startswith("stream")))
def test_stream_outputs_match_golden_hashes_cold_and_warm(tmp_path, capsys, name):
    # The second run reads its noise draws and its block front ends from the
    # caches the first filled.
    flags, expected = GOLDEN[name]
    _stream_draws.cache_clear()
    _front_ends.clear()
    for run in ("cold", "warm"):
        out = tmp_path / run
        assert main(["align", *PAIR, *ALIGN, *flags, "--out", str(out)]) == 0
        assert {output: body_sha256(out / output) for output in expected} == expected
