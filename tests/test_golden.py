"""Golden SHA-256 hashes of the engine's noise bits and of the CLI's output bytes.

A change meant to keep every output the same (a refactor, a deletion, a new
step path) must leave each hash here as it is.  The engine cases hash the raw
float64 bytes of every ``engine_step`` output over a whole horizon, at a
block-path shape (d = 16) and at a slab-path shape (d = 8197, two column slabs
on two CPUs), for gamma-BIFR, BISR, lambda-CGD and identity at two seeds.  The
slab shape is run with one and with two CPUs, and both must give the same bits.
``engine_dense_reference`` is hashed at the block shape.
The CLI cases hash the stdout bytes of each subcommand, and of
``bifr coeffs`` (each ``--which``) for the presets BISR, lambda-CGD at
lambda = 0.6 and 0, and identity.

The hashes were computed with numpy 2.4.6 and scipy 1.17.1 on Python 3.11.
The noise goes through numpy's Philox and ``scipy.special.ndtri``, and the CLI
prints floats with 17 significant digits, so another version of either
library may change a hash without any change in bifr.
"""

import hashlib

import numpy as np
import pytest

from bifr import engine
from bifr.catalog import FactorizationSpec, Method
from bifr.cli import main
from bifr.engine import engine_dense_reference, engine_init, engine_step

N = 8
SCALE = 1.3
BLOCK = 16
SLAB = 2 * engine._SLAB_MIN_DRAWS + 5

SPECS = {
    "gamma-bifr": FactorizationSpec(method=Method.GAMMA_BIFR, n=N, gamma=0.55, bandwidth=4),
    "bisr": FactorizationSpec(method=Method.BISR, n=N, bandwidth=5),
    "lambda-cgd": FactorizationSpec(method=Method.DP_LAMBDA_CGD, n=N, lam=0.6),
    "identity": FactorizationSpec(method=Method.IDENTITY, n=N),
}

ENGINE = {
    ("gamma-bifr", 0, BLOCK): "d512f91182493d461ece8d346e5edcf8fb5553c6b218d4d47160c69f1fa00563",
    ("gamma-bifr", 7, BLOCK): "411fd8816edf9daf5cae41d78932a3ac9da974b7ee1e16146291059c3672d14c",
    ("bisr", 0, BLOCK): "5d3804d156190f2c537a4f73a71a7743b1e7662abcd7e5ee1f965e3cce32bbcc",
    ("bisr", 7, BLOCK): "89b616061db7cc9183216771f459b1628dadacf1d59d8f437267bacf12bda023",
    ("lambda-cgd", 0, BLOCK): "c212db37357970898ddb130bd8b892dce44dc20cd0121cacbd56734814dffaed",
    ("lambda-cgd", 7, BLOCK): "591920c0630a12aba03fa81ff14e4845e1657530cb0349abadfe9d92ec7aad79",
    ("identity", 0, BLOCK): "16a7dc4ac5bd22f966b1e171fe376e61f65568ebdf8b2cb792b33e889d3f8f8a",
    ("identity", 7, BLOCK): "03f9ae807a8bc14c9e23d6b9830e271dad950d04ad9a1400b34dbbaafc3accf8",
    ("gamma-bifr", 0, SLAB): "d84b3ee049d4daf220ce4f47999433159a148e81fb485b6af09ea70272170bd4",
    ("gamma-bifr", 7, SLAB): "b6b2d0eaa6267b941b26b248c5ea03e4b167741eaecb7f6d317acf017bf19ab0",
    ("bisr", 0, SLAB): "7ceb22496a44e2c8ba21614308baee49dc191bccca528cf4645179c2beab91e0",
    ("bisr", 7, SLAB): "95f8f812aca821551b483320c4a329cf1d3889ac12f09f2ecd4fb3b50f68b8bb",
    ("lambda-cgd", 0, SLAB): "52efb4a913460550993f00daf11de3b5e6a01e70b8ec59ef5fcf59712cceac27",
    ("lambda-cgd", 7, SLAB): "84be780f95005a6670ae03b47902ca169e3490b8c6e39625d48fddce9e6aeb56",
    ("identity", 0, SLAB): "6617f69729a532ed642311af718cc4afe457fa1dd76d4e3acf2b43fec5682f3e",
    ("identity", 7, SLAB): "7640192ef0c2da4e27a2d73915a5dc18c2609d2ffac8e1d7f0c457bd7bee4d3c",
}

DENSE = {
    ("gamma-bifr", 0): "aa2e46a5222b8e79e4b47cf47eaff464756447a8462ab12c814279433482c5b3",
    ("gamma-bifr", 7): "d7a76b41fbb9efea4356d347da17e3e67311fa9b99549b4a57fb0158b391b981",
    ("bisr", 0): "f3036151a4324f86bf3b67bdc752e3aeb3cfe9d60f0ef92c12b88111e9e7af62",
    ("bisr", 7): "67563fd4c9cbb666e68a67ee7658fb8abf2e8338d5cd380a0e10b2652010cda8",
    ("lambda-cgd", 0): "f6f80d3075c964062abfc32df20180babab2dd6dc9a6d01a69aa520371383621",
    ("lambda-cgd", 7): "2a2379c3fa645f7050d04bc2d3021004ce1e040e6a1e3e64d5709e4a732e74c8",
    ("identity", 0): "ffcaff7c4a00619dd443cf68a709b860f625511345967e7710ab04239ca0411b",
    ("identity", 7): "a471a30f559c986cf007066b2159311f3f487a6dfbcc8ed8d95305254de7b833",
}

_METHOD = ("--method", "gamma-bifr", "--gamma", "0.55", "--bandwidth", "4")

CLI = {
    "coeffs-strategy": ("coeffs", "--n", "12", *_METHOD, "--which", "strategy"),
    "coeffs-inverse": ("coeffs", "--n", "12", *_METHOD, "--which", "inverse"),
    "coeffs-b": ("coeffs", "--n", "12", *_METHOD, "--which", "b"),
    "rmse": ("rmse", "--n", "64", "--k", "4", *_METHOD, "--epsilon", "1", "--delta", "1e-5"),
    "sweep": ("sweep", "--n", "64", "--k", "2", "--method", "gamma-bifr", "--bandwidth", "4",
              "--param", "gamma", "--grid", "0.1:0.9:0.2"),
    "compare": ("compare", "--n", "64", "--k", "2",
                "--methods", "gamma-bifr,bisr,dp-lambda-cgd,identity,inv-decay,gamma-bfr"),
    "simulate": ("simulate", "--n", "32", "--k", "2", *_METHOD, "--dim", "4",
                 "--trials", "50", "--epsilon", "1", "--delta", "1e-5", "--seed", "3"),
    "verify-quick": ("verify", "--quick"),
    "verify": ("verify",),
    "verify-json": ("verify", "--format", "json"),
    "verify-quick-json": ("verify", "--quick", "--format", "json"),
}  # fmt: skip

PRESETS = {
    "bisr": ("--method", "bisr", "--bandwidth", "5"),
    "lambda-cgd": ("--method", "dp-lambda-cgd", "--lambda", "0.6"),
    "lambda-cgd-0": ("--method", "dp-lambda-cgd", "--lambda", "0"),
    "identity": ("--method", "identity"),
}
CLI.update(
    (f"coeffs-{which}-{name}", ("coeffs", "--n", "12", *argv, "--which", which))
    for name, argv in PRESETS.items()
    for which in ("strategy", "inverse", "b")
)

CLI_SHA = {
    "coeffs-strategy": "b53c1cae00ce5db5c5409c124e324e412e3aef698eb7028776c8c7cf8dd411d5",
    "coeffs-inverse": "a984bbb40b8994451ed8654ea90691a9799cb9958f0fbcf38b3770a784836909",
    "coeffs-b": "235ff618fdbff47a8ae6f19be450c0b4eeaab7355b8c05f20c88d076e6c307ce",
    "rmse": "b2c794e792cf4278702872c9bfd9a9de762e01f369c633d73d25cef14d346d4d",
    "sweep": "29c0bfe43a577cf9471a6e4812be18252f4e2e7c78dbad06a073545c65677dfd",
    "compare": "9e87c4045b84d864530e24fbf9b773d9c55cc281604992fd81cffdb3d9510166",
    "simulate": "3f4ab9136529e2f1db17e1aa508dfe2159b1602ed374620cfd3867759549d78d",
    "verify-quick": "aa8e797b33c789cc5b9abbe532741b28b89dba5f42bdfc92a9d0734173881374",
    "verify": "0bf19b774bf8b11f7ab033bf2310e8d9eaf70d81f4059be010224b308670bd5b",
    "verify-json": "f4c771e97bd9f9623932212acc40269e6cc642758f5d2b342e79e6a3954e1ea8",
    "verify-quick-json": "336fd187f5be1dd2fec9f0438b197b2e2de2cc2030145266278d09f437d61e96",
    "coeffs-strategy-bisr": "ad6290476b31416bbf4d35f2659f773cbbff7abad40c5f013345ca96c3c17340",
    "coeffs-inverse-bisr": "84eccbf0f413582d156e109b014605e6bfbca5a1ca8a2a9364c0883cef055c8e",
    "coeffs-b-bisr": "44542bd2f9b59badba35e3fa28ab558f41ae8897ddb1ecb1d79d0fa30ea92987",
    "coeffs-strategy-lambda-cgd": "8d51e065c3703294366b1f0c185e3eb7ec8b8ed0b3be4618a275e6f9244ac603",
    "coeffs-inverse-lambda-cgd": "bd901e6fc4c5470048f54a0dc9f436666e4577601c690324be7b3758e07c4e08",
    "coeffs-b-lambda-cgd": "362239d3b2a890ce041ee473c7f505a22712e3d78efde525b56976aaaf9774a7",
    "coeffs-strategy-lambda-cgd-0": "6c0e2c01079d0d6e6792bb65e6478aac7a1aa18a005c76316c31c0abe98a601b",
    "coeffs-inverse-lambda-cgd-0": "6c0e2c01079d0d6e6792bb65e6478aac7a1aa18a005c76316c31c0abe98a601b",
    "coeffs-b-lambda-cgd-0": "91641823978860086cf3d7f07d41303be6e83feafc897d0e8d6e2697280fa3da",
    "coeffs-strategy-identity": "6c0e2c01079d0d6e6792bb65e6478aac7a1aa18a005c76316c31c0abe98a601b",
    "coeffs-inverse-identity": "6c0e2c01079d0d6e6792bb65e6478aac7a1aa18a005c76316c31c0abe98a601b",
    "coeffs-b-identity": "91641823978860086cf3d7f07d41303be6e83feafc897d0e8d6e2697280fa3da",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def engine_digest(method: str, seed: int, dim: int) -> str:
    """Hash of every step's output on inputs x_i = i + j/4, j the coordinate."""
    state = engine_init(SPECS[method], dim, SCALE, seed)
    h = hashlib.sha256()
    for i in range(N):
        h.update(engine_step(state, i + 0.25 * np.arange(dim)).tobytes())
    return h.hexdigest()


def dense_digest(method: str, seed: int) -> str:
    return sha256(engine_dense_reference(SPECS[method], BLOCK, SCALE, seed, N).tobytes())


def cli_digest(capsys, argv) -> str:
    assert main(list(argv)) == 0
    return sha256(capsys.readouterr().out.encode())


def _id(key) -> str:
    return "-".join(str(part) for part in key)


@pytest.mark.parametrize("key", [k for k in ENGINE if k[2] == BLOCK], ids=_id)
def test_engine_block_path(key):
    assert engine_digest(*key) == ENGINE[key]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("key", [k for k in ENGINE if k[2] == SLAB], ids=_id)
def test_engine_slab_path(monkeypatch, key, cpus):
    monkeypatch.setattr(engine, "_cpu_count", lambda: cpus)
    assert engine_digest(*key) == ENGINE[key]


@pytest.mark.parametrize("key", list(DENSE), ids=_id)
def test_dense_reference(key):
    assert dense_digest(*key) == DENSE[key]


@pytest.mark.parametrize("name", list(CLI))
def test_cli_stdout(capsys, name):
    assert cli_digest(capsys, CLI[name]) == CLI_SHA[name]
