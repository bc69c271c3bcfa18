"""Byte-level pins of the CLI's stdout documents.

Each invocation's stdout is hashed with SHA-256 and compared against a hash
recorded from a known-good build.  A refactor that keeps the documented
schema but moves a single byte (float formatting, row order, column keys,
metadata) fails here.  Re-record a hash only when a document is meant to
change, and say so in the change log.
"""

import hashlib
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner
from numpy._core._multiarray_umath import __cpu_features__

import freqborn
from freqborn.cli import main

THREE_LEVEL = "0.6,0.6,0.5291502622129181"
# The kernel's exp and log round some weights differently on numpy's AVX-512
# loops, so five decompose documents carry one hash per path, chosen by the
# path numpy reports it runs on.
AVX512 = __cpu_features__["AVX512_SKX"]

GOLDEN = {
    "decompose-two-level-csv": (
        ["decompose", "--a2", "0.3", "--n", "40"],
        "630d0250529c0ff086dc76c80a5c392325c9756cb682f718ff943fa253b7326e" if AVX512
        else "17ba980127456c3c0916c2c0051efd6cfe501f9ab436c3e1d7c9c78a6ae3cd97",
    ),
    "decompose-two-level-json": (
        ["decompose", "--a2", "0.3", "--n", "40", "--format", "json"],
        "c9322df1695385ceeb46b4d71f149110384cefd8849224fc4e4639599334f034" if AVX512
        else "6dcac480f23498fb15fdc6105f606f8367af8955a72ec7967dcc3d26cabd1e4f",
    ),
    "decompose-a2-zero-csv": (
        ["decompose", "--a2", "0.0", "--n", "12"],
        "7da4c8aa9f975ead5607247d9233fbff90da9701a10b49a5cef7ec83b30e84de",
    ),
    "decompose-a2-zero-json": (
        ["decompose", "--a2", "0.0", "--n", "12", "--format", "json"],
        "bf5a3a8eada6b5da8532b34f8fa106be43d33b5d487f9d4d38cc8de877ef85df",
    ),
    "decompose-complex-amps-json": (
        ["decompose", "--amps", "0.6,0.8i", "--n", "9", "--format", "json"],
        "be4980916431eb103dc83c4fab0e147d33973657c549b0c8d306bc542fb47c4c" if AVX512
        else "d32707cb8002f1323f8625ee68516c9953dbef869e9cdbfd514b6a898f88e0cf",
    ),
    "decompose-dead-level-csv": (
        ["decompose", "--amps", "0.6,0,0.8", "--n", "5"],
        "de5337a9ff8986cd26f814a011f2b1e57205b64e616a9c9243b12b053161e927",
    ),
    "decompose-dead-level-json": (
        ["decompose", "--amps", "0.6,0,0.8", "--n", "5", "--format", "json"],
        "8b90e754b42408b7a2e7c8d1693ae3ecc2945ae8bfab43ba604af87df8d1f5a6",
    ),
    "decompose-a2-negative-zero-csv": (
        ["decompose", "--a2", "-0.0", "--n", "3"],
        "dae443d20e407c24d77c0e7b1fabdc005ae47540e50dfbc7276f2558c3f67194",
    ),
    "decompose-three-level-csv": (
        ["decompose", "--amps", THREE_LEVEL, "--n", "7"],
        "ad866768646538208aa9d91acc60e9adab0674f0188a2effe95c357b086dc021" if AVX512
        else "8c705ccfad508a19e5fa7ef43f8f7209dfc6474b6c8a7752b2f564768b68bcb5",
    ),
    "decompose-three-level-json": (
        ["decompose", "--amps", THREE_LEVEL, "--n", "7", "--format", "json"],
        "b533d215fe44524b4430ee79186e4439f3361678f30097d7a6487f5c423112ae" if AVX512
        else "6694d2d67cd1f9ca3ae0585b73332ddeea75464a0bc21e5bfdabf38fdcba8c86",
    ),
    "scan-csv": (
        ["scan", "--a2", "0.3", "--eps", "0.05", "--ns", "10,100,1000,10000"],
        "fadb1f8ffcefc99dbeccd5c99bceba707696b658ba244349ace4372666119f14",
    ),
    "bound-csv": (
        ["bound", "--a2", "0.3", "--n", "100", "--eps", "0.1"],
        "a0871e597d7eb49729bade5bd57d16411f8291cb6bd4abaa2f5546472e84a6cc",
    ),
    "cv-csv": (
        ["cv", "--wavefunction", "psi.csv", "--region", "0:0.25", "--n", "1000", "--eps", "0.05", "--renormalize"],
        "406ab388ff69dfbcec4bf27805d4a83f317213873b0a9c8ac3ae9cdc7789ea05",
    ),
    "finite-run-csv": (
        ["finite-run", "--a2", "0.3", "--n-inner", "20", "--observed", "9", "--outer", "50", "--eps", "0.05"],
        "a878e75519e3e8652fde1607cea40fc0be7066326d5f4b36e171f1addacfd99b",
    ),
    "finite-run-json": (
        ["finite-run", "--a2", "0.3", "--n-inner", "20", "--observed", "9", "--outer", "50", "--eps", "0.05", "--format", "json"],
        "4be8642367367bf90f3629493a4a0e4139cb6a4196de46b84636896036567b2e",
    ),
    "oracle-check-two-level-csv": (
        ["oracle-check", "--a2", "0.3", "--n", "10"],
        "4833f141bd36a3dd304cc3ba3208e9536964036638ef3ecba2f4231638c97d03",
    ),
    "oracle-check-three-level-csv": (
        ["oracle-check", "--amps", THREE_LEVEL, "--n", "6"],
        "427e0215d02af5a283edaa07c957fd87e819438c7446f5557b9cda1852d85878",
    ),
}


def write_wavefunction(path):
    # a smooth complex profile on 200 uniform points, left unnormalized for --renormalize
    lines = ["x,re,im"]
    for k in range(200):
        x = k / 200
        lines.append(f"{x!r},{x * (1.0 - x)!r},{0.25 * x!r}")
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_document_bytes_match_recorded_hash(name, tmp_path, monkeypatch):
    args, expected = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    write_wavefunction(tmp_path / "psi.csv")
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == expected


def test_reductions_print_the_same_bytes_under_another_blas_core(tmp_path):
    # At N = 10**6 moments reduced by OpenBLAS ddot print mean_r ...386 and variance_r
    # ...464e-08 on its SkylakeX core but ...385 and ...467e-08 on its Haswell core
    # (also the one picked on AMD Zen); an exactly rounded sum prints one set of bits.
    write_wavefunction(tmp_path / "psi.csv")
    args = ["cv", "--wavefunction", "psi.csv", "--region", "0:0.25", "--n", "1000000", "--eps", "0.05", "--renormalize"]
    src = os.path.dirname(os.path.dirname(freqborn.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    env.pop("OPENBLAS_CORETYPE", None)
    documents = []
    for core in (None, "Haswell"):
        child_env = env if core is None else {**env, "OPENBLAS_CORETYPE": core}
        child = subprocess.run([sys.executable, "-m", "freqborn.cli", *args], cwd=tmp_path, env=child_env,
                               capture_output=True, check=True)
        documents.append(child.stdout)
    assert documents[0] == documents[1]
