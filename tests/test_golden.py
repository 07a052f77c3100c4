"""Golden sha256 digests of the CLI's output files.

Every subcommand runs on the inputs of acceptance criterion 10,
``estimate`` also runs on a T=50, Q=10 chain lattice, once per estimator
and loss, and on a T=40, Q=12 bigram-decoder lattice, whose composition
extrapolates repeated search levels, ``sample`` also draws 10,000 paths
on a decoder where two edge paths carry the same words, and ``train``
also runs with three dev utterances, once per loss.  A change that moves
any output bit fails here; such a change must refresh the digest in the
commit that makes it and say why in CHANGES.md.  The digests hold for
IEEE-754 doubles with numpy's default SIMD kernels on x86-64.  They do
not depend on the BLAS kernel or its thread count, as no output path
calls BLAS; a child process per OpenBLAS setting checks that.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sampled_mbr import chain_decoder_graph, format_fst_text
from sampled_mbr.cli import main

from helpers import bigram_decoder, format_logits_csv, word_chain_decoder

CONFIG = (
    "steps = 6\nsamples_per_step = 25\nseed = 1\neval_interval = 3\n"
    "vocab_size = 2\nframes = 3\nclusters = 2\nfeature_dim = 3\n"
    "num_utterances = 12\nnoise = 0.2\n"
)
# Three dev utterances on a 27-path lattice whose third symbol outputs no
# word, so distinct paths share output words and word-edit losses.
DEV_CONFIG = (
    "steps = 6\nsamples_per_step = 25\nseed = 1\neval_interval = 3\n"
    "vocab_size = 2\nframes = 3\nclusters = 3\nfeature_dim = 3\n"
    "num_utterances = 30\nnoise = 0.2\n"
)

GOLDEN = {
    "estimate": {
        "est.json": (
            "917b4cbc84fe8c48edf9dcee31a5e26f"
            "e3f459596f395f65768d68ef0c913d4c"
        ),
    },
    "gradcheck": {
        "gc.txt": (
            "96ae9a51348e4d20ac9794530dc0d14f"
            "7688417e42e93f89687f918a2353f340"
        ),
    },
    "sample": {
        "hist.txt": (
            "eaab64248aba55f1e40d76d5546e7662"
            "650e9befd261628717672519563074a9"
        ),
    },
    "sample-shared": {
        "hist-shared.txt": (
            "d6b2f43dbbf97076def7581fb22d7cfd"
            "9643a128eee103b51d5779e98d8bb5db"
        ),
    },
    "train": {
        "curve.csv": (
            "a8ac02bc53fbca2134414303345be489"
            "73d32a9ad02f29e52b4815cb7fad50f6"
        ),
        "model.txt": (
            "842ddb91c53e49212dd6efc3a9e9c747"
            "9c40059a5b3e8a983e44887572b0d840"
        ),
    },
    "train-dev": {
        "curve-dev.csv": (
            "4510d6bed4d9582cde857971d16fa0ef"
            "7b4797899fcf4f9eca7bbc7b2e3b6def"
        ),
        "model-dev.txt": (
            "f76e28e7c878d31029e1d2ec25c14f80"
            "da67bd33002a24aa0e55ddf47fc30f25"
        ),
    },
    "train-frame": {
        "curve-frame.csv": (
            "edc326d5d55a067e1c02aaf97f6cbcd5"
            "93205b3ad2d9ad98c1a325ec6f05cfce"
        ),
        "model-frame.txt": (
            "5d261d0d54bec7c96a6b59f0096aecbd"
            "647271e4cf923222749c5e1ebb85704c"
        ),
    },
    "inspect": {
        "info.json": (
            "c59f20b0682609850bc03c114facc053"
            "9f8603f17049f0bdda4855a8bfb34b76"
        ),
    },
    "estimate-chain": {
        "chain.json": (
            "d5ea8008efdf3369cb4ca093423d8833"
            "2c6691d3f33ba8a8e55ed2fd1df3d919"
        ),
    },
    "estimate-chain-plain": {
        "chain-plain.json": (
            "3b26f918a3c2c2cde111fe76eba03434"
            "49937c62a072690052324910f8adfafe"
        ),
    },
    "estimate-bigram": {
        "bigram.json": (
            "32aa157cf6af6902fe896482ca04b75f"
            "b299a932533d022b04d23ed7cefc9341"
        ),
    },
    "estimate-chain-frame": {
        "chain-frame.json": (
            "70c8ec6cceb95004a3ffa5214c3ccea0"
            "65041e3c4220fd6e8cc1b1fff973854f"
        ),
    },
}


def _inputs(tmp_path):
    files = {
        "dec.fst": format_fst_text(word_chain_decoder(2, 2, 2)),
        "z.csv": "0.3,-0.4\n-1.1,0.9\n",
        "ref.txt": "1 2\n",
        "config.txt": CONFIG,
        "config-dev.txt": DEV_CONFIG,
        "config-frame.txt": DEV_CONFIG + "loss = frame-error\n",
        "chain.fst": format_fst_text(chain_decoder_graph(50, 10, 6)),
        # Symbol 3 outputs no word, so edge paths (1, 3) and (3, 1) both
        # carry the words (1,).
        "shared.fst": format_fst_text(word_chain_decoder(2, 3, 2)),
        "shared_z.csv": "0.2,-0.7,0.5\n-0.3,0.8,0.1\n",
    }
    rng = np.random.default_rng(50)
    files["chain_z.csv"] = format_logits_csv(rng.normal(size=(50, 10)))
    files["chain_ref.txt"] = " ".join(
        str(int(w)) for w in rng.integers(1, 7, size=30)
    ) + "\n"
    files["chain_align.txt"] = " ".join(
        str(int(q)) for q in rng.integers(1, 11, size=50)
    ) + "\n"
    rng = np.random.default_rng(40)
    files["bigram.fst"] = format_fst_text(bigram_decoder(rng, 12, 9))
    files["bigram_z.csv"] = format_logits_csv(rng.normal(size=(40, 12)))
    files["bigram_ref.txt"] = " ".join(
        str(int(w)) for w in rng.integers(1, 10, size=25)
    ) + "\n"
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return {name: str(tmp_path / name) for name in files}


def _argv(command, f, out):
    lattice = ["--fst", f["dec.fst"], "--logits", f["z.csv"]]
    return {
        "estimate": [
            "estimate", *lattice, "--ref", f["ref.txt"], "--samples", "300",
            "--seed", "7", "--exact", "--out", out["est.json"],
        ],
        "gradcheck": [
            "gradcheck", *lattice, "--ref", f["ref.txt"],
            "--out", out["gc.txt"],
        ],
        "sample": [
            "sample", *lattice, "--samples", "400", "--seed", "5",
            "--out", out["hist.txt"],
        ],
        "sample-shared": [
            "sample", "--fst", f["shared.fst"], "--logits", f["shared_z.csv"],
            "--samples", "10000", "--seed", "13",
            "--out", out["hist-shared.txt"],
        ],
        "train": [
            "train", "--config", f["config.txt"], "--curve", out["curve.csv"],
            "--model", out["model.txt"],
        ],
        "train-dev": [
            "train", "--config", f["config-dev.txt"],
            "--curve", out["curve-dev.csv"], "--model", out["model-dev.txt"],
        ],
        "train-frame": [
            "train", "--config", f["config-frame.txt"],
            "--curve", out["curve-frame.csv"],
            "--model", out["model-frame.txt"],
        ],
        "inspect": [
            "inspect", "--fst", f["dec.fst"], "--json",
            "--out", out["info.json"],
        ],
        "estimate-chain": [
            "estimate", "--fst", f["chain.fst"], "--logits", f["chain_z.csv"],
            "--ref", f["chain_ref.txt"], "--samples", "1000", "--seed", "3",
            "--out", out["chain.json"],
        ],
        "estimate-chain-plain": [
            "estimate", "--fst", f["chain.fst"], "--logits", f["chain_z.csv"],
            "--ref", f["chain_ref.txt"], "--samples", "1000", "--seed", "3",
            "--no-variance-reduction", "--out", out["chain-plain.json"],
        ],
        "estimate-bigram": [
            "estimate", "--fst", f["bigram.fst"],
            "--logits", f["bigram_z.csv"], "--ref", f["bigram_ref.txt"],
            "--samples", "500", "--seed", "9",
            "--out", out["bigram.json"],
        ],
        "estimate-chain-frame": [
            "estimate", "--fst", f["chain.fst"], "--logits", f["chain_z.csv"],
            "--ref", f["chain_align.txt"], "--loss", "frame-error",
            "--samples", "1000", "--seed", "3",
            "--out", out["chain-frame.json"],
        ],
    }[command]


def _golden_digests(tmp_path, commands):
    """Per command, the sha256 digests of its output files."""
    f = _inputs(tmp_path)
    out = {
        name: str(tmp_path / name) for files in GOLDEN.values() for name in files
    }
    digests = {}
    for command in commands:
        assert main(_argv(command, f, out)) == 0
        digests[command] = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in GOLDEN[command]
        }
    return digests


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_digest(command, tmp_path, capsys):
    digests = _golden_digests(tmp_path, [command])
    capsys.readouterr()
    assert digests[command] == GOLDEN[command]


# OpenBLAS picks its kernels by CPU and splits work by its thread count.
# Each setting selects another kernel or split than a default run on a
# multi-core AVX-512 host: one thread, pre-AVX kernels, and the AVX2
# kernels of CPUs without AVX-512.
BLAS_SETTINGS = (
    {"OPENBLAS_NUM_THREADS": "1"},
    {"OPENBLAS_CORETYPE": "Prescott"},
    {"OPENBLAS_CORETYPE": "Haswell"},
)

# Runs every golden command in a child process and prints the digests.
CHILD = """
import contextlib, json, pathlib, sys
from test_golden import GOLDEN, _golden_digests
with contextlib.redirect_stdout(sys.stderr):
    digests = _golden_digests(pathlib.Path(sys.argv[1]), sorted(GOLDEN))
print(json.dumps(digests))
"""


def test_golden_digests_hold_under_other_blas_kernels_and_thread_counts(
    tmp_path,
):
    # BLAS is imported with numpy, so each setting needs its own process;
    # only the child's environment is set.  The children run side by side.
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    children = []
    for i, setting in enumerate(BLAS_SETTINGS):
        (tmp_path / str(i)).mkdir()
        env = {**os.environ, "PYTHONPATH": path, **setting}
        children.append(subprocess.Popen(
            [sys.executable, "-c", CHILD, str(tmp_path / str(i))],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        ))
    for setting, child in zip(BLAS_SETTINGS, children):
        stdout, stderr = child.communicate(timeout=300)
        assert child.returncode == 0, stderr
        assert json.loads(stdout) == GOLDEN, setting
