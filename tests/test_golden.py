"""Golden sha256 digests of the CLI's output files.

Every subcommand runs on the inputs of acceptance criterion 10,
``estimate`` also runs on a T=50, Q=10 chain lattice, once per estimator
and loss, and on a T=40, Q=12 bigram-decoder lattice, whose composition
extrapolates repeated search levels, ``sample`` also draws 10,000 paths
on a decoder where two edge paths carry the same words, and ``train``
also runs with three dev utterances, once per loss.  A change that moves
any output bit fails here; such a change must refresh the digest in the
commit that makes it and say why in CHANGES.md.  The digests hold for
IEEE-754 doubles with numpy's default kernels on x86-64.
"""

import hashlib

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
            "4739ce411c9d57f780846ed487eaa431"
            "ec1feed6a7383908056d96e03bc347e5"
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
            "e1a0f8b992a0f79909b2acc1093734b3"
            "d50ba425c7e63afce1327a217a4006af"
        ),
    },
    "train-dev": {
        "curve-dev.csv": (
            "de0d28e8d762d9998ec7e91b793bc28e"
            "c69de6951b24527c81d15ba4c639faf1"
        ),
        "model-dev.txt": (
            "f9aa1dbb2ccc1f3150d804c8c6e431c1"
            "9a6120a1979aa3cd9501e64ee5a3ef03"
        ),
    },
    "train-frame": {
        "curve-frame.csv": (
            "b47396177d02348bf9e568388b149e1b"
            "82ce9bc5f67e538c36719bff77ee304b"
        ),
        "model-frame.txt": (
            "5c3203e3247b87b1e530f94381914593"
            "fe506b1d63f46b24ea1a239153e0492b"
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
            "4b7dffb8bfe19dc0cbe115d1238e1f94"
            "902542f09b2df59724cb41011335f048"
        ),
    },
    "estimate-chain-plain": {
        "chain-plain.json": (
            "dcf718fdc78c7a2edec5ec336f393e18"
            "7a35c8fd2d43a30429b0602a0a4aa522"
        ),
    },
    "estimate-bigram": {
        "bigram.json": (
            "5ec43f0f004f4df41aa5b15ac37c80b3"
            "dad77b28a9defb7226234208fdc2a3d6"
        ),
    },
    "estimate-chain-frame": {
        "chain-frame.json": (
            "fbd0aa926799f026201ff90a0e35bb75"
            "63c737e67c041fb006bf981ead4b3cda"
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


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_digest(command, tmp_path, capsys):
    f = _inputs(tmp_path)
    out = {
        name: str(tmp_path / name) for files in GOLDEN.values() for name in files
    }
    assert main(_argv(command, f, out)) == 0
    capsys.readouterr()
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN[command]
    }
    assert digests == GOLDEN[command]
