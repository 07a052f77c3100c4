"""Golden sha256 digests of the CLI's output files.

Every subcommand runs on the inputs of acceptance criterion 10,
``estimate`` also runs on a T=50, Q=10 chain lattice, once per estimator
and loss, ``sample`` also draws 10,000 paths on a decoder where two edge
paths carry the same words, and ``train`` also runs with three dev
utterances, once per loss.  A change that moves any output bit fails
here; such a change must refresh the digest in the commit that makes it
and say why in CHANGES.md.  The digests hold for IEEE-754 doubles with numpy's default
kernels on x86-64.
"""

import hashlib

import numpy as np
import pytest

from sampled_mbr import chain_decoder_graph, format_fst_text
from sampled_mbr.cli import main

from helpers import format_logits_csv, word_chain_decoder

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
            "5e31aa9429677aca514b819f127779b4"
            "7f625fbf048ac70a9e4546ff3fd88d7a"
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
            "bfcef850d3e0354af1f76de37edf64ec"
            "4683927178f6c6aba1366d2c853d4b25"
        ),
    },
    "sample-shared": {
        "hist-shared.txt": (
            "760f9199c2851b1a1a8e0950ab452ae9"
            "644270c77039c67c68b65e0fc0f39ff5"
        ),
    },
    "train": {
        "curve.csv": (
            "2eb4f2282a9d50c9a2c69325f2663618"
            "6a47e1a53e19e2b5a7f15f6cf2ed17a5"
        ),
        "model.txt": (
            "41e5acfb76616c5166fd4e03f4bcfca2"
            "98185aee455630bc3725fe008b82311e"
        ),
    },
    "train-dev": {
        "curve-dev.csv": (
            "a2a3b48e4573f4c3e774b88e3c620761"
            "ba30d57a105b4d9d6908343e2e905243"
        ),
        "model-dev.txt": (
            "fafc6b0ee998f2bdc026f0ff3356b4ef"
            "1e35f28969846944385d272d401d3bd1"
        ),
    },
    "train-frame": {
        "curve-frame.csv": (
            "bb7555cdebb9118dbd858d7617778c73"
            "f83bf8e5cc69851ab8e0bcbbb7a8bd91"
        ),
        "model-frame.txt": (
            "262b4c021e58a7872d9819b6b5d78587"
            "1f030a421d6366207ee488acca1e420e"
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
            "5fd54c6e98e702e1a7f6163ad3357839"
            "1e563eb32e2fbcdde2cf59ec4560ea9e"
        ),
    },
    "estimate-chain-plain": {
        "chain-plain.json": (
            "fa6e2b4d8c787a115dbeea6cbe5f245d"
            "8db33f282fdb7ffe0b6aa2df8b672345"
        ),
    },
    "estimate-chain-frame": {
        "chain-frame.json": (
            "0e12d8a0ad47dd45841ae8f341619515"
            "e8862d70568b13c3867b6f2b92bc98bb"
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
