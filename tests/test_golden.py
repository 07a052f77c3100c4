"""Golden sha256 digests of the CLI's output files.

Every subcommand runs on the inputs of acceptance criterion 10, and
``estimate`` also runs on a T=50, Q=10 chain lattice, once per estimator
and loss.  A change that moves
any output bit fails here; such a change must refresh the digest in the
commit that makes it and say why in CHANGES.md.  The digests hold for
IEEE-754 doubles with numpy's default kernels on x86-64.
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
        "chain.fst": format_fst_text(chain_decoder_graph(50, 10, 6)),
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
        "train": [
            "train", "--config", f["config.txt"], "--curve", out["curve.csv"],
            "--model", out["model.txt"],
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
