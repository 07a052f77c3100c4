"""End-to-end checks of the command-line interface, run in process."""

import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import sampled_mbr
from sampled_mbr import chain_decoder_graph, format_fst_text
from sampled_mbr.cli import main

TWO_PATH_DECODER = "0 1 1 1 0.0\n0 1 2 2 0.0\n1\n"
TWO_PATH_LOGITS = "0.6931471805599453,1.0986122886681098\n"


def _files(tmp_path, decoder=TWO_PATH_DECODER, logits=TWO_PATH_LOGITS, ref="1\n"):
    paths = {}
    for name, text in (("dec.fst", decoder), ("z.csv", logits), ("ref.txt", ref)):
        target = tmp_path / name
        target.write_text(text)
        paths[name] = str(target)
    return paths["dec.fst"], paths["z.csv"], paths["ref.txt"]


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def test_estimate_exact_report(tmp_path, capsys):
    fst, z, ref = _files(tmp_path)
    rc = main([
        "estimate", "--fst", fst, "--logits", z, "--ref", ref,
        "--samples", "2000", "--seed", "3", "--exact",
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert math.isclose(report["exact_expected_loss"], 0.6, rel_tol=1e-12)
    assert report["num_samples"] == 2000
    assert report["seed"] == 3
    assert report["gradient_shape"] == [1, 2]
    assert len(report["exact_gradient"]) == 2
    assert report["abs_error_expected_loss"] < 0.05
    assert report["max_abs_error_gradient"] < 0.05
    assert abs(report["expected_loss"] - 0.6) < 0.05


def test_estimate_single_path_is_exact(tmp_path, capsys):
    fst, z, ref = _files(
        tmp_path, decoder="0 1 1 1 0.0\n1\n", logits="0.25\n", ref="4 5\n"
    )
    rc = main([
        "estimate", "--fst", fst, "--logits", z, "--ref", ref, "--samples", "7",
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["expected_loss"] == 2.0
    assert report["gradient"] == [0.0]
    assert report["loss_variance"] == 0.0


def test_estimate_rerun_is_byte_identical(tmp_path):
    fst, z, ref = _files(tmp_path)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        rc = main([
            "estimate", "--fst", fst, "--logits", z, "--ref", ref,
            "--samples", "500", "--seed", "11", "--out", str(out),
        ])
        assert rc == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_estimate_variance_reduction_flag_changes_gradient(tmp_path, capsys):
    fst, z, ref = _files(tmp_path)
    base = ["estimate", "--fst", fst, "--logits", z, "--ref", ref,
            "--samples", "50", "--seed", "2"]
    assert main(base) == 0
    with_vr = json.loads(capsys.readouterr().out)
    assert main(base + ["--no-variance-reduction"]) == 0
    without_vr = json.loads(capsys.readouterr().out)
    assert with_vr["gradient"] != without_vr["gradient"]


def test_estimate_rejects_bad_counts(tmp_path, capsys):
    fst, z, ref = _files(tmp_path)
    rc = main([
        "estimate", "--fst", fst, "--logits", z, "--ref", ref, "--samples", "0",
    ])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: usage:")
    for seed in ("-1", str(2**64)):
        rc = main([
            "estimate", "--fst", fst, "--logits", z, "--ref", ref,
            "--seed", seed,
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: usage:")


@pytest.mark.parametrize(
    "command, flags",
    [
        ("estimate", ["--samples", str(2**64 + 1)]),
        ("estimate", ["--no-variance-reduction", "--samples", str(2**63 + 1)]),
        ("sample", ["--samples", str(2**64 + 1)]),
    ],
)
def test_samples_beyond_stream_indices_are_usage_errors(
    tmp_path, capsys, command, flags
):
    # The plain estimator draws a second batch, so 2x --samples indices.
    fst, z, ref = _files(tmp_path)
    refs = ["--ref", ref] if command == "estimate" else []
    rc = main([command, "--fst", fst, "--logits", z, *refs, *flags])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: usage:")


def test_estimate_frame_loss_length_mismatch(tmp_path, capsys):
    fst, z, ref = _files(tmp_path, ref="1 2 1\n")
    rc = main([
        "estimate", "--fst", fst, "--logits", z, "--ref", ref,
        "--loss", "frame-error",
    ])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: dimension:")


def test_estimate_missing_file(tmp_path, capsys):
    fst, z, ref = _files(tmp_path)
    rc = main([
        "estimate", "--fst", str(tmp_path / "nope.fst"), "--logits", z,
        "--ref", ref,
    ])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: io:")


def test_estimate_empty_composition_is_degenerate(tmp_path, capsys):
    fst, z, ref = _files(tmp_path, decoder="0 1 3 3 0.0\n1\n")
    rc = main(["estimate", "--fst", fst, "--logits", z, "--ref", ref])
    assert rc == 4
    assert capsys.readouterr().err.startswith("error: degenerate:")


def test_estimate_malformed_logits(tmp_path, capsys):
    fst, z, ref = _files(tmp_path, logits="0.5,oops\n")
    rc = main(["estimate", "--fst", fst, "--logits", z, "--ref", ref])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: parse:")


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def test_gradcheck_passes_at_default_tolerance(tmp_path, capsys):
    fst, z, ref = _files(tmp_path)
    rc = main(["gradcheck", "--fst", fst, "--logits", z, "--ref", ref])
    out = capsys.readouterr().out
    assert rc == 0
    assert "result pass" in out
    first = out.splitlines()[0]
    assert float(first.split()[1]) < 1e-8


def test_gradcheck_reports_failure_exit_code(tmp_path, capsys):
    fst, z, ref = _files(tmp_path)
    rc = main([
        "gradcheck", "--fst", fst, "--logits", z, "--ref", ref,
        "--eps", "0.01", "--tol", "1e-8",
    ])
    assert rc == 1
    assert "result fail" in capsys.readouterr().out


def test_gradcheck_constant_loss_trivially_passes(tmp_path, capsys):
    # Both words differ from the reference by one edit, so the gradient is
    # zero and every element is skipped as unscaled.
    fst, z, ref = _files(tmp_path, ref="5\n")
    rc = main(["gradcheck", "--fst", fst, "--logits", z, "--ref", ref])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "max_relative_error 0.0"


def test_gradcheck_overflow_on_large_lattice(tmp_path, capsys):
    decoder = format_fst_text(chain_decoder_graph(9, 3, 3))
    logits = "\n".join(["0.0,0.0,0.0"] * 9) + "\n"
    fst, z, ref = _files(tmp_path, decoder=decoder, logits=logits, ref="1\n")
    rc = main(["gradcheck", "--fst", fst, "--logits", z, "--ref", ref])
    assert rc == 5
    assert capsys.readouterr().err.startswith("error: overflow:")


def test_gradcheck_rejects_nonpositive_eps(tmp_path, capsys):
    # Also non-finite --eps and --tol: NaN would reach the score matrix or
    # fail every comparison, and inf would pass every comparison.
    fst, z, ref = _files(tmp_path)
    for flag, value in [
        ("--eps", "0"), ("--eps", "nan"), ("--eps", "inf"),
        ("--tol", "nan"), ("--tol", "inf"),
    ]:
        rc = main([
            "gradcheck", "--fst", fst, "--logits", z, "--ref", ref, flag, value,
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: usage:")


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def test_sample_histogram_matches_exact_distribution(tmp_path, capsys):
    fst, z, _ = _files(tmp_path)
    rc = main([
        "sample", "--fst", fst, "--logits", z, "--samples", "2000",
        "--seed", "5",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 3
    first = lines[0].split("\t")
    assert first[0] == "1"
    assert math.isclose(float(first[2]), 0.4, rel_tol=1e-12)
    assert abs(float(first[1]) - 0.4) < 0.04
    tv_label, tv_value = lines[2].split()
    assert tv_label == "tv_distance"
    assert float(tv_value) < 0.04


def test_sample_renders_empty_word_sequence_as_dash(tmp_path, capsys):
    fst, z, _ = _files(tmp_path, decoder="0 1 1 0 0.0\n1\n", logits="0.0\n")
    rc = main(["sample", "--fst", fst, "--logits", z, "--samples", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].split("\t")[0] == "-"
    assert lines[0].split("\t")[1] == "1.0"


def test_sample_rejects_seed_beyond_64_bits(tmp_path, capsys):
    fst, z, _ = _files(tmp_path)
    rc = main(["sample", "--fst", fst, "--logits", z, "--seed", str(2**64)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: usage:")


def test_sample_omits_exact_column_beyond_path_bound(tmp_path, capsys):
    # 4^7 = 16,384 paths, more than fst.MAX_ENUMERATED_PATHS.
    decoder = format_fst_text(chain_decoder_graph(7, 4, 3))
    logits = "0.0,0.0,0.0,0.0\n" * 7
    fst, z, _ = _files(tmp_path, decoder=decoder, logits=logits)
    rc = main(["sample", "--fst", fst, "--logits", z, "--samples", "50"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert all(len(line.split("\t")) == 2 for line in lines)
    assert not any(line.startswith("tv_distance") for line in lines)


def test_sample_rerun_is_byte_identical(tmp_path):
    fst, z, _ = _files(tmp_path)
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    for out in (out_a, out_b):
        rc = main([
            "sample", "--fst", fst, "--logits", z, "--samples", "400",
            "--seed", "9", "--out", str(out),
        ])
        assert rc == 0
    assert out_a.read_bytes() == out_b.read_bytes()


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

TINY_CONFIG = """
steps = 6
samples_per_step = 25
seed = 0
eval_interval = 3
vocab_size = 2
frames = 3
clusters = 2
feature_dim = 3
num_utterances = 12
noise = 0.2
"""


def test_train_writes_curve_and_model(tmp_path, capsys):
    config = tmp_path / "config.txt"
    config.write_text(TINY_CONFIG)
    curve = tmp_path / "curve.csv"
    model = tmp_path / "model.txt"
    rc = main([
        "train", "--config", str(config), "--curve", str(curve),
        "--model", str(model),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("initial_exact_expected_loss ")
    lines = curve.read_text().strip().split("\n")
    assert lines[0] == "step,exact_expected_loss,sampled_expected_loss,wall_ms"
    assert [row.split(",")[0] for row in lines[1:]] == ["0", "3", "6"]
    assert all(row.endswith(",0.0") for row in lines[1:])
    dims = model.read_text().split("\n", 1)[0]
    assert dims == "3 2"


def test_train_dev_overflow_exits_before_any_step(
    tmp_path, capsys, monkeypatch
):
    # 4^9 dev paths pass training.DEV_PATH_BOUND while the dev lattices
    # are enumerated, before the first training step.
    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(sampled_mbr.training, "train_step", no_step)
    config = tmp_path / "config.txt"
    config.write_text("frames = 9\nnum_utterances = 10\n")
    curve = tmp_path / "curve.csv"
    rc = main(["train", "--config", str(config), "--curve", str(curve)])
    assert rc == 5
    assert capsys.readouterr().err.startswith("error: overflow:")
    assert not curve.exists()


def test_train_divergence_is_a_non_finite_error(tmp_path, capsys):
    # Features of magnitude 1e300 overflow the scores once the first
    # update has moved the weights; no raw numpy warning may escape.
    config = tmp_path / "config.txt"
    config.write_text(
        "task_seed = 0\nsteps = 4\nnum_utterances = 20\nnoise = 1e300\n"
    )
    curve = tmp_path / "curve.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["train", "--config", str(config), "--curve", str(curve)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite:")
    assert err.count("\n") == 1
    assert not curve.exists()


def test_train_rerun_is_byte_identical(tmp_path):
    config = tmp_path / "config.txt"
    config.write_text(TINY_CONFIG)
    outputs = []
    for tag in ("a", "b"):
        curve = tmp_path / f"curve_{tag}.csv"
        model = tmp_path / f"model_{tag}.txt"
        rc = main([
            "train", "--config", str(config), "--curve", str(curve),
            "--model", str(model),
        ])
        assert rc == 0
        outputs.append((curve.read_bytes(), model.read_bytes()))
    assert outputs[0] == outputs[1]


def test_train_zero_steps(tmp_path, capsys):
    config = tmp_path / "config.txt"
    config.write_text(TINY_CONFIG.replace("steps = 6", "steps = 0"))
    curve = tmp_path / "curve.csv"
    rc = main(["train", "--config", str(config), "--curve", str(curve)])
    assert rc == 0
    capsys.readouterr()
    assert len(curve.read_text().strip().split("\n")) == 2


def test_train_rejects_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "config.txt"
    config.write_text("optimizer = adam\n")
    curve = tmp_path / "curve.csv"
    rc = main(["train", "--config", str(config), "--curve", str(curve)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: parse:")


@pytest.mark.parametrize(
    "line", [f"seed = {2**64}", "seed = -1", "task_seed = -1"]
)
def test_train_rejects_out_of_range_seeds(tmp_path, capsys, line):
    config = tmp_path / "config.txt"
    config.write_text(TINY_CONFIG.replace("seed = 0", line))
    curve = tmp_path / "curve.csv"
    rc = main(["train", "--config", str(config), "--curve", str(curve)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: parse:")


def test_train_rejects_nan_learning_rate(tmp_path, capsys):
    config = tmp_path / "config.txt"
    config.write_text(TINY_CONFIG + "learning_rate = nan\n")
    curve = tmp_path / "curve.csv"
    rc = main(["train", "--config", str(config), "--curve", str(curve)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: parse:")
    assert not curve.exists()


@pytest.mark.parametrize(
    "lines",
    [
        "samples_per_step = 18446744073709551617\n",
        "samples_per_step = 4611686018427387904\nsteps = 3\n",
    ],
)
def test_train_rejects_stream_indices_past_2_64(tmp_path, capsys, lines):
    # Rejected while parsing the config, before any path is drawn.
    config = tmp_path / "config.txt"
    config.write_text(lines)
    curve = tmp_path / "curve.csv"
    rc = main(["train", "--config", str(config), "--curve", str(curve)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parse:")
    assert "Traceback" not in err
    assert not curve.exists()


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------


def test_inspect_sausage_summary(tmp_path, capsys):
    decoder = format_fst_text(chain_decoder_graph(3, 4, 4))
    fst, _, _ = _files(tmp_path, decoder=decoder)
    rc = main(["inspect", "--fst", fst])
    assert rc == 0
    out = capsys.readouterr().out
    assert "states: 4" in out
    assert "edges: 12" in out
    assert "acyclic: true" in out
    assert "paths: 64" in out
    assert "stochastic: false" in out


def test_inspect_cyclic_fst(tmp_path, capsys):
    fst, _, _ = _files(tmp_path, decoder="0 0 1 1 -0.5\n0 1 2 2 0.0\n1\n")
    rc = main(["inspect", "--fst", fst, "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["acyclic"] is False
    assert report["paths"] is None
    assert report["states"] == 2


def test_inspect_stochastic_detection(tmp_path, capsys):
    half = math.log(0.5)
    decoder = f"0 1 1 1 {half!r}\n0 1 2 2 {half!r}\n1\n"
    fst, _, _ = _files(tmp_path, decoder=decoder)
    rc = main(["inspect", "--fst", fst])
    assert rc == 0
    assert "stochastic: true" in capsys.readouterr().out


def test_inspect_parse_error(tmp_path, capsys):
    fst, _, _ = _files(tmp_path, decoder="0 1 1 1\n1\n")
    rc = main(["inspect", "--fst", fst])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parse:")
    assert "line 1" in err
    Path(fst).write_bytes(b"\xff0 1 1 1 0.0\n1\n")
    assert main(["inspect", "--fst", fst]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parse:")


@pytest.mark.parametrize(
    "decoder, line",
    [
        # Past int64: the state arrays cannot hold the id at all.
        (f"0 1 1 1 0.0\n{2**64}\n", 2),
        # An intp array of 2^62 + 2 entries exceeds numpy's size limit.
        (f"0 {2**62} 1 1 0.0\n{2**62}\n", 1),
    ],
    ids=["past-int64", "past-array-size-limit"],
)
def test_inspect_rejects_state_ids_too_large_for_state_arrays(
    tmp_path, capsys, decoder, line
):
    fst, _, _ = _files(tmp_path, decoder=decoder)
    assert main(["inspect", "--fst", fst]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: parse: line {line}: state id")
    assert "too large" in err


# ---------------------------------------------------------------------------
# error contract
# ---------------------------------------------------------------------------

# An epsilon-input self-loop at decoder state 1 survives composition.
CYCLIC_DECODER = "0 1 1 1 0.0\n0 1 2 2 0.0\n1 1 0 3 -1.0\n1 2 0 0 0.0\n2\n"


@pytest.mark.parametrize("command", ["estimate", "sample"])
def test_cyclic_lattice_is_reported_with_exit_code_1(tmp_path, capsys, command):
    fst, z, ref = _files(tmp_path, decoder=CYCLIC_DECODER)
    args = [command, "--fst", fst, "--logits", z]
    if command == "estimate":
        args += ["--ref", ref]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error: cyclic:")


@pytest.mark.parametrize("flag", ["--fst", "--logits", "--ref", "--config"])
def test_undecodable_input_is_a_parse_error(tmp_path, capsys, flag):
    fst, z, ref = _files(tmp_path)
    config = tmp_path / "config.txt"
    config.write_text(TINY_CONFIG)
    inputs = {"--fst": fst, "--logits": z, "--ref": ref, "--config": config}
    Path(inputs[flag]).write_bytes(b"\xff\xfe1\n")
    if flag == "--config":
        args = ["train", "--config", str(config), "--curve",
                str(tmp_path / "curve.csv")]
    else:
        args = ["estimate", "--fst", fst, "--logits", z, "--ref", ref]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: parse: {inputs[flag]}: ")
    assert "can't decode byte 0xff" in err


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


def test_version_flag_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exit_info:
        main([])
    assert exit_info.value.code == 2


# ---------------------------------------------------------------------------
# package import
# ---------------------------------------------------------------------------


def test_import_loads_no_scipy():
    src = str(Path(sampled_mbr.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import sampled_mbr; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"
