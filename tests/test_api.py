"""The public API, the benchmark's span targets, and the README's examples."""

import importlib.util
import re
from pathlib import Path

import numpy as np

import sampled_mbr

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = [
    "CurveRecord", "CyclicFstError", "DEFAULT_EMBR_LEARNING_RATE",
    "DegenerateLatticeError", "DimensionMismatchError", "EPSILON", "Edge",
    "EnumeratedObjective", "FrameErrorLoss", "FstParseError",
    "InvalidFstError", "LEARNING_RATE_RATIO", "LatticeTopology",
    "LinearModel", "MbrEstimate",
    "NonFiniteGradientError", "Path", "PathOverflowError", "SampleStream",
    "SampledMbrError", "TaskConfig", "TrainConfig",
    "UnsupportedCompositionError", "UnsupportedTopologyError", "UsageError",
    "Utterance", "Wfst", "WordEditLoss", "backward", "build_score_fst",
    "build_task", "chain_decoder_graph", "compose", "count_paths",
    "edge_loss_annotation", "edit_distance", "empty_wfst", "enumerate_paths",
    "estimate_report", "expected_additive_loss", "expected_loss_exact",
    "expected_loss_gradient_exact", "format_curve_csv", "format_fst_text",
    "format_model_text", "forward", "init_model", "is_acyclic",
    "make_synthetic_task", "parse_config", "parse_fst_text",
    "parse_label_sequence", "parse_logits_csv", "path_distribution",
    "path_input_labels", "path_occupancy", "path_output_labels",
    "run_experiment", "sample_paths", "sampled_estimate", "split_train_dev",
    "stochasticity_deviation", "stream_uniforms", "topological_order",
    "train_step", "walk_paths", "zero_wall_times",
]

# Only tests use these; they live in tests/helpers.py.
TEST_ONLY_NAMES = [
    "InvalidPathError", "ShiftedLoss", "format_label_sequence",
    "format_logits_csv", "parse_model_text", "path_log_weight",
    "reweight_stochastic",
]


def test_public_api_is_pinned():
    assert sorted(sampled_mbr.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(sampled_mbr, name) is not None
    for name in TEST_ONLY_NAMES:
        assert not hasattr(sampled_mbr, name)


def _benchmark_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_spans_resolve():
    # perfbench/spans.py looks its span targets up by name; building a
    # Tracer resolves every one and fails on a deleted or renamed target.
    spans = _benchmark_spans()
    assert len(spans.Tracer()._patches) >= len(spans.SPANS)


def test_traced_loss_calls_and_exact_oracle():
    # A loss's __call__ is traced per class as losses.loss; the exact
    # oracle scores its paths with one batch call, so it makes none.
    tracer = _benchmark_spans().Tracer()
    lattice = sampled_mbr.build_score_fst(np.zeros((2, 2)))
    loss = sampled_mbr.WordEditLoss((1,))
    path = sampled_mbr.enumerate_paths(lattice, 10)[0]
    assert tracer.run(loss, lattice, path) == 1.0
    assert tracer.calls["losses.loss"] == 1
    # The tracer patches the name where the library looks it up.
    estimators = importlib.import_module("sampled_mbr.estimators")
    tracer.run(lambda: estimators.expected_loss_exact(lattice, loss))
    assert tracer.calls["estimators.exact"] == 1
    assert tracer.calls["losses.loss"] == 1


def test_readme_python_blocks_run():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_test_extra_pins_the_versions_ci_installs():
    # Derandomized property tests draw the same examples only under one
    # hypothesis version, so a local install must match CI's.
    pin = r'"((?:pytest|hypothesis)==[^"]+)"'
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    pyproject = (ROOT / "pyproject.toml").read_text()
    extra = re.search(r"^test = \[(.*)\]$", pyproject, re.M).group(1)
    installed = re.findall(pin, workflow)
    assert installed and set(installed) == set(re.findall(pin, extra))
