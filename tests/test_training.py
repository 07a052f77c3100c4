"""Linear model, synthetic task, and the training loop."""

import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from sampled_mbr import (
    DEFAULT_EMBR_LEARNING_RATE,
    EPSILON,
    Edge,
    EnumeratedObjective,
    FstParseError,
    LEARNING_RATE_RATIO,
    LatticeTopology,
    LinearModel,
    SampleStream,
    TaskConfig,
    TrainConfig,
    Utterance,
    Wfst,
    WordEditLoss,
    build_score_fst,
    build_task,
    chain_decoder_graph,
    compose,
    count_paths,
    enumerate_paths,
    expected_loss_exact,
    format_curve_csv,
    format_model_text,
    forward,
    init_model,
    make_synthetic_task,
    parse_config,
    run_experiment,
    split_train_dev,
    stream_uniforms,
    train_step,
    walk_paths,
    zero_wall_times,
)
from sampled_mbr import sampling, training
from sampled_mbr.errors import DegenerateLatticeError, DimensionMismatchError
from sampled_mbr.fst import (
    longest_path_edges,
    normalized,
    path_output_labels,
)
from sampled_mbr.sampling import CHUNK_ROWS
from sampled_mbr.training import _DevLattice, make_loss

from helpers import (
    ReferenceEnumeratedObjective,
    left_to_right_dot,
    parse_model_text,
    utterance_lattice,
)


def _tiny_dataset(num_utterances=10, seed=3):
    return make_synthetic_task(2, 3, 2, 3, num_utterances, seed, noise=0.2)


def _step_rows(seed, num_rows, num_draws):
    """Uniform rows of stream indices 0..num_rows-1 for one train_step."""
    return stream_uniforms(seed, 0, num_rows, num_draws)


def _tiny_config(**overrides):
    base = dict(steps=5, samples_per_step=20, seed=0, eval_interval=2)
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# Model forward pass
# ---------------------------------------------------------------------------


def test_forward_zero_model_gives_zero_scores():
    model = init_model(4, 3)
    z = forward(model, np.ones((5, 4)))
    assert z.shape == (5, 3)
    assert not z.any()


def test_forward_matches_manual_product():
    # Nine features, so numpy's pairwise sum would differ from the order.
    rng = np.random.default_rng(11)
    model = LinearModel(rng.normal(size=(9, 3)), rng.normal(size=3))
    x = rng.normal(size=(6, 9))
    z = forward(model, x)
    for t in range(6):
        for q in range(3):
            manual = left_to_right_dot(x[t], model.weights[:, q])
            assert z[t, q] == manual + model.bias[q]
    empty = forward(LinearModel(np.zeros((0, 3)), model.bias), np.ones((2, 0)))
    assert empty.tolist() == [model.bias.tolist()] * 2


def test_forward_rejects_wrong_feature_dim():
    model = init_model(4, 3)
    with pytest.raises(DimensionMismatchError):
        forward(model, np.ones((5, 3)))


# ---------------------------------------------------------------------------
# Decoder graph and synthetic task
# ---------------------------------------------------------------------------


def test_chain_decoder_shape_and_labels():
    decoder = chain_decoder_graph(4, 3, 2)
    assert decoder.num_states == 5
    assert decoder.num_edges == 12
    assert count_paths(decoder) == 3**4
    for edge in decoder.edges:
        assert edge.dst == edge.src + 1
        assert edge.log_weight == 0.0
        expected = edge.ilabel if edge.ilabel <= 2 else EPSILON
        assert edge.olabel == expected


def test_synthetic_task_is_deterministic():
    a = make_synthetic_task(2, 3, 3, 4, 6, seed=9)
    b = make_synthetic_task(2, 3, 3, 4, 6, seed=9)
    for ua, ub in zip(a, b):
        assert ua.features.tobytes() == ub.features.tobytes()
        assert ua.reference == ub.reference
        assert ua.alignment == ub.alignment
    c = make_synthetic_task(2, 3, 3, 4, 6, seed=10)
    assert any(
        ua.features.tobytes() != uc.features.tobytes() for ua, uc in zip(a, c)
    )


def test_synthetic_task_references_fit_vocab():
    utterances = make_synthetic_task(2, 4, 3, 3, 25, seed=1)
    assert len(utterances) == 25
    decoder = utterances[0].decoder_graph
    for utt in utterances:
        assert utt.decoder_graph is decoder
        assert all(1 <= w <= 2 for w in utt.reference)
        assert len(utt.alignment) == 4
        assert utt.features.shape == (4, 3)


def test_synthetic_task_empty_and_invalid():
    assert make_synthetic_task(1, 2, 1, 2, 0, seed=0) == []
    with pytest.raises(ValueError):
        make_synthetic_task(3, 2, 2, 2, 1, seed=0)  # vocab > symbols
    with pytest.raises(ValueError):
        make_synthetic_task(1, 0, 1, 2, 1, seed=0)


def test_reference_reachable_with_positive_probability():
    utterances = make_synthetic_task(2, 4, 3, 3, 10, seed=21)
    model = init_model(3, 3)
    for utt in utterances:
        lattice = utterance_lattice(model, utt)
        value = expected_loss_exact(lattice, WordEditLoss(utt.reference or (1,)))
        assert math.isfinite(value)


# ---------------------------------------------------------------------------
# Single training step
# ---------------------------------------------------------------------------


def test_train_step_zero_rate_keeps_model():
    utt = _tiny_dataset()[0]
    model = init_model(3, 2)
    config = _tiny_config(learning_rate=0.0)
    topology = LatticeTopology(utt.decoder_graph, 3, 2)
    rows = _step_rows(0, 20, 3)
    updated, estimate = train_step(model, utt, config, rows, topology)
    assert updated.weights.tobytes() == model.weights.tobytes()
    assert updated.bias.tobytes() == model.bias.tobytes()
    assert estimate.num_samples == 20


def test_train_step_adds_the_weight_gradient_frame_by_frame():
    # Nine frames, so numpy's pairwise sum would differ from the order.
    utt = make_synthetic_task(2, 9, 2, 3, 1, 6, noise=0.2)[0]
    rng = np.random.default_rng(12)
    model = LinearModel(rng.normal(0, 0.1, size=(3, 2)), np.zeros(2))
    config = _tiny_config(learning_rate=0.7)
    topology = LatticeTopology(utt.decoder_graph, 9, 2)
    updated, estimate = train_step(
        model, utt, config, _step_rows(2, 20, 9), topology
    )
    g = estimate.gradient
    assert g.any()
    grad = np.array([
        [left_to_right_dot(utt.features[:, d], g[:, q]) for q in range(2)]
        for d in range(3)
    ])
    assert updated.weights.tobytes() == (model.weights - 0.7 * grad).tobytes()
    assert updated.bias.tobytes() == (model.bias - 0.7 * g.sum(axis=0)).tobytes()


def test_train_step_single_path_decoder_is_a_fixed_point():
    # A one-symbol decoder admits one path, so the gradient vanishes.
    decoder = chain_decoder_graph(3, 1, 1)
    utt = Utterance(np.ones((3, 2)), decoder, (1, 1, 1))
    model = LinearModel(np.full((2, 1), 0.5), np.zeros(1))
    rows = _step_rows(4, 20, 3)
    topology = LatticeTopology(decoder, 3, 1)
    updated, estimate = train_step(model, utt, _tiny_config(), rows, topology)
    assert estimate.expected_loss == 0.0
    assert not estimate.gradient.any()
    assert updated.weights.tobytes() == model.weights.tobytes()
    # A topology of another decoder graph, of the same frame count.
    other = LatticeTopology(chain_decoder_graph(3, 2, 1), 3, 1)
    with pytest.raises(ValueError, match="decoder graph"):
        train_step(model, utt, _tiny_config(), rows, other)


def test_make_loss_rejects_unknown_kind_and_missing_alignment():
    utt = Utterance(np.ones((3, 2)), chain_decoder_graph(3, 1, 1), (1, 1, 1))
    assert make_loss("word-edit", utt).reference == (1, 1, 1)
    with pytest.raises(ValueError, match="unknown loss kind"):
        make_loss("hinge", utt)
    with pytest.raises(ValueError, match="needs an utterance alignment"):
        make_loss("frame-error", utt)


def test_exact_gradient_step_matches_finite_differences():
    utt = _tiny_dataset(num_utterances=1, seed=8)[0]
    rng = np.random.default_rng(5)
    model = LinearModel(rng.normal(0, 0.3, size=(3, 2)), rng.normal(0, 0.3, size=2))
    config = _tiny_config(exact_gradients=True, learning_rate=1.0)
    topology = LatticeTopology(utt.decoder_graph, 3, 2)
    updated, _ = train_step(model, utt, config, _step_rows(0, 20, 3), topology)
    grad_w = model.weights - updated.weights  # rate is 1.0
    grad_b = model.bias - updated.bias
    loss = WordEditLoss(utt.reference or (1,))

    def objective(weights, bias):
        z = utt.features @ weights + bias
        lattice = compose(build_score_fst(z), utt.decoder_graph)
        return expected_loss_exact(lattice, loss)

    eps = 1e-5
    for i in range(3):
        for j in range(2):
            up = model.weights.copy()
            up[i, j] += eps
            down = model.weights.copy()
            down[i, j] -= eps
            fd = (objective(up, model.bias) - objective(down, model.bias)) / (
                2 * eps
            )
            assert math.isclose(grad_w[i, j], fd, rel_tol=1e-3, abs_tol=1e-7)
    for j in range(2):
        up = model.bias.copy()
        up[j] += eps
        down = model.bias.copy()
        down[j] -= eps
        fd = (objective(model.weights, up) - objective(model.weights, down)) / (
            2 * eps
        )
        assert math.isclose(grad_b[j], fd, rel_tol=1e-3, abs_tol=1e-7)


# ---------------------------------------------------------------------------
# Experiment loop
# ---------------------------------------------------------------------------


def test_run_experiment_zero_steps_records_initial_point():
    records, model = run_experiment(_tiny_dataset(), _tiny_config(steps=0))
    assert len(records) == 1
    assert records[0].step == 0
    assert not model.weights.any()


def test_run_experiment_record_schedule():
    records, _ = run_experiment(_tiny_dataset(), _tiny_config(steps=5))
    assert [r.step for r in records] == [0, 2, 4, 5]


def test_run_experiment_deterministic_up_to_wall_time():
    dataset = _tiny_dataset()
    config = _tiny_config()
    records_a, model_a = run_experiment(dataset, config)
    records_b, model_b = run_experiment(dataset, config)
    assert model_a.weights.tobytes() == model_b.weights.tobytes()
    assert model_a.bias.tobytes() == model_b.bias.tobytes()
    for ra, rb in zip(records_a, records_b):
        assert ra.step == rb.step
        assert ra.exact_expected_loss == rb.exact_expected_loss
        assert ra.sampled_expected_loss == rb.sampled_expected_loss
    csv_a = format_curve_csv(zero_wall_times(records_a))
    csv_b = format_curve_csv(zero_wall_times(records_b))
    assert csv_a == csv_b


def test_run_experiment_reduces_dev_loss():
    dataset = make_synthetic_task(2, 4, 3, 4, 40, seed=0, noise=0.3)
    config = TrainConfig(steps=40, samples_per_step=50, seed=0, eval_interval=40)
    records, _ = run_experiment(dataset, config)
    assert records[-1].exact_expected_loss < 0.5 * records[0].exact_expected_loss


def test_enumerated_objective_matches_direct_enumeration():
    rng = np.random.default_rng(33)
    utt = _tiny_dataset(num_utterances=1, seed=14)[0]
    dev = _DevLattice(LatticeTopology(utt.decoder_graph, 3, 2))
    objective = EnumeratedObjective(utt, "word-edit", dev)
    loss = WordEditLoss(utt.reference or (1,))
    for _ in range(5):
        z = rng.normal(0, 1.5, size=(3, 2))
        lattice = compose(build_score_fst(z), utt.decoder_graph)
        direct = expected_loss_exact(lattice, loss)
        assert math.isclose(objective.expected_loss(z), direct, rel_tol=1e-10)


def test_enumerated_objective_zero_weight_is_degenerate():
    utt = _tiny_dataset(num_utterances=1, seed=14)[0]
    dev = _DevLattice(LatticeTopology(utt.decoder_graph, 3, 2))
    objective = EnumeratedObjective(utt, "word-edit", dev)
    with pytest.raises(DegenerateLatticeError):
        objective.expected_loss(np.full((3, 2), -np.inf))


@pytest.mark.parametrize("shape", [(2, 3), (4, 2), (2, 2)])
def test_enumerated_objective_rejects_scores_of_another_shape(shape):
    # (2, 3) holds as many scores as (3, 2), and (4, 2) more; neither may
    # be read through the (3, 2) topology's score indices.
    utt = _tiny_dataset(num_utterances=1, seed=14)[0]
    dev = _DevLattice(LatticeTopology(utt.decoder_graph, 3, 2))
    objective = EnumeratedObjective(utt, "word-edit", dev)
    with pytest.raises(DimensionMismatchError, match="expected \\(3, 2\\)"):
        objective.expected_loss(np.zeros(shape))


def test_dev_objective_losses_equal_per_path_losses(monkeypatch):
    # The default task's 4^6 paths; symbol 4 outputs no word, so paths
    # share output words: 1,093 distinct word sequences, which the
    # word-edit objective scores in one batch call.  Each objective's loss
    # vector must hold every path's own loss, bit for bit.
    utterance = make_synthetic_task(3, 6, 4, 8, 1, seed=0)[0]
    topology = LatticeTopology(utterance.decoder_graph, 6, 4)
    dev = _DevLattice(topology)
    lattice = topology.lattice
    paths = enumerate_paths(lattice, 4**6)
    assert len(paths) == 4**6
    rows = []
    batch = WordEditLoss.batch

    def counting_batch(self, fst, edge_ids):
        rows.append(len(edge_ids))
        return batch(self, fst, edge_ids)

    monkeypatch.setattr(WordEditLoss, "batch", counting_batch)
    objectives = [
        EnumeratedObjective(utterance, kind, dev)
        for kind in ("word-edit", "frame-error")
    ]
    assert rows == [1093]
    monkeypatch.undo()
    for objective in objectives:
        per_path = np.array([objective.loss(lattice, p) for p in paths])
        assert objective.losses.tobytes() == per_path.tobytes()


def test_frame_major_scores_add_left_to_right_past_eight_frames():
    # numpy's row sum adds eight or more terms pairwise; the objective adds
    # the frames left to right from 0.0, then the path's decoder offset.
    rng = np.random.default_rng(8)
    frames, symbols = 8, 2
    edges = [
        Edge(t, t + 1, q, q, float(rng.normal()))
        for t in range(frames)
        for q in range(1, symbols + 1)
    ]
    decoder = Wfst(frames + 1, edges, final=frames)
    utterance = Utterance(
        rng.normal(size=(frames, 3)), decoder, (1, 2, 2, 1),
        tuple(int(q) for q in rng.integers(1, symbols + 1, size=frames)),
    )
    topology = LatticeTopology(decoder, frames, symbols)
    dev = _DevLattice(topology)
    lattice = topology.lattice
    paths = enumerate_paths(lattice, 10_000)
    assert len(paths) == symbols**frames
    for kind in ("word-edit", "frame-error"):
        objective = EnumeratedObjective(utterance, kind, dev)
        for _ in range(5):
            z = rng.normal(0, 3, size=(frames, symbols))
            log_w = []
            for path in paths:
                total = 0.0
                for k in path.edges:
                    index = topology.score_index[k]
                    if index >= 0:
                        total += float(z.ravel()[index])
                log_w.append(total + path.log_weight)
            expected = left_to_right_dot(
                normalized(np.array(log_w)), objective.losses
            )
            assert objective.expected_loss(z) == expected


def test_word_edit_dev_record_scores_each_utterance_by_its_own_reference():
    # One kernel call scores both dev utterances' sampled rows; each must
    # read its own reference, as its own WordEditLoss.batch does.
    dataset = _tiny_dataset(num_utterances=20)
    _, dev = split_train_dev(dataset)
    assert len(dev) == 2 and dev[0].reference != dev[1].reference
    config = _tiny_config(steps=2, eval_interval=2)
    records, model = run_experiment(dataset, config)
    topology = LatticeTopology(dev[0].decoder_graph, 3, 2)
    num_draws = longest_path_edges(topology.lattice)
    samples = config.samples_per_step
    # The last record samples at the returned model, from stream index
    # len(dev) * samples_per_step on.
    first = len(dev) * samples
    means = []
    for d, utterance in enumerate(dev):
        lattice = topology.at(forward(model, utterance.features))
        start = first + d * samples
        rows = stream_uniforms(config.seed + 1, start, samples, num_draws)
        losses = WordEditLoss(utterance.reference).batch(
            lattice, walk_paths([lattice], rows)
        )
        means.append(float(np.mean(losses)))
    assert records[-1].step == 2
    assert records[-1].sampled_expected_loss == float(np.mean(means))


def _mixed_dev_dataset():
    # Three (decoder graph, frame count) keys: a 3-frame chain at T=3, and
    # a 4-frame chain with skip edges over its third frame at T=3 and T=4.
    # Utterances cycle through the keys, so the dev tenth holds two of each.
    a = make_synthetic_task(2, 3, 2, 3, 20, seed=3, noise=0.2)
    b = make_synthetic_task(2, 4, 3, 3, 20, seed=4, noise=0.2)
    c = make_synthetic_task(2, 3, 2, 3, 20, seed=5, noise=0.2)
    skips = tuple(
        Edge(2, 4, q, q if q <= 2 else EPSILON, 0.0) for q in (1, 2, 3)
    )
    both = Wfst(5, b[0].decoder_graph.edges + skips, final=4)
    b = [replace(u, decoder_graph=both) for u in b]
    c = [replace(u, decoder_graph=both) for u in c]
    return [u for triple in zip(a, b, c) for u in triple]


@pytest.mark.parametrize("kind", ["word-edit", "frame-error"])
def test_dev_objectives_enumerate_once_per_graph_and_frame_count(
    kind, monkeypatch
):
    dataset = _mixed_dev_dataset()
    _, dev = split_train_dev(dataset)
    keys = {(u.decoder_graph, u.features.shape[0]) for u in dev}
    assert len(dev) == 6 and len(keys) == 3
    enumerations = []
    built = []

    def counting_enumerate(fst, max_paths):
        enumerations.append(fst)
        return enumerate_paths(fst, max_paths)

    class Recording(EnumeratedObjective):
        def __init__(self, utterance, loss_kind, lattice):
            super().__init__(utterance, loss_kind, lattice)
            built.append((utterance, self))

    monkeypatch.setattr(training, "enumerate_paths", counting_enumerate)
    monkeypatch.setattr(training, "EnumeratedObjective", Recording)
    run_experiment(dataset, _tiny_config(steps=0, loss=kind))
    assert len(enumerations) == len(keys)
    assert [id(u) for u, _ in built] == [id(u) for u in dev]
    devs = {k: _DevLattice(LatticeTopology(*k, 3)) for k in keys}
    rng = np.random.default_rng(17)
    for utt, objective in built:
        oracle = ReferenceEnumeratedObjective(utt, kind, 3)
        assert objective.losses.tobytes() == oracle.losses.tobytes()
        # Word edit scores one row per word sequence; either way the
        # losses equal one batch call over every path.
        dev = devs[utt.decoder_graph, utt.features.shape[0]]
        full = objective.loss.batch(dev.lattice, dev.edge_ids)
        assert objective.losses.tobytes() == full.tobytes()
        for _ in range(4):
            z = rng.normal(0, 1.5, size=(utt.features.shape[0], 3))
            assert objective.expected_loss(z) == oracle.expected_loss(z)
    # Each path's words are its sequence representative's words, and the
    # representatives' words are distinct.  Some sequence is shared by
    # paths whose output-label rows differ, in epsilon or padding positions.
    shared_across_epsilons = False
    for dev in devs.values():
        paths = enumerate_paths(dev.lattice, 10_000)
        words = [path_output_labels(dev.lattice, p) for p in paths]
        rows = [tuple(r) for r in dev.lattice.olabel[dev.edge_ids].tolist()]
        firsts = {}
        for path, sequence in enumerate(dev.word_inverse.tolist()):
            first = firsts.setdefault(sequence, path)
            assert words[path] == words[first]
            shared_across_epsilons |= rows[path] != rows[first]
        assert len(firsts) == len(dev.word_rows) == len(set(words))
        assert dev.word_rows.tobytes() == dev.edge_ids[
            sorted(firsts.values())
        ].tobytes()
    assert shared_across_epsilons


def test_dev_utterance_that_does_not_fit_its_graph_is_degenerate():
    dataset = _tiny_dataset()
    # Four frames of features against a three-frame decoder chain.
    last = dataset[-1]
    dataset[-1] = Utterance(
        np.vstack([last.features, last.features[:1]]),
        last.decoder_graph,
        last.reference,
        last.alignment + last.alignment[:1],
    )
    with pytest.raises(DegenerateLatticeError, match="no complete path"):
        run_experiment(dataset, _tiny_config())


@pytest.mark.parametrize("kind", ["word-edit", "frame-error"])
def test_dev_lattice_finds_word_sequences_only_for_word_edit(kind):
    utt = _tiny_dataset()[0]
    dev = _DevLattice(LatticeTopology(utt.decoder_graph, 3, 2))
    EnumeratedObjective(utt, kind, dev)
    words = {"word_inverse", "word_rows"}
    assert words & set(vars(dev)) == (words if kind == "word-edit" else set())


def test_frame_error_objective_rejects_alignment_of_wrong_length():
    utt = _tiny_dataset()[0]
    dev = _DevLattice(LatticeTopology(utt.decoder_graph, 3, 2))
    short = replace(utt, alignment=utt.alignment[:-1])
    with pytest.raises(DimensionMismatchError):
        EnumeratedObjective(short, "frame-error", dev)


@pytest.mark.parametrize(
    "samples, variance_reduction", [(30, True), (30, False), (2100, False)]
)
def test_training_rows_follow_each_steps_stream_indices(
    samples, variance_reduction
):
    # Step s owns indices 2 * s * samples onward; 2 x 2100 rows per step
    # pass CHUNK_ROWS, so each step's rows take a stream_uniforms call
    # of their own.
    config = _tiny_config(
        steps=3, samples_per_step=samples, seed=5,
        variance_reduction=variance_reduction,
    )
    batch = samples if variance_reduction else 2 * samples
    rows = list(training._training_uniforms(config, 3))
    assert len(rows) == 3
    for step, got in enumerate(rows):
        first = 2 * step * samples
        expected = stream_uniforms(5, first, batch, 3)
        assert got.tobytes() == expected.tobytes()


def test_default_run_draws_uniforms_in_few_kernel_calls(monkeypatch):
    # One call per 20 training steps, whose 2 x 100 streams per step are
    # drawn as one run, and one per dev record: 21 in all, against one per
    # sample_paths call (420) when each walk drew its own.  Each call
    # builds one generator.
    calls = []
    draw = sampling.stream_uniforms

    def counting_draw(seed, first, count, num_draws):
        calls.append(count)
        return draw(seed, first, count, num_draws)

    built = []
    generator = SampleStream.generator

    def counting_generator(self, index, block=1):
        built.append(index)
        return generator(self, index, block)

    monkeypatch.setattr(training, "stream_uniforms", counting_draw)
    monkeypatch.setattr(SampleStream, "generator", counting_generator)
    train_config, task_config = parse_config("")
    run_experiment(build_task(train_config, task_config), train_config)
    assert len(built) == len(calls) <= 25
    assert max(calls) <= CHUNK_ROWS


def test_run_experiment_rejects_zero_samples():
    config = _tiny_config(steps=0, samples_per_step=0, exact_gradients=True)
    with pytest.raises(ValueError):
        run_experiment(_tiny_dataset(), config)


def test_split_train_dev_proportions():
    dataset = _tiny_dataset(num_utterances=20)
    train, dev = split_train_dev(dataset)
    assert len(train) == 18 and len(dev) == 2
    assert dev[0] is dataset[18]
    solo = _tiny_dataset(num_utterances=1)
    train, dev = split_train_dev(solo)
    assert len(train) == 1 and len(dev) == 1
    with pytest.raises(ValueError):
        split_train_dev([])


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def test_parse_config_defaults():
    train_config, task_config = parse_config("")
    assert train_config.steps == 200
    assert train_config.samples_per_step == 100
    assert train_config.loss == "word-edit"
    assert train_config.variance_reduction
    assert task_config.vocab_size == 3
    assert task_config.frames == 6
    assert task_config.clusters == 4


def test_parse_config_full():
    text = """
    # training
    steps = 12
    learning_rate = 0.5
    samples_per_step = 30
    seed = 7
    loss = frame-error
    variance_reduction = false
    eval_interval = 4
    exact_gradients = true

    # task
    vocab_size = 2
    frames = 3
    clusters = 2
    feature_dim = 5
    num_utterances = 11
    noise = 0.1
    task_seed = 99
    """
    train_config, task_config = parse_config(text)
    assert train_config.steps == 12
    assert train_config.learning_rate == 0.5
    assert train_config.loss == "frame-error"
    assert not train_config.variance_reduction
    assert train_config.exact_gradients
    assert task_config.feature_dim == 5
    assert task_config.task_seed == 99
    assert task_config.noise == 0.1


@pytest.mark.parametrize(
    "text",
    [
        "momentum = 0.9",
        "steps = 5\nsteps = 6",
        "steps = five",
        "loss = hinge",
        "variance_reduction = yes",
        "steps",
        "vocab_size = 3\nclusters = 2",
        "samples_per_step = 0",
        "num_utterances = 0",
        "steps = -1",
        "eval_interval = 0",
        "learning_rate = nan",
        "learning_rate = inf",
        "noise = nan",
        "noise = -inf",
        # Stream indices past 2^64 - 1: both ranges, then each alone.
        "samples_per_step = 18446744073709551617",
        "samples_per_step = 4611686018427387904\nsteps = 3",
        "samples_per_step = 4611686018427387904\nsteps = 3\n"
        "num_utterances = 10",
        "samples_per_step = 1152921504606846976\nsteps = 0",
    ],
)
def test_parse_config_rejects(text):
    with pytest.raises(FstParseError):
        parse_config(text)


def test_parse_config_accepts_the_last_stream_index():
    # One step reserves indices 0..2^64-1; two dev records of one dev
    # utterance use the same count.
    train_config, _ = parse_config(
        f"samples_per_step = {2**63}\nsteps = 1\nnum_utterances = 1"
    )
    assert train_config.samples_per_step == 2**63


def test_every_config_field_is_a_key_named_in_readme():
    # A non-default value for every field of both dataclasses.
    values = {
        "steps": 12, "learning_rate": 0.5, "samples_per_step": 30, "seed": 7,
        "loss": "frame-error", "variance_reduction": False,
        "eval_interval": 4, "exact_gradients": True, "vocab_size": 2,
        "frames": 3, "clusters": 2, "feature_dim": 5, "num_utterances": 11,
        "noise": 0.1, "task_seed": 99,
    }
    names = [f.name for cls in (TrainConfig, TaskConfig) for f in fields(cls)]
    assert sorted(names) == sorted(values)
    text = "".join(
        f"{key} = {str(value).lower() if isinstance(value, bool) else value}\n"
        for key, value in values.items()
    )
    for config in parse_config(text):
        for f in fields(config):
            parsed = getattr(config, f.name)
            assert (type(parsed), parsed) == (type(values[f.name]), values[f.name])
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme.split("**Config**", 1)[1].split("\n\n", 1)[0]
    for name in names:
        assert f"`{name}`" in paragraph


def test_effective_learning_rate_per_loss():
    assert TrainConfig().effective_learning_rate() == DEFAULT_EMBR_LEARNING_RATE
    frame = TrainConfig(loss="frame-error")
    assert frame.effective_learning_rate() == (
        DEFAULT_EMBR_LEARNING_RATE / LEARNING_RATE_RATIO
    )
    assert TrainConfig(learning_rate=0.125).effective_learning_rate() == 0.125


def test_build_task_uses_task_seed_override():
    train_config, task_config = parse_config("num_utterances = 3\ntask_seed = 5")
    by_override = build_task(train_config, task_config)
    direct = make_synthetic_task(3, 6, 4, 8, 3, seed=5, noise=0.3)
    for a, b in zip(by_override, direct):
        assert a.features.tobytes() == b.features.tobytes()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_model_text_round_trip_is_bit_exact():
    rng = np.random.default_rng(2)
    model = LinearModel(rng.normal(size=(4, 3)), rng.normal(size=3))
    text = format_model_text(model)
    back = parse_model_text(text)
    assert back.weights.tobytes() == model.weights.tobytes()
    assert back.bias.tobytes() == model.bias.tobytes()
    assert format_model_text(back) == text


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2 x\n0 0\n0 0\n0 0",
        "2 2\n0 0\n0 0",
        "1 2\n0 0 0\n0 0",
        "1 2\n0 nan?\n0 0",
    ],
)
def test_model_text_parse_errors(text):
    with pytest.raises(FstParseError):
        parse_model_text(text)


def test_curve_csv_layout():
    records, _ = run_experiment(_tiny_dataset(), _tiny_config(steps=2))
    text = format_curve_csv(zero_wall_times(records))
    lines = text.strip().split("\n")
    assert lines[0] == "step,exact_expected_loss,sampled_expected_loss,wall_ms"
    assert len(lines) == len(records) + 1
    for line, record in zip(lines[1:], records):
        fields = line.split(",")
        assert fields[0] == str(record.step)
        assert float(fields[1]) == record.exact_expected_loss
        assert fields[3] == "0.0"
