"""Desk-scale gradient-descent training on synthetic lattice tasks.

A linear model maps per-frame feature vectors to symbol scores; each step
builds the utterance lattice from the current scores, estimates the
expected-loss gradient by path sampling, and applies one SGD update.
Exact enumeration of the (small) dev lattices provides noise-free
training curves; each distinct (decoder graph, frame count) is composed
once per run, its dev lattice is enumerated once, and its paths are
shared by every dev utterance on it.  The sampled paths' uniforms are
drawn ahead of the walks, for a run of training steps or for a whole dev
record per kernel call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .compose import LatticeTopology
from .errors import (
    DegenerateLatticeError,
    DimensionMismatchError,
    FstParseError,
    NonFiniteGradientError,
)
from .estimators import (
    MbrEstimate,
    estimate_from_paths,
    expected_loss_exact,
    expected_loss_gradient_exact,
)
from .fst import (
    EPSILON,
    Edge,
    Wfst,
    edge_id_matrix,
    enumerate_paths,
    label_rows,
    normalized,
)
from .losses import FrameErrorLoss, WordEditLoss
from .sampling import (
    KERNEL_ROWS,
    longest_path_edges,
    stream_uniforms,
    walk_paths,
)

# Word-edit training tolerates (and needs) a larger step size than
# frame-error training; the frame-error default is a fifth of this.
DEFAULT_EMBR_LEARNING_RATE = 1.0
LEARNING_RATE_RATIO = 5.0

# Enumeration bound of the dev curve's exact objective.
DEV_PATH_BOUND = 100_000


@dataclass
class LinearModel:
    """Per-frame linear scorer: scores_t = weights.T @ x_t + bias."""

    weights: np.ndarray  # (feature_dim, num_symbols)
    bias: np.ndarray  # (num_symbols,)


def init_model(feature_dim: int, num_symbols: int) -> LinearModel:
    return LinearModel(
        np.zeros((feature_dim, num_symbols)), np.zeros(num_symbols)
    )


@dataclass
class Utterance:
    """One training example: features plus decoder graph and references."""

    features: np.ndarray  # (num_frames, feature_dim)
    decoder_graph: Wfst
    reference: tuple[int, ...]
    alignment: tuple[int, ...] | None = None


@dataclass
class TrainConfig:
    steps: int = 200
    learning_rate: float | None = None  # resolved per loss kind when None
    samples_per_step: int = 100
    seed: int = 0
    loss: str = "word-edit"
    variance_reduction: bool = True
    eval_interval: int = 20
    exact_gradients: bool = False

    def effective_learning_rate(self) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        if self.loss == "frame-error":
            return DEFAULT_EMBR_LEARNING_RATE / LEARNING_RATE_RATIO
        return DEFAULT_EMBR_LEARNING_RATE


@dataclass
class TaskConfig:
    vocab_size: int = 3
    frames: int = 6
    clusters: int = 4
    feature_dim: int = 8
    num_utterances: int = 200
    noise: float = 0.3
    task_seed: int | None = None  # defaults to the training seed


@dataclass
class CurveRecord:
    step: int
    exact_expected_loss: float
    sampled_expected_loss: float
    wall_ms: float


def forward(model: LinearModel, features: np.ndarray) -> np.ndarray:
    """Per-frame scores: one matrix product plus bias broadcast.

    Raises NonFiniteGradientError when a score overflows or is NaN, as
    when training has diverged; numpy's overflow warning is silenced, since
    the error reports it.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.weights.shape[0]:
        raise DimensionMismatchError(
            f"features have shape {x.shape}, model expects "
            f"(*, {model.weights.shape[0]})"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        z = x @ model.weights + model.bias
    if not np.isfinite(z).all():
        raise NonFiniteGradientError(
            "scores contain non-finite entries; training diverged"
        )
    return z


def make_loss(kind: str, utterance: Utterance):
    if kind == "word-edit":
        return WordEditLoss(utterance.reference)
    if kind == "frame-error":
        if utterance.alignment is None:
            raise ValueError("frame-error loss needs an utterance alignment")
        return FrameErrorLoss(utterance.alignment)
    raise ValueError(f"unknown loss kind {kind!r}")


def train_step(
    model: LinearModel,
    utterance: Utterance,
    config: TrainConfig,
    uniforms: np.ndarray,
    topology: LatticeTopology,
) -> tuple[LinearModel, MbrEstimate]:
    """One SGD update from a fresh lattice built at the current parameters.

    The lattice is ``topology`` at the current scores; the topology must
    be that of the utterance's decoder graph (ValueError otherwise).  The
    expected-loss gradient w.r.t. the scores chain-rules to the model:
    the weight gradient is features.T @ G and the bias gradient is the
    column sum of G.  A sampled step walks one path per row of
    ``uniforms`` (see ``walk_paths``): the samples, followed without
    variance reduction by as many baseline paths.  Exact steps ignore the
    rows.  The estimate records ``config.seed``.
    """
    if topology.decoder_graph != utterance.decoder_graph:
        raise ValueError("topology is not of the utterance's decoder graph")
    z = forward(model, utterance.features)
    num_frames, num_symbols = z.shape
    lattice = topology.at(z)
    loss = make_loss(config.loss, utterance)
    if config.exact_gradients:
        value = expected_loss_exact(lattice, loss)
        gradient = expected_loss_gradient_exact(
            lattice, loss, num_frames, num_symbols
        )
        estimate = MbrEstimate(
            expected_loss=value,
            gradient=gradient,
            num_samples=0,
            per_sample_losses=np.array([]),
            loss_variance=0.0,
            seed=config.seed,
        )
    else:
        estimate = estimate_from_paths(
            lattice,
            loss,
            walk_paths([lattice], uniforms),
            num_frames,
            num_symbols,
            config.seed,
            config.variance_reduction,
        )
    if not np.isfinite(estimate.gradient).all():
        raise NonFiniteGradientError(
            "score gradient contains non-finite entries; step aborted"
        )
    grad_weights = utterance.features.T @ estimate.gradient
    grad_bias = estimate.gradient.sum(axis=0)
    rate = config.effective_learning_rate()
    updated = LinearModel(
        model.weights - rate * grad_weights,
        model.bias - rate * grad_bias,
    )
    return updated, estimate


def make_synthetic_task(
    vocab_size: int,
    num_frames: int,
    num_symbols: int,
    feature_dim: int,
    num_utterances: int,
    seed: int,
    noise: float = 0.3,
) -> list[Utterance]:
    """Deterministic learnable dataset of lattice-decoding utterances.

    Each utterance draws a true symbol sequence, emits features as
    Gaussian noise around per-symbol centroids, and keeps as reference
    transcript the words the decoder assigns to that sequence.  The shared
    decoder graph is a frame-synchronous chain accepting every length-T
    symbol sequence; symbols above ``vocab_size`` output no word (they act
    as fillers), the rest output themselves.
    """
    if min(vocab_size, num_frames, num_symbols, feature_dim) < 1:
        raise ValueError("task dimensions must be positive")
    if vocab_size > num_symbols:
        raise ValueError("vocab_size cannot exceed the symbol count")
    decoder = chain_decoder_graph(num_frames, num_symbols, vocab_size)
    rng = np.random.default_rng(seed)
    centroids = rng.normal(size=(num_symbols, feature_dim))
    utterances = []
    for _ in range(num_utterances):
        true_seq = rng.integers(1, num_symbols + 1, size=num_frames)
        features = centroids[true_seq - 1] + noise * rng.normal(
            size=(num_frames, feature_dim)
        )
        reference = tuple(int(q) for q in true_seq if q <= vocab_size)
        utterances.append(
            Utterance(
                features=features,
                decoder_graph=decoder,
                reference=reference,
                alignment=tuple(int(q) for q in true_seq),
            )
        )
    return utterances


def chain_decoder_graph(
    num_frames: int, num_symbols: int, vocab_size: int
) -> Wfst:
    """Unweighted chain accepting all length-T symbol sequences.

    Symbol q outputs word q when q <= vocab_size and epsilon otherwise.
    """
    edges = [
        Edge(t, t + 1, q, q if q <= vocab_size else EPSILON, 0.0)
        for t in range(num_frames)
        for q in range(1, num_symbols + 1)
    ]
    return Wfst(num_frames + 1, edges, final=num_frames)


class _DevLattice:
    """One decoder graph's lattice at one frame count, enumerated.

    Lattice topology does not depend on the scores, so every dev utterance
    on the same (decoder graph, frame count) shares one enumeration of at
    most DEV_PATH_BOUND paths of the topology's ``lattice``: their
    ``edge_ids`` matrix, the flat index ``flat`` = frame * Q + 0-based
    symbol of each path's scores in ``z.ravel()``, and their decoder
    offsets.  ``words`` lists the distinct output-word tuples by first
    appearance, and ``word_index`` maps each path to its tuple.
    """

    def __init__(self, topology: LatticeTopology):
        num_frames, num_symbols = topology.shape
        self.lattice = lattice = topology.lattice
        paths = enumerate_paths(lattice, DEV_PATH_BOUND)
        if not paths:
            raise DegenerateLatticeError("no complete path")
        self.edge_ids = edge_id_matrix(paths)
        inputs = lattice.ilabel[self.edge_ids]
        symbols = inputs[inputs != EPSILON].reshape(len(paths), num_frames)
        self.flat = np.arange(num_frames) * num_symbols + symbols - 1
        # Per-path decoder contribution: the path weight at zero scores.
        self.offsets = np.array([p.log_weight for p in paths])
        ids: dict[tuple[int, ...], int] = {}
        self.word_index = np.array([
            ids.setdefault(words, len(ids))
            for words in label_rows(lattice.olabel, self.edge_ids)
        ])
        self.words = list(ids)


class EnumeratedObjective:
    """Reusable exact expected loss for one dev utterance.

    The paths, score indices and offsets are those of the utterance's
    shared ``_DevLattice``; only the per-path loss vector is its own.
    Word-edit scores each distinct output-word tuple once against the
    reference's match masks and gathers the values per path; frame-error
    scores the edge-id matrix with one ``loss.batch`` call.  Re-evaluating
    at new scores is one gather of the scores at the cached flat indices
    and a vectorized softmax.
    """

    def __init__(self, utterance: Utterance, loss_kind: str, dev: _DevLattice):
        self.loss = make_loss(loss_kind, utterance)
        if loss_kind == "word-edit":
            distinct = [self.loss.of_words(words) for words in dev.words]
            self.losses = np.array(distinct)[dev.word_index]
        else:
            self.losses = self.loss.batch(dev.lattice, dev.edge_ids)
        self.dev = dev

    def expected_loss(self, z: np.ndarray) -> float:
        dev = self.dev
        log_w = dev.offsets + z.ravel()[dev.flat].sum(axis=1)
        return float(normalized(log_w) @ self.losses)


def _dev_size(num_utterances: int) -> int:
    """Dev utterances split off a dataset of this size."""
    return max(1, num_utterances // 10)


def split_train_dev(
    dataset: Sequence[Utterance],
) -> tuple[list[Utterance], list[Utterance]]:
    """Deterministic 90/10 split by index (last tenth is dev)."""
    if not dataset:
        raise ValueError("dataset is empty")
    num_dev = _dev_size(len(dataset))
    cut = len(dataset) - num_dev
    if cut == 0:
        cut = len(dataset)  # single-utterance corner: dev = train
    return list(dataset[:cut]), list(dataset[cut:]) or list(dataset)


def _training_uniforms(config: TrainConfig, num_draws: int):
    """Each training step's uniform rows, in order, for ``train_step``.

    Step s walks the stream indices from 2 * s * samples_per_step on under
    ``config.seed``: samples_per_step rows, twice that without variance
    reduction.  The rows of as many consecutive steps as fit in
    KERNEL_ROWS are drawn by one ``stream_uniforms`` call.
    """
    samples = config.samples_per_step
    batch = samples if config.variance_reduction else 2 * samples
    offsets = np.arange(batch, dtype=np.uint64)
    run = max(1, KERNEL_ROWS // batch)
    for first in range(0, config.steps, run):
        stop = min(first + run, config.steps)
        steps = np.arange(first, stop, dtype=np.uint64)
        indices = (steps[:, None] * np.uint64(2 * samples) + offsets).ravel()
        rows = stream_uniforms(config.seed, indices, num_draws)
        yield from rows.reshape(len(steps), batch, num_draws)
        # Free this run's rows before the next kernel call.
        del rows


def run_experiment(
    dataset: Sequence[Utterance], config: TrainConfig
) -> tuple[list[CurveRecord], LinearModel]:
    """Train on the 90% split, recording dev losses at a fixed interval.

    The model scores as many symbols as the largest input label of the
    decoder graphs.  Steps cycle through the training utterances in order,
    one utterance per step.  Each record holds the exact (enumerated) dev
    expected loss, a sampled dev estimate, and elapsed wall time.  Dev
    utterances on the same decoder graph and frame count share one
    enumeration; each keeps one loss object for the whole run.  With
    identical inputs the records are bit-identical except for wall time.

    Every sampled path of the run walks a row of as many uniforms as the
    longest path of any utterance lattice has edges.  Lattice topology does
    not depend on the scores, so each (decoder graph, frame count) of the
    dataset is composed once, into a LatticeTopology that gives its
    lattices at every step and record and that count.  A record walks the
    rows of all dev utterances on one topology in one call.
    """
    if config.samples_per_step < 1:
        raise ValueError("samples_per_step must be positive")
    train, dev = split_train_dev(dataset)
    feature_dim = dataset[0].features.shape[1]
    num_symbols = max(int(u.decoder_graph.ilabel.max()) for u in dataset)
    model = init_model(feature_dim, num_symbols)

    def key(u: Utterance) -> tuple[Wfst, int]:
        return u.decoder_graph, u.features.shape[0]

    topologies = {
        k: LatticeTopology(*k, num_symbols)
        for k in dict.fromkeys(map(key, dataset))
    }
    lattices: dict[tuple[Wfst, int], _DevLattice] = {}
    dev_groups: dict[tuple[Wfst, int], list[int]] = {}
    objectives = []
    for d, u in enumerate(dev):
        k = key(u)
        if k not in lattices:
            lattices[k] = _DevLattice(topologies[k])
        dev_groups.setdefault(k, []).append(d)
        objectives.append(EnumeratedObjective(u, config.loss, lattices[k]))
    longest = max(longest_path_edges(t.lattice) for t in topologies.values())
    num_draws = max(1, longest)
    step_topologies = [topologies[key(u)] for u in train]
    # Dev-set sampling diagnostics draw from a disjoint key space so they
    # can never collide with training-sample indices.
    dev_seed = config.seed + 1 if config.seed + 1 < 2**64 else 0
    samples = config.samples_per_step
    started = time.perf_counter()
    records: list[CurveRecord] = []

    def record(step: int):
        # The dev curve reports values only; no gradient is formed here.
        # Dev utterance d of record r walks stream indices from
        # (r * len(dev) + d) * samples_per_step on.
        first = len(records) * len(dev) * samples
        indices = np.arange(len(dev) * samples, dtype=np.uint64)
        rows = stream_uniforms(dev_seed, indices + np.uint64(first), num_draws)
        rows = rows.reshape(len(dev), samples, num_draws)
        scores = [forward(model, u.features) for u in dev]
        exact = [o.expected_loss(z) for o, z in zip(objectives, scores)]
        sampled = [0.0] * len(dev)
        for k, members in dev_groups.items():
            group = [topologies[k].at(scores[d]) for d in members]
            edge_ids = walk_paths(group, rows[members].reshape(-1, num_draws))
            for i, d in enumerate(members):
                block = edge_ids[i * samples:(i + 1) * samples]
                losses = objectives[d].loss.batch(group[i], block)
                sampled[d] = float(np.mean(losses))
        wall_ms = (time.perf_counter() - started) * 1000.0
        records.append(
            CurveRecord(
                step, float(np.mean(exact)), float(np.mean(sampled)), wall_ms
            )
        )

    record(0)
    step_uniforms = _training_uniforms(config, num_draws)
    for step in range(config.steps):
        utterance = train[step % len(train)]
        model, _ = train_step(
            model, utterance, config, next(step_uniforms),
            step_topologies[step % len(train)],
        )
        done = step + 1
        if done % config.eval_interval == 0 or done == config.steps:
            record(done)
    return records, model


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def format_curve_csv(records: Sequence[CurveRecord]) -> str:
    lines = ["step,exact_expected_loss,sampled_expected_loss,wall_ms"]
    for r in records:
        lines.append(
            f"{r.step},{r.exact_expected_loss!r},"
            f"{r.sampled_expected_loss!r},{r.wall_ms!r}"
        )
    return "\n".join(lines) + "\n"


def zero_wall_times(records: Sequence[CurveRecord]) -> list[CurveRecord]:
    """Copies with wall_ms = 0, for byte-reproducible curve files."""
    return [replace(r, wall_ms=0.0) for r in records]


def format_model_text(model: LinearModel) -> str:
    """Flat text: dims line, one row of weights per feature, then the bias."""
    feature_dim, num_symbols = model.weights.shape
    lines = [f"{feature_dim} {num_symbols}"]
    for row in model.weights:
        lines.append(" ".join(repr(float(v)) for v in row))
    lines.append(" ".join(repr(float(v)) for v in model.bias))
    return "\n".join(lines) + "\n"


# Each config key is a field of TrainConfig or TaskConfig, read by the
# field's leading annotation type (``float | None`` reads a float).
_VALUE_PARSERS = {
    "int": int, "float": float, "str": str,
    "bool": {"true": True, "false": False}.__getitem__,
}
_CONFIG_KEYS = {
    f.name: (owner, _VALUE_PARSERS[f.type.split()[0]])
    for owner in (TrainConfig, TaskConfig)
    for f in fields(owner)
}


def parse_config(text: str) -> tuple[TrainConfig, TaskConfig]:
    """Flat key=value config covering training and task-generation fields.

    Blank lines and lines starting with '#' are ignored.  Unknown keys and
    malformed values are parse errors.
    """
    values: dict[type, dict[str, object]] = {TrainConfig: {}, TaskConfig: {}}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FstParseError("expected key=value", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise FstParseError(f"unknown config key {key!r}", lineno)
        owner, parse = _CONFIG_KEYS[key]
        if key in values[owner]:
            raise FstParseError(f"duplicate config key {key!r}", lineno)
        try:
            values[owner][key] = parse(value)
        except (KeyError, ValueError):
            raise FstParseError(
                f"malformed value for {key!r}: {value!r}", lineno
            ) from None
    loss = values[TrainConfig].get("loss", "word-edit")
    if loss not in ("word-edit", "frame-error"):
        raise FstParseError(f"unknown loss kind {loss!r}")
    train_config = TrainConfig(**values[TrainConfig])
    task_config = TaskConfig(**values[TaskConfig])
    _validate_configs(train_config, task_config)
    return train_config, task_config


def _validate_configs(train_config: TrainConfig, task_config: TaskConfig):
    if not 0 <= train_config.seed < 1 << 64:
        raise FstParseError("seed must be in 0..2^64-1")
    if task_config.task_seed is not None and task_config.task_seed < 0:
        raise FstParseError("task_seed must be nonnegative")
    if train_config.steps < 0:
        raise FstParseError("steps must be nonnegative")
    for name in ("samples_per_step", "eval_interval"):
        if getattr(train_config, name) < 1:
            raise FstParseError(f"{name} must be positive")
    rate = train_config.learning_rate
    if rate is not None and not (math.isfinite(rate) and rate >= 0):
        raise FstParseError("learning_rate must be finite and nonnegative")
    if not math.isfinite(task_config.noise):
        raise FstParseError("noise must be finite")
    if task_config.vocab_size > task_config.clusters:
        raise FstParseError("vocab_size cannot exceed clusters")
    for name in ("vocab_size", "frames", "clusters", "feature_dim"):
        if getattr(task_config, name) < 1:
            raise FstParseError(f"{name} must be positive")
    if task_config.num_utterances < 1:
        raise FstParseError("num_utterances must be positive")
    # Stream indices run 0..2^64-1.  Training reserves 2 x samples_per_step
    # indices per step; every dev record draws samples_per_step per dev
    # utterance, for the initial record and one per eval interval.
    samples = train_config.samples_per_step
    if train_config.steps * 2 * samples > 1 << 64:
        raise FstParseError(
            "steps x 2 x samples_per_step must be at most 2^64"
        )
    records = 1 - (-train_config.steps // train_config.eval_interval)
    num_dev = _dev_size(task_config.num_utterances)
    if records * num_dev * samples > 1 << 64:
        raise FstParseError(
            "dev records x dev utterances x samples_per_step must be at "
            "most 2^64"
        )


def build_task(train_config: TrainConfig, task_config: TaskConfig):
    seed = (
        task_config.task_seed
        if task_config.task_seed is not None
        else train_config.seed
    )
    return make_synthetic_task(
        task_config.vocab_size,
        task_config.frames,
        task_config.clusters,
        task_config.feature_dim,
        task_config.num_utterances,
        seed,
        task_config.noise,
    )
