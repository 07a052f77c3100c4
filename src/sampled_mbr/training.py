"""Desk-scale gradient-descent training on synthetic lattice tasks.

A linear model maps per-frame feature vectors to symbol scores; each step
builds the utterance lattice from the current scores, estimates the
expected-loss gradient by path sampling, and applies one SGD update.
Exact enumeration of the (small) dev lattices provides noise-free
training curves; each distinct (decoder graph, frame count) is composed
once per run, its dev lattice is enumerated once, and its paths, with
their distinct output word sequences, are shared by every dev utterance
on it; a word-edit dev loss scores each sequence once.  Paths are scored
only through ``loss.batch`` and ``losses.score_blocks``.  The exact dev
value adds each path's frame scores left to right, so with eight or more
frames its low bits may differ from those of numpy's pairwise row sum.
The sampled paths' uniforms are drawn ahead of the walks, for a run of
training steps or for a whole dev record per ``stream_uniforms`` call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace
from functools import cached_property
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
    distinct_rows,
    edge_id_matrix,
    enumerate_paths,
    normalized,
)
from .losses import LOSS_KINDS, score_blocks
from .sampling import (
    CHUNK_ROWS,
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
    """The utterance's ``LOSS_KINDS`` loss of this kind."""
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    if kind == "word-edit":
        return LOSS_KINDS[kind](utterance.reference)
    if utterance.alignment is None:
        raise ValueError("frame-error loss needs an utterance alignment")
    return LOSS_KINDS[kind](utterance.alignment)


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
    ``edge_ids`` matrix, their decoder ``offsets``, and the frame-major
    (T, paths) matrix ``flat`` whose row t holds each path's frame-t score
    index in ``z.ravel()``.  ``word_rows`` and ``word_inverse`` are the
    paths' distinct output word sequences: one representative edge-id
    row per sequence, in first-appearance order, and per path the index
    of its sequence.  Only word-edit objectives read them, so they are
    found on first access.
    """

    def __init__(self, topology: LatticeTopology):
        self.lattice = lattice = topology.lattice
        self.shape = topology.shape
        paths = enumerate_paths(lattice, DEV_PATH_BOUND)
        if not paths:
            raise DegenerateLatticeError("no complete path")
        self.edge_ids = edge_ids = edge_id_matrix(paths)
        # Per-path decoder contribution: the path weight at zero scores.
        self.offsets = np.array([p.log_weight for p in paths])
        # Free the Path objects before the matrix passes below.
        del paths
        # The -1 row padding reads the appended -1, as epsilon inputs do.
        index = np.append(topology.score_index, -1)[edge_ids]
        flat = index[index >= 0].reshape(len(edge_ids), self.shape[0])
        self.flat = np.ascontiguousarray(flat.T)

    @cached_property
    def word_inverse(self) -> np.ndarray:
        # Each path's words, left-justified: a stable sort moves epsilons
        # (and the padding, which reads epsilon) behind them.
        labels = self.lattice.olabel[self.edge_ids]
        order = np.argsort(labels == EPSILON, axis=1, kind="stable")
        return distinct_rows(np.take_along_axis(labels, order, axis=1))[1]

    @cached_property
    def word_rows(self) -> np.ndarray:
        # Sequences are numbered by first appearance, so the running
        # maximum of the inverse first reaches k at sequence k's first path.
        inverse = self.word_inverse
        first = np.searchsorted(
            np.maximum.accumulate(inverse), np.arange(inverse.max() + 1)
        )
        return self.edge_ids[first]


class EnumeratedObjective:
    """Reusable exact expected loss for one dev utterance.

    It keeps the ``shape``, ``flat`` score indices and ``offsets`` of the
    utterance's shared ``_DevLattice``; only its per-path ``losses`` are
    its own, from one ``loss.batch`` call.  A word-edit loss depends only
    on a path's words, so it scores one representative row per word
    sequence; a frame-error loss reads the input tape and scores every
    path.  Re-evaluating at new scores gathers them frame-major, adds the
    T frame rows left to right from 0.0 (as numpy's row sum adds fewer
    than eight terms; it adds eight or more pairwise), then the offsets,
    and takes a vectorized softmax.
    """

    def __init__(self, utterance: Utterance, loss_kind: str, dev: _DevLattice):
        self.loss = make_loss(loss_kind, utterance)
        if loss_kind == "word-edit":
            words = self.loss.batch(dev.lattice, dev.word_rows)
            self.losses = words[dev.word_inverse]
        else:
            self.losses = self.loss.batch(dev.lattice, dev.edge_ids)
        self.shape, self.flat, self.offsets = dev.shape, dev.flat, dev.offsets

    def expected_loss(self, z: np.ndarray) -> float:
        """Raises DimensionMismatchError unless ``z`` has the (T, Q) shape
        of the topology."""
        z = np.asarray(z)
        if z.shape != self.shape:
            raise DimensionMismatchError(
                f"score matrix has shape {z.shape}, expected {self.shape}"
            )
        log_w = np.zeros(len(self.offsets))
        for frame in z.ravel()[self.flat]:
            log_w += frame
        log_w += self.offsets
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
    reduction.  The streams of as many consecutive steps as fit in
    CHUNK_ROWS are drawn by one ``stream_uniforms`` call over their whole
    index range, one run of consecutive streams, and each step keeps the
    rows it walks.
    """
    samples = config.samples_per_step
    batch = samples if config.variance_reduction else 2 * samples
    run = max(1, CHUNK_ROWS // (2 * samples))
    for first in range(0, config.steps, run):
        count = min(run, config.steps - first)
        rows = stream_uniforms(
            config.seed, 2 * samples * first, 2 * samples * count, num_draws
        )
        yield from rows.reshape(count, 2 * samples, num_draws)[:, :batch]
        # Free this run's rows before the next draw.
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
    enumeration.  With identical inputs the records are bit-identical
    except for wall time.

    Every sampled path of the run walks a row of as many uniforms as the
    longest path of any utterance lattice has edges.  Lattice topology does
    not depend on the scores, so each (decoder graph, frame count) of the
    dataset is composed once, into a LatticeTopology that gives its
    lattices at every step and record and that count.  A record walks the
    rows of all dev utterances on one topology in one call, and scores
    them in one ``score_blocks`` call.
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
    # The objectives keep what they evaluate; free the enumerations.
    del lattices
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
        rows = stream_uniforms(dev_seed, first, len(dev) * samples, num_draws)
        rows = rows.reshape(len(dev), samples, num_draws)
        scores = [forward(model, u.features) for u in dev]
        exact = [o.expected_loss(z) for o, z in zip(objectives, scores)]
        sampled = [0.0] * len(dev)
        for k, members in dev_groups.items():
            group = [topologies[k].at(scores[d]) for d in members]
            edge_ids = walk_paths(group, rows[members].reshape(-1, num_draws))
            losses = score_blocks(
                [objectives[d].loss for d in members],
                topologies[k].lattice,
                edge_ids,
            )
            for d, row in zip(members, losses):
                sampled[d] = float(np.mean(row))
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
    if loss not in LOSS_KINDS:
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
