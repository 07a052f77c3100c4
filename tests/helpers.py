"""Shared fixtures and generators for the test suite."""

import math
from bisect import bisect_right
from itertools import accumulate

import numpy as np

from sampled_mbr import (
    EPSILON,
    DimensionMismatchError,
    Edge,
    LinearModel,
    Path,
    SampleStream,
    ShiftedLoss,
    Utterance,
    Wfst,
    backward,
    build_score_fst,
    compose,
    forward,
    path_log_weight,
    sampled_estimate,
)


def make_path(fst: Wfst, edge_ids) -> Path:
    """Build a validated Path from edge ids, summing log-weights in order."""
    log_weight = path_log_weight(fst, Path(tuple(edge_ids), 0.0))
    return Path(tuple(edge_ids), log_weight)


def dp_edit_distance(hyp, ref) -> int:
    """Levenshtein distance by the two-row dynamic program (test oracle)."""
    if not ref:
        return len(hyp)
    prev = list(range(len(ref) + 1))
    for i, h in enumerate(hyp, 1):
        cur = [i] + [0] * len(ref)
        for j, r in enumerate(ref, 1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (h != r),
            )
        prev = cur
    return prev[-1]


def occupancy_matrix(
    fst: Wfst, path: Path, num_frames: int, num_symbols: int
) -> np.ndarray:
    """One path's (T, Q) occupancy, built edge by edge (test oracle)."""
    gamma = np.zeros((num_frames, num_symbols))
    t = 0
    for k in path.edges:
        label = fst.edges[k].ilabel
        if label == EPSILON:
            continue
        if t >= num_frames:
            raise DimensionMismatchError(
                f"path consumes more than {num_frames} frames"
            )
        if not 1 <= label <= num_symbols:
            raise DimensionMismatchError(
                f"input label {label} outside 1..{num_symbols}"
            )
        gamma[t, label - 1] = 1.0
        t += 1
    if t != num_frames:
        raise DimensionMismatchError(
            f"path consumes {t} frames, expected {num_frames}"
        )
    return gamma


def log_total_weight(fst: Wfst) -> float:
    """Log of the lattice partition function (sum of all path weights)."""
    return float(backward(fst)[fst.initial])


def sample_path(fst: Wfst, rng: np.random.Generator) -> Path:
    """One ancestral draw from an already-stochastic acyclic transducer.

    At each state one uniform picks the outgoing edge by inverse CDF over
    the edge probabilities in edge-id order, never choosing a trailing
    zero-probability edge.  The returned log-weight sums the stochastic
    edge weights, i.e. it is the log probability of the draw.
    """
    ids: list[int] = []
    log_weight = 0.0
    state = fst.initial
    while state != fst.final:
        out = fst.out_edge_ids(state)
        probs = [
            math.exp(w) if math.isfinite(w) else 0.0
            for w in (fst.edges[k].log_weight for k in out)
        ]
        cum = list(accumulate(probs))
        idx = bisect_right(cum, rng.random() * cum[-1])
        idx = min(idx, max(i for i, p in enumerate(probs) if p > 0.0))
        e = fst.edges[out[idx]]
        ids.append(out[idx])
        log_weight += e.log_weight
        state = e.dst
    return Path(tuple(ids), log_weight)


def utterance_lattice(model: LinearModel, utterance: Utterance) -> Wfst:
    """Compose the current scores with the utterance's decoder graph."""
    return compose(
        build_score_fst(forward(model, utterance.features)),
        utterance.decoder_graph,
    )


def loss_shift_check(
    fst: Wfst,
    loss,
    num_frames: int,
    num_symbols: int,
    num_samples: int,
    seed: int,
    shift: float,
    variance_reduction: bool = True,
) -> bool:
    """True iff shifting the loss by a constant leaves the gradient bits unchanged."""
    gradients = [
        sampled_estimate(
            fst,
            current,
            num_frames,
            num_symbols,
            num_samples,
            SampleStream(seed),
            variance_reduction=variance_reduction,
        ).gradient.tobytes()
        for current in (loss, ShiftedLoss(loss, shift))
    ]
    return gradients[0] == gradients[1]


def two_path_fixture() -> Wfst:
    """Two parallel edges with linear weights 2 and 3 (probs 0.4 / 0.6)."""
    return Wfst(
        2,
        [
            Edge(0, 1, 1, 1, math.log(2)),
            Edge(0, 1, 2, 2, math.log(3)),
        ],
        final=1,
    )


def two_path_lattice() -> tuple[Wfst, np.ndarray]:
    """Score-matrix version of the 0.4/0.6 fixture (T=1, Q=2)."""
    z = np.log(np.array([[2.0, 3.0]]))
    return build_score_fst(z), z


def identity_decoder(num_symbols: int) -> Wfst:
    """Transducer mapping every symbol to itself (plus an exit edge)."""
    edges = [Edge(0, 0, q, q, 0.0) for q in range(1, num_symbols + 1)]
    edges.append(Edge(0, 1, 0, 0, 0.0))
    return Wfst(2, edges, final=1)


def uniform_lattice(num_frames: int, num_symbols: int) -> Wfst:
    """All-zero score sausage composed with the identity decoder."""
    z = np.zeros((num_frames, num_symbols))
    return compose(build_score_fst(z), identity_decoder(num_symbols))


def random_acyclic_wfst(rng: np.random.Generator, max_states: int = 30) -> Wfst:
    """Random DAG with a guaranteed complete path and assorted weights.

    States are topologically ordered by id.  A random spine guarantees the
    final state is reachable; extra forward edges (some with -inf weight)
    add branching.
    """
    num_states = int(rng.integers(4, max_states + 1))
    final = num_states - 1
    edges = []
    spine = sorted(
        rng.choice(
            np.arange(1, final), size=min(3, final - 1), replace=False
        ).tolist()
    )
    chain = [0] + spine + [final]
    for a, b in zip(chain, chain[1:]):
        edges.append(
            Edge(a, b, int(rng.integers(0, 4)), int(rng.integers(0, 4)),
                 float(rng.normal(0.0, 2.0)))
        )
    for src in range(final):
        for dst in range(src + 1, num_states):
            if rng.random() < 2.0 / num_states:
                weight = float(rng.normal(0.0, 2.0))
                if rng.random() < 0.05:
                    weight = float("-inf")
                edges.append(
                    Edge(src, dst, int(rng.integers(0, 4)),
                         int(rng.integers(0, 4)), weight)
                )
    return Wfst(num_states, edges, final=final)


def random_parallel_fixture(rng: np.random.Generator) -> Wfst:
    """2..10 parallel edges with distinct output words and random weights."""
    num_edges = int(rng.integers(2, 11))
    edges = [
        Edge(0, 1, q, q, float(rng.normal(0.0, 1.0)))
        for q in range(1, num_edges + 1)
    ]
    return Wfst(2, edges, final=1)


def word_chain_decoder(num_frames, num_symbols, vocab_size) -> Wfst:
    """Chain decoder mapping symbols above vocab_size to epsilon output."""
    edges = [
        Edge(t, t + 1, q, q if q <= vocab_size else 0, 0.0)
        for t in range(num_frames)
        for q in range(1, num_symbols + 1)
    ]
    return Wfst(num_frames + 1, edges, final=num_frames)


def random_task(rng: np.random.Generator, max_frames: int = 4,
                max_symbols: int = 3):
    """Random (lattice, z, decoder, reference) tuple for gradient checks."""
    num_frames = int(rng.integers(1, max_frames + 1))
    num_symbols = int(rng.integers(2, max_symbols + 1))
    vocab = int(rng.integers(1, num_symbols + 1))
    z = rng.normal(0.0, 1.0, size=(num_frames, num_symbols))
    decoder = word_chain_decoder(num_frames, num_symbols, vocab)
    ref_len = int(rng.integers(0, num_frames + 1))
    reference = tuple(int(w) for w in rng.integers(1, vocab + 1, size=ref_len))
    lattice = compose(build_score_fst(z), decoder)
    return lattice, z, decoder, reference
