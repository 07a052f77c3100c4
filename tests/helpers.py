"""Shared fixtures, generators and reference code for the test suite."""

import math
from bisect import bisect_right
from collections import deque
from itertools import accumulate

import numpy as np

from sampled_mbr import (
    EPSILON,
    CyclicFstError,
    DimensionMismatchError,
    Edge,
    FstParseError,
    LinearModel,
    Path,
    PathOverflowError,
    UnsupportedCompositionError,
    Utterance,
    Wfst,
    backward,
    build_score_fst,
    compose,
    empty_wfst,
    enumerate_paths,
    forward,
    path_input_labels,
    sampled_estimate,
)
from sampled_mbr.fst import normalized
from sampled_mbr.training import DEV_PATH_BOUND, make_loss


class InvalidPathError(ValueError):
    """Edge sequence does not form a path from the initial to the final state."""


def path_log_weight(fst: Wfst, path: Path) -> float:
    """Left-to-right sum of the path's edge log-weights.

    Validates incidence: consecutive edges must chain from the initial to
    the final state.  An empty edge sequence is the empty path, legal only
    when initial == final, with log-weight 0.
    """
    if not path.edges:
        if fst.initial != fst.final:
            raise InvalidPathError("empty path but initial != final")
        return 0.0
    total = 0.0
    at = fst.initial
    for k in path.edges:
        if not 0 <= k < len(fst.edges):
            raise InvalidPathError(f"unknown edge id {k}")
        e = fst.edges[k]
        if e.src != at:
            raise InvalidPathError(
                f"edge {k} starts at state {e.src}, expected {at}"
            )
        total += e.log_weight
        at = e.dst
    if at != fst.final:
        raise InvalidPathError(f"path ends at state {at}, not final")
    return total


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


def reweight_stochastic(fst: Wfst) -> Wfst:
    """Materialized copy whose out-weights sum to one at every live state.

    Each edge weight becomes w + beta[dst] - beta[src]; path probabilities
    are preserved and every complete path's new log-weight equals its old
    log-weight minus the log partition function.  Edges touching a state
    that cannot reach the final keep semiring zero (-inf).  Sampling does
    this reweighting on the fly; the materialized form lets tests check
    stochasticity directly.
    """
    beta = backward(fst)
    edges = []
    for e in fst.edges:
        into, out_of = float(beta[e.dst]), float(beta[e.src])
        if math.isfinite(into) and math.isfinite(out_of):
            w = e.log_weight + into - out_of
        else:
            w = float("-inf")
        edges.append(Edge(e.src, e.dst, e.ilabel, e.olabel, w))
    return Wfst(fst.num_states, edges, final=fst.final)


class ShiftedLoss:
    """A base loss plus a constant offset (for shift-invariance checks)."""

    def __init__(self, base, offset: float):
        self.base = base
        self.offset = float(offset)

    def __call__(self, fst: Wfst, path: Path) -> float:
        return self.base(fst, path) + self.offset

    def batch(self, fst: Wfst, edge_ids: np.ndarray) -> np.ndarray:
        return self.base.batch(fst, edge_ids) + self.offset


def format_logits_csv(z: np.ndarray) -> str:
    """Score matrix as the CSV that parse_logits_csv reads, bit-exactly."""
    return "".join(
        ",".join(repr(float(v)) for v in row) + "\n"
        for row in np.asarray(z, dtype=float)
    )


def format_label_sequence(labels) -> str:
    """Label ids as the text that parse_label_sequence reads."""
    return " ".join(str(int(w)) for w in labels) + "\n"


def parse_model_text(text: str) -> LinearModel:
    """Read the text that format_model_text writes."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FstParseError("empty model file")
    try:
        feature_dim, num_symbols = map(int, lines[0].split())
    except ValueError:
        raise FstParseError("malformed model dims line", 1) from None
    if len(lines) != feature_dim + 2:
        raise FstParseError(
            f"expected {feature_dim + 2} lines, found {len(lines)}"
        )
    rows = []
    for lineno, line in enumerate(lines[1:], 2):
        try:
            row = [float(v) for v in line.split()]
        except ValueError:
            raise FstParseError("malformed parameter row", lineno) from None
        if len(row) != num_symbols:
            raise FstParseError(
                f"expected {num_symbols} values per row", lineno
            )
        rows.append(row)
    return LinearModel(np.array(rows[:-1]), np.array(rows[-1]))


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
            seed,
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


def bigram_decoder(
    rng: np.random.Generator, num_symbols: int, vocab: int
) -> Wfst:
    """Bigram-style decoder whose states remember the last symbol.

    State c is the context (0 at the start); every symbol q moves to state
    q with a random log-probability, outputting word q when q <= vocab and
    epsilon otherwise, and every context but the start exits to the final
    state on an epsilon-input edge.
    """
    final = num_symbols + 1
    edges = []
    for context in range(num_symbols + 1):
        probs = rng.dirichlet(np.ones(num_symbols))
        for q in range(1, num_symbols + 1):
            word = q if q <= vocab else EPSILON
            edges.append(
                Edge(context, q, q, word, float(np.log(probs[q - 1])))
            )
        if context:
            edges.append(Edge(context, final, EPSILON, EPSILON, 0.0))
    return Wfst(final + 1, edges, final=final)


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


def reference_compose(a: Wfst, b: Wfst) -> Wfst:
    """Composition by a deque BFS, then a separate trim (test oracle).

    ``a`` must have no epsilon output labels, as a score sausage from
    build_score_fst has none; otherwise UnsupportedCompositionError is
    raised.  Edges of ``b`` with epsilon input fire without consuming an
    edge of ``a``.

    The result is trimmed to states on a complete path.  When no complete
    path exists the canonical two-state empty transducer is returned.
    """
    if any(e.olabel == EPSILON for e in a.edges):
        raise UnsupportedCompositionError(
            "left transducer has epsilon output labels"
        )

    # Index b's out-edges by input label for the match step.
    b_by_label: list[dict[int, list[int]]] = []
    for qb in range(b.num_states):
        table: dict[int, list[int]] = {}
        for k in b.out_edge_ids(qb):
            table.setdefault(b.edges[k].ilabel, []).append(k)
        b_by_label.append(table)

    start = (a.initial, b.initial)
    state_id: dict[tuple[int, int], int] = {start: 0}
    frontier = deque([start])
    edges: list[Edge] = []
    while frontier:
        qa, qb = frontier.popleft()
        src = state_id[(qa, qb)]

        def target(pair: tuple[int, int]) -> int:
            if pair not in state_id:
                state_id[pair] = len(state_id)
                frontier.append(pair)
            return state_id[pair]

        for ka in a.out_edge_ids(qa):
            ea = a.edges[ka]
            for kb in b_by_label[qb].get(ea.olabel, ()):
                eb = b.edges[kb]
                dst = target((ea.dst, eb.dst))
                edges.append(
                    Edge(
                        src,
                        dst,
                        ea.ilabel,
                        eb.olabel,
                        ea.log_weight + eb.log_weight,
                    )
                )
        for kb in b_by_label[qb].get(EPSILON, ()):
            # b moves alone; legal because a has no output epsilons.
            eb = b.edges[kb]
            dst = target((qa, eb.dst))
            edges.append(Edge(src, dst, EPSILON, eb.olabel, eb.log_weight))

    final_pair = (a.final, b.final)
    if final_pair not in state_id:
        return empty_wfst()
    return _reference_connect(len(state_id), edges, state_id[final_pair])


def _reference_connect(num_states: int, edges: list[Edge], final: int) -> Wfst:
    """Keep only the states that reach ``final``.

    The composition's BFS discovered every state from state 0, so all are
    accessible and one reverse sweep from ``final`` trims the rest.  State
    0 reaches ``final`` and keeps id 0; an edge whose target reaches
    ``final`` has a source that does too.
    """
    preds: list[list[int]] = [[] for _ in range(num_states)]
    for e in edges:
        preds[e.dst].append(e.src)
    alive = {final}
    frontier = deque(alive)
    while frontier:
        for j in preds[frontier.popleft()]:
            if j not in alive:
                alive.add(j)
                frontier.append(j)
    renumber = {old: new for new, old in enumerate(sorted(alive))}
    kept = [
        Edge(renumber[e.src], renumber[e.dst], e.ilabel, e.olabel, e.log_weight)
        for e in edges
        if e.dst in alive
    ]
    return Wfst(len(alive), kept, final=renumber[final])


def reference_topological_order(fst: Wfst) -> tuple[int, ...]:
    """Kahn topological order with a deque queue, uncached (test oracle).

    Raises CyclicFstError when no such order exists.  Isolated states are
    included; the order among incomparable states follows state id.
    """
    indeg = [0] * fst.num_states
    for e in fst.edges:
        indeg[e.dst] += 1
    queue = deque(q for q in range(fst.num_states) if indeg[q] == 0)
    order: list[int] = []
    while queue:
        q = queue.popleft()
        order.append(q)
        for k in fst.out_edge_ids(q):
            j = fst.edges[k].dst
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    if len(order) != fst.num_states:
        raise CyclicFstError("transducer contains a cycle")
    return tuple(order)


def reference_enumerate_paths(fst: Wfst, max_paths: int) -> list[Path]:
    """Lexicographic paths from three parallel DFS stacks (test oracle).

    Raises PathOverflowError as soon as the count would exceed ``max_paths``
    and CyclicFstError on cyclic input.
    """
    reference_topological_order(fst)  # reject cycles before walking
    results: list[Path] = []
    if fst.initial == fst.final:
        if max_paths < 1:
            raise PathOverflowError(
                f"more than {max_paths} paths during enumeration"
            )
        results.append(Path((), 0.0))
    # DFS trying edges in increasing edge-id order yields lexicographic paths.
    stack: list[tuple[int, int]] = []  # (state, index into out_edge_ids)
    prefix: list[int] = []
    weights: list[float] = [0.0]
    stack.append((fst.initial, 0))
    while stack:
        state, idx = stack.pop()
        out = fst.out_edge_ids(state)
        if idx >= len(out):
            if prefix:
                prefix.pop()
                weights.pop()
            continue
        stack.append((state, idx + 1))
        k = out[idx]
        e = fst.edges[k]
        prefix.append(k)
        weights.append(weights[-1] + e.log_weight)
        if e.dst == fst.final:
            if len(results) >= max_paths:
                raise PathOverflowError(
                    f"more than {max_paths} paths during enumeration"
                )
            results.append(Path(tuple(prefix), weights[-1]))
            prefix.pop()
            weights.pop()
        else:
            stack.append((e.dst, 0))
    return results


class ReferenceEnumeratedObjective:
    """Exact expected loss of one utterance from its own enumeration of the
    zero-score lattice, every path scored (test oracle)."""

    def __init__(self, utterance: Utterance, loss_kind: str, num_symbols: int):
        num_frames = utterance.features.shape[0]
        z0 = np.zeros((num_frames, num_symbols))
        lattice = compose(build_score_fst(z0), utterance.decoder_graph)
        paths = enumerate_paths(lattice, DEV_PATH_BOUND)
        loss = make_loss(loss_kind, utterance)
        self.losses = np.array([loss(lattice, p) for p in paths])
        labels = [path_input_labels(lattice, p) for p in paths]
        self.symbols = np.array(labels, dtype=np.intp) - 1  # (num_paths, T)
        self.offsets = np.array([p.log_weight for p in paths])
        self._frames = np.arange(num_frames)

    def expected_loss(self, z: np.ndarray) -> float:
        log_w = self.offsets + z[self._frames, self.symbols].sum(axis=1)
        return float(normalized(log_w) @ self.losses)
