"""Score lattices and transducer composition.

A score matrix ``z`` of shape (T, Q) induces a "sausage" acceptor with one
edge per (frame, symbol) pair; composing it with a decoder transducer gives
the lattice whose paths carry frame-symbol sequences on the input tape and
word sequences on the output tape.  That lattice's states and edges depend
only on the decoder graph, T and Q, so ``LatticeTopology`` composes once
and gives the lattice at any score matrix by reweighting.
"""

from __future__ import annotations

import math
from typing import NoReturn

import numpy as np

from .errors import (
    DimensionMismatchError,
    FstParseError,
    UnsupportedCompositionError,
)
from .fst import EPSILON, Wfst, edge_lists, empty_wfst, topological_order


def build_score_fst(log_scores: np.ndarray) -> Wfst:
    """Sausage acceptor for a (T, Q) score matrix.

    State t connects to state t+1 with Q parallel edges; the edge for
    symbol q (1-based) has ilabel = olabel = q and log-weight z[t, q-1].
    Entries may be -inf (a disallowed symbol) but not NaN or +inf.
    """
    z = _checked_scores(log_scores)
    num_frames, num_symbols = z.shape
    # Edge t * Q + q - 1 is symbol q at frame t.
    src = np.repeat(np.arange(num_frames), num_symbols)
    symbols = np.tile(np.arange(1, num_symbols + 1), num_frames)
    return Wfst._from_arrays(
        num_frames + 1, num_frames, src, src + 1, symbols, symbols, z.ravel()
    )


def _checked_scores(log_scores: np.ndarray) -> np.ndarray:
    """The scores as a float matrix; DimensionMismatchError unless 2-d,
    nonempty and free of NaN and +inf."""
    z = np.asarray(log_scores, dtype=float)
    if z.ndim != 2 or z.shape[0] < 1 or z.shape[1] < 1:
        raise DimensionMismatchError(
            f"score matrix must be 2-d and nonempty, got shape {z.shape}"
        )
    if np.isnan(z).any() or (z == np.inf).any():
        raise DimensionMismatchError("score matrix contains NaN or +inf")
    return z


class LatticeTopology:
    """``compose(build_score_fst(z), decoder_graph)`` for every (T, Q) z.

    Composition never looks at weights, so the lattice's states, edges and
    labels are those of one composition, made here with every score -0.0,
    the identity of float addition: ``lattice`` carries the decoder
    graph's own weights.  Each edge that consumes a sausage edge keeps its
    id, frame t times Q plus symbol q - 1, the index of its score in
    ``z.ravel()``; epsilon-input edges keep -1.  ``at`` then adds the
    scores to the weights as compose adds them, bit for bit.  The lattice
    builds its topological order and list view here, before any copy, so
    every lattice ``at`` gives shares them.
    """

    def __init__(self, decoder_graph: Wfst, num_frames: int, num_symbols: int):
        self.shape = (num_frames, num_symbols)
        self.decoder_graph = decoder_graph
        self.lattice = lattice = compose(
            build_score_fst(np.full(self.shape, -0.0)), decoder_graph
        )
        out, dst = edge_lists(lattice)
        inputs = lattice.ilabel[:-1]
        consumed = (inputs != EPSILON).tolist()
        # Every state pairs one sausage state, its frame, with a decoder
        # state, and every state is reachable from the start.
        frame = [0] * lattice.num_states
        for q in topological_order(lattice):
            for k in out[q]:
                frame[dst[k]] = frame[q] + consumed[k]
        index = np.array(frame)[lattice.src] * num_symbols + inputs - 1
        self.score_index = np.where(inputs != EPSILON, index, -1)

    def at(self, log_scores: np.ndarray) -> Wfst:
        """The lattice at score matrix ``log_scores``.

        Raises DimensionMismatchError unless the scores have this
        topology's (T, Q) shape and no NaN or +inf entry, and
        InvalidFstError where a score plus a decoder weight overflows.
        """
        z = _checked_scores(log_scores)
        if z.shape != self.shape:
            raise DimensionMismatchError(
                f"score matrix has shape {z.shape}, expected {self.shape}"
            )
        consumed = self.score_index >= 0
        weights = self.lattice.log_weight.copy()
        # A sum past the float range is +inf, which with_weights rejects
        # as the Wfst constructor rejects compose's, without a warning.
        with np.errstate(over="ignore"):
            weights[consumed] += z.ravel()[self.score_index[consumed]]
        return self.lattice.with_weights(weights)


def compose(a: Wfst, b: Wfst) -> Wfst:
    """Compose two transducers, matching a's output tape to b's input tape.

    ``a`` must have no epsilon output labels, as a score sausage from
    build_score_fst has none; otherwise UnsupportedCompositionError is
    raised.  Edges of ``b`` with epsilon input fire without consuming an
    edge of ``a``.

    States are numbered in breadth-first discovery order from the start
    pair, then trimmed to those on a complete path, keeping their order,
    as are the edges.  With no complete path this returns empty_wfst().
    """
    if (a.olabel[:-1] == EPSILON).any():
        raise UnsupportedCompositionError(
            "left transducer has epsilon output labels"
        )
    a_out, a_dst = edge_lists(a)
    a_olabel, b_dst = a.olabel.tolist(), edge_lists(b)[1]

    # Index b's out-edge ids by input label for the match step.
    b_by_label: list[dict[int, list[int]]] = [{} for _ in range(b.num_states)]
    for kb, (src, ilabel) in enumerate(zip(b.src.tolist(), b.ilabel.tolist())):
        b_by_label[src].setdefault(ilabel, []).append(kb)

    # The BFS queue is the list of discovered pairs, indexed by state id.
    # Each arc records its source and destination states and the a and b
    # edges it pairs, a's as -1 where b moves alone.
    pairs = [(a.initial, b.initial)]
    state_id = {pairs[0]: 0}
    arcs: list[tuple[int, int, int, int]] = []
    for src, (qa, qb) in enumerate(pairs):
        moves = [
            ((a_dst[ka], b_dst[kb]), ka, kb)
            for ka in a_out[qa]
            for kb in b_by_label[qb].get(a_olabel[ka], ())
        ]
        # b moves alone; legal because a has no output epsilons.
        moves += [
            ((qa, b_dst[kb]), -1, kb) for kb in b_by_label[qb].get(EPSILON, ())
        ]
        for pair, ka, kb in moves:
            if pair not in state_id:
                state_id[pair] = len(pairs)
                pairs.append(pair)
            arcs.append((src, state_id[pair], ka, kb))

    final = state_id.get((a.final, b.final))
    if final is None:
        return empty_wfst()
    # Every state is reachable from state 0, so one reverse sweep from the
    # final state keeps exactly those on a complete path, state 0 included.
    preds: list[list[int]] = [[] for _ in pairs]
    for arc in arcs:
        preds[arc[1]].append(arc[0])
    alive = [final]
    seen = {final}
    for q in alive:
        for p in preds[q]:
            if p not in seen:
                seen.add(p)
                alive.append(p)
    renumber = np.full(len(pairs), -1, dtype=np.intp)
    renumber[sorted(alive)] = np.arange(len(alive))
    table = np.array(arcs, dtype=np.intp).reshape(-1, 4)
    src, dst, ka, kb = table[renumber[table[:, 1]] >= 0].T
    # Entry -1, read where b moves alone, is a's input epsilon and a weight
    # of -0.0, which leaves every b weight unchanged.  A sum past the float
    # range is +inf, which the Wfst check rejects, without a warning.
    with np.errstate(over="ignore"):
        log_weight = np.append(a.log_weight, -0.0)[ka] + b.log_weight[kb]
    return Wfst._from_arrays(
        len(alive), int(renumber[final]), renumber[src], renumber[dst],
        a.ilabel[ka], b.olabel[kb], log_weight,
    )


def path_occupancy(
    fst: Wfst, edge_ids: np.ndarray, num_frames: int, num_symbols: int
) -> np.ndarray:
    """(N, T, Q) stack of which symbol each path used at each frame.

    The paths are the rows of an edge-id matrix, padded with -1 (see
    ``edge_id_matrix``).  Path n's frame t is one-hot at its t-th
    non-epsilon input label.  For a lattice built from a (T, Q) score
    matrix this is the gradient of the path's log-weight with respect to
    the scores.  The labels are one gather, and the ones are set by one
    fancy-indexed assignment.
    """
    inputs = fst.ilabel[edge_ids]
    consumed = inputs != EPSILON
    if (consumed.sum(axis=1) != num_frames).any():
        _raise_occupancy_error(inputs, num_frames, num_symbols)
    symbols = inputs[consumed]
    # Labels are nonnegative and epsilons are dropped, so only Q can fail.
    if symbols.size and symbols.max() > num_symbols:
        _raise_occupancy_error(inputs, num_frames, num_symbols)
    del inputs, consumed
    # Row-major (path, frame) order, so entry i is cell i of the stack's
    # (N * T, Q) view; the flat one-hot index reuses the symbol buffer.
    flat = symbols.astype(np.intp, copy=False)
    flat += np.arange(-1, flat.size * num_symbols - 1, num_symbols)
    gamma = np.zeros((len(edge_ids), num_frames, num_symbols))
    gamma.ravel()[flat] = 1.0
    return gamma


def _raise_occupancy_error(
    inputs: np.ndarray, num_frames: int, num_symbols: int
) -> NoReturn:
    """The error of the first path whose labels do not fit (T, Q)."""
    for row in inputs.tolist():
        labels = [label for label in row if label != EPSILON]
        for t, label in enumerate(labels):
            if t >= num_frames:
                raise DimensionMismatchError(
                    f"path consumes more than {num_frames} frames"
                )
            if not 1 <= label <= num_symbols:
                raise DimensionMismatchError(
                    f"input label {label} outside 1..{num_symbols}"
                )
        if len(labels) != num_frames:
            raise DimensionMismatchError(
                f"path consumes {len(labels)} frames, expected {num_frames}"
            )


def parse_logits_csv(text: str) -> np.ndarray:
    """Parse a (T, Q) score matrix from comma-separated rows of floats."""
    rows: list[list[float]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip():
            continue
        fields = raw.split(",")
        row = []
        for field in fields:
            try:
                value = float(field)
            except ValueError:
                raise FstParseError(
                    f"malformed number {field.strip()!r}", lineno
                ) from None
            if math.isnan(value) or value == math.inf:
                raise FstParseError(f"invalid score {field.strip()!r}", lineno)
            row.append(value)
        if rows and len(row) != len(rows[0]):
            raise FstParseError(
                f"row has {len(row)} columns, expected {len(rows[0])}", lineno
            )
        rows.append(row)
    if not rows:
        raise FstParseError("empty score matrix")
    return np.array(rows)

