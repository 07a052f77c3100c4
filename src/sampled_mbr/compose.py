"""Score lattices and transducer composition.

A score matrix ``z`` of shape (T, Q) induces a "sausage" acceptor with one
edge per (frame, symbol) pair; composing it with a decoder transducer gives
the lattice whose paths carry frame-symbol sequences on the input tape and
word sequences on the output tape.
"""

from __future__ import annotations

import math
from typing import NoReturn, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    FstParseError,
    UnsupportedCompositionError,
)
from .fst import EPSILON, Edge, Path, Wfst, empty_wfst, path_input_labels


def build_score_fst(log_scores: np.ndarray) -> Wfst:
    """Sausage acceptor for a (T, Q) score matrix.

    State t connects to state t+1 with Q parallel edges; the edge for
    symbol q (1-based) has ilabel = olabel = q and log-weight z[t, q-1].
    Entries may be -inf (a disallowed symbol) but not NaN or +inf.
    """
    z = np.asarray(log_scores, dtype=float)
    if z.ndim != 2 or z.shape[0] < 1 or z.shape[1] < 1:
        raise DimensionMismatchError(
            f"score matrix must be 2-d and nonempty, got shape {z.shape}"
        )
    if np.isnan(z).any() or (z == np.inf).any():
        raise DimensionMismatchError("score matrix contains NaN or +inf")
    num_frames, num_symbols = z.shape
    edges = [
        Edge(t, t + 1, q + 1, q + 1, float(z[t, q]))
        for t in range(num_frames)
        for q in range(num_symbols)
    ]
    return Wfst(num_frames + 1, edges, final=num_frames)


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
    if any(e.olabel == EPSILON for e in a.edges):
        raise UnsupportedCompositionError(
            "left transducer has epsilon output labels"
        )

    # Index b's out-edges by input label for the match step.
    b_by_label: list[dict[int, list[Edge]]] = [{} for _ in range(b.num_states)]
    for eb in b.edges:
        b_by_label[eb.src].setdefault(eb.ilabel, []).append(eb)

    # The BFS queue is the list of discovered pairs, indexed by state id.
    pairs = [(a.initial, b.initial)]
    state_id = {pairs[0]: 0}
    arcs: list[tuple[int, int, int, int, float]] = []
    for src, (qa, qb) in enumerate(pairs):
        moves = [
            ((ea.dst, eb.dst), ea.ilabel, eb.olabel,
             ea.log_weight + eb.log_weight)
            for ea in map(a.edges.__getitem__, a.out_edge_ids(qa))
            for eb in b_by_label[qb].get(ea.olabel, ())
        ]
        # b moves alone; legal because a has no output epsilons.
        moves += [
            ((qa, eb.dst), EPSILON, eb.olabel, eb.log_weight)
            for eb in b_by_label[qb].get(EPSILON, ())
        ]
        for pair, ilabel, olabel, log_weight in moves:
            if pair not in state_id:
                state_id[pair] = len(pairs)
                pairs.append(pair)
            arcs.append((src, state_id[pair], ilabel, olabel, log_weight))

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
    renumber = {old: new for new, old in enumerate(sorted(alive))}
    edges = [
        Edge(renumber[src], renumber[dst], ilabel, olabel, log_weight)
        for src, dst, ilabel, olabel, log_weight in arcs
        if dst in renumber
    ]
    return Wfst(len(alive), edges, final=renumber[final])


def path_occupancy(
    fst: Wfst, paths: Sequence[Path], num_frames: int, num_symbols: int
) -> np.ndarray:
    """(N, T, Q) stack of which symbol each path used at each frame.

    Path n's frame t is one-hot at its t-th non-epsilon input label.  For
    a lattice built from a (T, Q) score matrix this is the gradient of the
    path's log-weight with respect to the scores.  Only the paths' own
    edges are read, and the ones are set by one fancy-indexed assignment.
    """
    rows = [path_input_labels(fst, p) for p in paths]
    if any(len(labels) != num_frames for labels in rows):
        _raise_occupancy_error(rows, num_frames, num_symbols)
    try:
        symbols = np.array(rows, dtype=np.intp).reshape(len(rows), num_frames)
    except OverflowError:  # a label past the index range, hence past Q
        _raise_occupancy_error(rows, num_frames, num_symbols)
    # Labels are nonnegative and epsilons are dropped, so only Q can fail.
    if symbols.size and symbols.max() > num_symbols:
        _raise_occupancy_error(rows, num_frames, num_symbols)
    gamma = np.zeros((len(rows), num_frames, num_symbols))
    gamma[
        np.arange(len(rows))[:, None], np.arange(num_frames), symbols - 1
    ] = 1.0
    return gamma


def _raise_occupancy_error(
    rows: list[tuple[int, ...]], num_frames: int, num_symbols: int
) -> NoReturn:
    """The error of the first path whose labels do not fit (T, Q)."""
    for labels in rows:
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

