"""Score lattices and transducer composition.

A score matrix ``z`` of shape (T, Q) induces a "sausage" acceptor with one
edge per (frame, symbol) pair; composing it with a decoder transducer gives
the lattice whose paths carry frame-symbol sequences on the input tape and
word sequences on the output tape.
"""

from __future__ import annotations

import math
from collections import deque
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
    return _connect(len(state_id), edges, state_id[final_pair])


def _connect(num_states: int, edges: list[Edge], final: int) -> Wfst:
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

