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
from .fst import (
    EPSILON,
    Wfst,
    edge_lists,
    empty_wfst,
    frame_depths,
    out_edge_groups,
)
from .sampling import longest_path_edges


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
    builds its topological order, list view, out-degree groups and
    longest-path count here, before any copy, so every lattice ``at``
    gives shares them.
    """

    def __init__(self, decoder_graph: Wfst, num_frames: int, num_symbols: int):
        self.shape = (num_frames, num_symbols)
        self.decoder_graph = decoder_graph
        self.lattice = lattice = compose(
            build_score_fst(np.full(self.shape, -0.0)), decoder_graph
        )
        # Each state pairs a sausage state, its frame, with a decoder state.
        inputs = lattice.ilabel[:-1]
        index = frame_depths(lattice)[lattice.src] * num_symbols + inputs - 1
        self.score_index = np.where(inputs != EPSILON, index, -1)
        out_edge_groups(lattice)
        longest_path_edges(lattice)

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
    When ``a`` is a score sausage, the search runs level by level, and
    once a level provably repeats the one before it shifted by a frame
    (``_repeated_levels``), the levels up to the last frame are written
    as array shifts of it, numbered as the search would number them.
    The result then carries its ``frame_depths``: each state's frame.
    """
    if (a.olabel[:-1] == EPSILON).any():
        raise UnsupportedCompositionError(
            "left transducer has epsilon output labels"
        )
    # A pair (qa, qb) is keyed by the int qa * nb + qb.  Per a state, its
    # moves as (a edge, label, key of the destination with qb 0): its
    # out-edges, then (-1, EPSILON, its own key) for b moving alone, which
    # is legal because a has no output epsilons.  Per b state, its
    # out-edges as (edge, destination) pairs by input label.
    nb = b.num_states
    a_out, a_dst = edge_lists(a)
    a_olabel = a.olabel.tolist()
    a_moves = [
        [(ka, a_olabel[ka], a_dst[ka] * nb) for ka in ids]
        + [(-1, EPSILON, qa * nb)]
        for qa, ids in enumerate(a_out)
    ]
    b_moves: list[dict[int, list[tuple[int, int]]]] = [{} for _ in range(nb)]
    b_fields = zip(b.src.tolist(), b.ilabel.tolist(), b.dst.tolist())
    for kb, (qb, ilabel, dst) in enumerate(b_fields):
        b_moves[qb].setdefault(ilabel, []).append((kb, dst))
    num_symbols = _sausage_symbols(a)

    # The BFS queue is the list of discovered keys, indexed by state id,
    # and levels[i] is the first id of level i.  The arcs are three
    # columns, destination state, a edge and b edge, in source-state
    # order: flat lists, moved to ``blocks`` before each block of
    # repeated levels; arc_counts[q] counts state q's arcs.
    keys = [a.initial * nb + b.initial]
    state_id = {keys[0]: 0}
    arc_dst, arc_a, arc_b, arc_counts = [], [], [], []
    blocks = []
    levels = [0]
    while levels[-1] < len(keys):
        start, stop = levels[-1], len(keys)
        first_arc = len(arc_dst)
        for key in keys[start:stop]:
            qa, qb = divmod(key, nb)
            before = len(arc_dst)
            by_label = b_moves[qb]
            for ka, label, base in a_moves[qa]:
                for kb, dst in by_label.get(label, ()):
                    q = state_id.get(base + dst)
                    if q is None:
                        q = state_id[base + dst] = len(keys)
                        keys.append(base + dst)
                    arc_dst.append(q)
                    arc_a.append(ka)
                    arc_b.append(kb)
            arc_counts.append(len(arc_dst) - before)
        levels.append(stop)
        # A sausage's final state is its frame count.
        repeats = num_symbols and _repeated_levels(keys, levels, nb, a.final)
        if repeats:
            # The j-th level after this one has this level's arcs with
            # destinations j level sizes on, consuming a edges j frames
            # on and the same b edges; it finds the next level's keys
            # j frames on.
            size = stop - start
            shift = np.arange(1, repeats + 1)[:, None]
            block = tuple(map(_int_array, (arc_dst, arc_a, arc_b)))
            level_dst, level_a, level_b = (c[first_arc:] for c in block)
            consumed = level_a >= 0
            blocks += [block, (
                (level_dst + size * shift).ravel(),
                (level_a + consumed * (num_symbols * shift)).ravel(),
                np.tile(level_b, repeats),
            )]
            arc_dst, arc_a, arc_b = [], [], []
            arc_counts += arc_counts[start:stop] * repeats
            found = (_int_array(keys[stop:]) + nb * shift).ravel().tolist()
            ids = range(len(keys), len(keys) + len(found))
            state_id.update(zip(found, ids))
            keys += found
            levels += range(stop + size, stop + size * repeats + 1, size)

    final = state_id.get(a.final * nb + b.final)
    if final is None:
        return empty_wfst()
    blocks.append(tuple(map(_int_array, (arc_dst, arc_a, arc_b))))
    dst, ka, kb = map(np.concatenate, zip(*blocks))
    src = np.repeat(np.arange(len(keys)), _int_array(arc_counts))
    # Every state is reachable from state 0, so one reverse sweep from the
    # final state keeps exactly those on a complete path, state 0 included.
    by_dst = np.argsort(dst, kind="stable")
    preds = src[by_dst].tolist()
    first = np.searchsorted(dst[by_dst], np.arange(len(keys) + 1)).tolist()
    seen = bytearray(len(keys))
    seen[final] = True
    queue = [final]
    for q in queue:
        for p in preds[first[q]:first[q + 1]]:
            if not seen[p]:
                seen[p] = True
                queue.append(p)
    alive = np.frombuffer(seen, dtype=bool)
    renumber = np.cumsum(alive) - 1
    kept = alive[dst]
    src, dst, ka, kb = src[kept], dst[kept], ka[kept], kb[kept]
    # Entry -1, read where b moves alone, is a's input epsilon and a weight
    # of -0.0, which leaves every b weight unchanged.  A sum past the float
    # range is +inf, which the Wfst check rejects, without a warning.
    with np.errstate(over="ignore"):
        log_weight = np.append(a.log_weight, -0.0)[ka] + b.log_weight[kb]
    lattice = Wfst._from_arrays(
        len(queue), int(renumber[final]), renumber[src], renumber[dst],
        a.ilabel[ka], b.olabel[kb], log_weight,
    )
    if num_symbols:
        # A pair's sausage state is its frame, so every route to the pair
        # consumes that many labels; every kept state is reachable.
        depths = (_int_array(keys) // nb)[alive]
        depths.flags.writeable = False
        lattice._depths = depths
    return lattice


def _int_array(column: list[int]) -> np.ndarray:
    return np.fromiter(column, np.intp, len(column))


def _sausage_symbols(a: Wfst) -> int:
    """Q when ``a`` has the structure of ``build_score_fst`` for some
    (T, Q): T + 1 states, final T, and edge k from k // Q to k // Q + 1
    with both labels k % Q + 1; otherwise 0."""
    num_frames = a.num_states - 1
    if num_frames < 1 or a.final != num_frames or a.num_edges % num_frames:
        return 0
    num_symbols = a.num_edges // num_frames
    if not num_symbols:
        return 0
    frame, symbol = np.divmod(np.arange(a.num_edges), num_symbols)
    symbol += 1
    is_sausage = (
        np.array_equal(a.src, frame) and np.array_equal(a.dst, frame + 1)
        and np.array_equal(a.ilabel[:-1], symbol)
        and np.array_equal(a.olabel[:-1], symbol)
    )
    return num_symbols if is_sausage else 0


def _repeated_levels(
    keys: list[int], levels: list[int], nb: int, num_frames: int
) -> int:
    """How many levels after the one just expanded ``compose``'s search
    would expand as that level shifted by one more frame each, or 0 where
    that is not shown.

    The left operand is a sausage of ``num_frames`` frames (T).  ``keys``
    holds the keys found so far by state id, and ``levels`` the first id
    of each level found; the last level is the frontier.  Call the
    expanded level L, its size n and its lowest and highest frames m and
    M.  Expanding a level reads its keys in order and, for each candidate
    key, whether it was found already and at which id.  A state of frame
    t moves to frame t or t + 1, so level L's candidates lie in frames
    m..M + 1, and below frame T each frame's moves are the previous
    frame's moves one frame on.  So if the keys of frame m + 1 and up
    found before level L + 1 is expanded are, with their ids, those of
    frame m and up found before level L was, one frame and n ids on, then
    level L + 1 expands as level L did, one frame and n ids on, and finds
    the next level's keys one frame on.  The condition then holds one
    level later, so the levels repeat until one reaches frame T - 1:
    T - 1 - M levels.  A key of level i has a frame of at most i, so the
    keys of frame m and up have ids from levels[m] on.
    """
    start, stop = levels[-2], levels[-1]
    size = stop - start
    if len(keys) - stop != size or keys[stop] != keys[start] + nb:
        return 0
    frames = keys[start:stop]
    low, high = min(frames) // nb, max(frames) // nb
    if high > num_frames - 2:
        return 0
    before = [
        (i + size, key + nb)
        for i, key in enumerate(keys[levels[low]:stop], levels[low])
        if key >= low * nb
    ]
    after = [
        (i, key)
        for i, key in enumerate(keys[levels[low + 1]:], levels[low + 1])
        if key >= (low + 1) * nb
    ]
    return num_frames - 1 - high if before == after else 0


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
    # With Q = 0 there is no symbol, and the step 1 makes an empty range.
    flat = symbols.astype(np.intp, copy=False)
    flat += np.arange(-1, flat.size * num_symbols - 1, num_symbols or 1)
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

