"""Weighted finite-state transducers over the probability semiring.

Weights are stored as natural logs of nonnegative reals, so path weights
are sums of edge log-weights and a zero-weight edge is ``-inf``.  Label id
0 is reserved for epsilon on both tapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CyclicFstError,
    DegenerateLatticeError,
    FstParseError,
    InvalidFstError,
    PathOverflowError,
)

EPSILON = 0

NEG_INF = float("-inf")

# Enumeration bound of the exact oracles and of the CLI's exact columns.
MAX_ENUMERATED_PATHS = 10_000


@dataclass(frozen=True, slots=True)
class Edge:
    """One weighted arc.  ``log_weight`` is ln of a nonnegative real."""

    src: int
    dst: int
    ilabel: int
    olabel: int
    log_weight: float


@dataclass(frozen=True, slots=True)
class Path:
    """Edge-id sequence from the initial to the final state of some Wfst.

    ``log_weight`` is the left-to-right sum of the member edges' log-weights,
    in construction order.
    """

    edges: tuple[int, ...]
    log_weight: float


class Wfst:
    """Immutable weighted transducer with a single final state.

    The initial state is always state 0, as in the text format.
    Invariants enforced at construction: every edge references valid states,
    no edge leaves the final state, labels are nonnegative, and no weight is
    NaN or +inf (-inf encodes semiring zero and is legal).  Instances are
    safe to share across threads.
    """

    __slots__ = (
        "num_states", "edges", "final", "_out", "_order", "_arrays", "_beta"
    )

    initial = 0

    def __init__(self, num_states: int, edges: Iterable[Edge], final: int):
        edges = tuple(edges)
        if num_states < 1:
            raise InvalidFstError("num_states must be at least 1")
        if not 0 <= final < num_states:
            raise InvalidFstError(f"final state {final} out of range")
        out: list[list[int]] = [[] for _ in range(num_states)]
        for k, e in enumerate(edges):
            if not (0 <= e.src < num_states and 0 <= e.dst < num_states):
                raise InvalidFstError(f"edge {k} references an unknown state")
            if e.ilabel < 0 or e.olabel < 0:
                raise InvalidFstError(f"edge {k} has a negative label")
            if math.isnan(e.log_weight) or e.log_weight == math.inf:
                raise InvalidFstError(f"edge {k} has an invalid log-weight")
            if e.src == final:
                raise InvalidFstError(f"edge {k} leaves the final state")
            out[e.src].append(k)
        self.num_states = num_states
        self.edges = edges
        self.final = final
        self._out = tuple(tuple(ids) for ids in out)
        # Filled by the first successful topological_order, edge_arrays
        # and sampling.backward calls; threads that race to fill them
        # store equal values.
        self._order: tuple[int, ...] | None = None
        self._arrays: EdgeArrays | None = None
        self._beta: np.ndarray | None = None

    def with_weights(self, log_weights: np.ndarray) -> Wfst:
        """This transducer's states and edges with new per-edge log-weights.

        The copy shares the out-lists, the topological order and the edge
        arrays, so only its edges are built; its backward weights are its
        own.  Raises InvalidFstError for a
        NaN or +inf weight, naming the first such edge, as the constructor
        does.
        """
        log_weights = np.asarray(log_weights, dtype=float)
        if log_weights.shape != (len(self.edges),):
            raise InvalidFstError(
                f"expected {len(self.edges)} log-weights, "
                f"got shape {log_weights.shape}"
            )
        invalid = np.flatnonzero(
            np.isnan(log_weights) | (log_weights == math.inf)
        )
        if invalid.size:
            raise InvalidFstError(
                f"edge {invalid[0]} has an invalid log-weight"
            )
        copy = object.__new__(Wfst)
        copy.num_states = self.num_states
        copy.final = self.final
        copy.edges = tuple(
            Edge(e.src, e.dst, e.ilabel, e.olabel, w)
            for e, w in zip(self.edges, log_weights.tolist())
        )
        copy._out = self._out
        copy._order = self._order
        copy._arrays = edge_arrays(self)
        copy._beta = None
        return copy

    def out_edge_ids(self, state: int) -> tuple[int, ...]:
        """Ids of edges leaving ``state``, in edge-id order."""
        return self._out[state]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Wfst):
            return NotImplemented
        return (
            self.num_states == other.num_states
            and self.final == other.final
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.num_states, self.final, self.edges))

    def __repr__(self):
        return (
            f"Wfst(num_states={self.num_states}, num_edges={len(self.edges)}, "
            f"final={self.final})"
        )


@dataclass(frozen=True, eq=False)
class EdgeArrays:
    """A transducer's edges as numpy arrays, for work on many paths at once.

    ``out_ids`` lists every edge id grouped by source state, each group in
    out-edge order, and state q's group is ``out_ids[first_out[q]:
    first_out[q + 1]]``.  The label arrays hold one entry past the last
    edge, epsilon, so a path row padded with -1 reads epsilon there.
    Labels past the int64 range are kept in object arrays.
    """

    dst: np.ndarray
    ilabel: np.ndarray
    olabel: np.ndarray
    first_out: np.ndarray
    out_ids: np.ndarray


def edge_arrays(fst: Wfst) -> EdgeArrays:
    """The transducer's EdgeArrays, built once and cached on it."""
    if fst._arrays is None:
        edges = fst.edges
        degrees = [len(ids) for ids in fst._out]
        fst._arrays = EdgeArrays(
            dst=np.array([e.dst for e in edges], dtype=np.intp),
            ilabel=label_array([e.ilabel for e in edges] + [EPSILON]),
            olabel=label_array([e.olabel for e in edges] + [EPSILON]),
            first_out=np.cumsum([0] + degrees, dtype=np.intp),
            out_ids=np.array(
                [k for ids in fst._out for k in ids], dtype=np.intp
            ),
        )
    return fst._arrays


def label_array(labels: Sequence[int]) -> np.ndarray:
    """Nonnegative labels as int64, or as objects when one is past int64."""
    fits = max(labels, default=0) < 1 << 63
    return np.array(labels, dtype=np.int64 if fits else object)


def empty_wfst() -> Wfst:
    """Canonical transducer with no complete path (2 states, no edges)."""
    return Wfst(2, (), final=1)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------
#
# One record per line:
#   arc:    src dst ilabel olabel logweight
#   final:  state                               (exactly one such line)
# The initial state is implicitly 0.  Blank lines are ignored.


def parse_fst_text(text: str) -> Wfst:
    """Parse the five-field arc / one-field final text format into a Wfst."""
    arcs: list[tuple[int, Edge]] = []
    final: int | None = None
    max_state = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) == 1:
            if final is not None:
                raise FstParseError("multiple final states", lineno)
            final = _parse_state(tokens[0], lineno)
            max_state = max(max_state, final)
        elif len(tokens) == 5:
            src = _parse_state(tokens[0], lineno)
            dst = _parse_state(tokens[1], lineno)
            ilabel = _parse_label(tokens[2], lineno)
            olabel = _parse_label(tokens[3], lineno)
            log_weight = _parse_log_weight(tokens[4], lineno)
            arcs.append((lineno, Edge(src, dst, ilabel, olabel, log_weight)))
            max_state = max(max_state, src, dst)
        else:
            raise FstParseError(
                f"expected 1 or 5 fields, found {len(tokens)}", lineno
            )
    if final is None:
        raise FstParseError("missing final-state line")
    for lineno, edge in arcs:
        if edge.src == final:
            raise FstParseError(
                f"edge leaves the final state {final}", lineno
            )
    return Wfst(max_state + 1, (e for _, e in arcs), final=final)


def format_fst_text(fst: Wfst) -> str:
    """Serialize to the text format; round-trips bit-exactly through parse."""
    lines = [
        f"{e.src} {e.dst} {e.ilabel} {e.olabel} {e.log_weight!r}"
        for e in fst.edges
    ]
    lines.append(str(fst.final))
    return "\n".join(lines) + "\n"


def _parse_state(token: str, lineno: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise FstParseError(f"malformed state id {token!r}", lineno) from None
    if value < 0:
        raise FstParseError(f"unknown state reference {value}", lineno)
    return value


def _parse_label(token: str, lineno: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise FstParseError(f"malformed label {token!r}", lineno) from None
    if value < 0:
        raise FstParseError(f"negative label {value}", lineno)
    return value


def _parse_log_weight(token: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise FstParseError(f"malformed weight {token!r}", lineno) from None
    if math.isnan(value) or value == math.inf:
        raise FstParseError(f"invalid log-weight {token!r}", lineno)
    return value


# ---------------------------------------------------------------------------
# Path operations
# ---------------------------------------------------------------------------


def path_output_labels(fst: Wfst, path: Path) -> tuple[int, ...]:
    """Non-epsilon output labels along the path, in order."""
    return tuple(
        fst.edges[k].olabel for k in path.edges if fst.edges[k].olabel != EPSILON
    )


def path_input_labels(fst: Wfst, path: Path) -> tuple[int, ...]:
    """Non-epsilon input labels along the path, in order."""
    return tuple(
        fst.edges[k].ilabel for k in path.edges if fst.edges[k].ilabel != EPSILON
    )


def edge_id_matrix(paths: Sequence[Path]) -> np.ndarray:
    """The paths' edge ids as rows of one matrix, padded with -1.

    This is the form in which ``walk_paths`` returns sampled paths; its
    width is the longest path's edge count.
    """
    width = max((len(p.edges) for p in paths), default=0)
    rows = [p.edges + (-1,) * (width - len(p.edges)) for p in paths]
    return np.array(rows, dtype=np.intp).reshape(len(paths), width)


# ---------------------------------------------------------------------------
# Enumeration and normalization
# ---------------------------------------------------------------------------


def topological_order(fst: Wfst) -> tuple[int, ...]:
    """States in a topological order of the edge relation.

    Raises CyclicFstError when no such order exists.  Isolated states are
    included; the order among incomparable states follows state id.  The
    order is computed once per transducer and cached on it.
    """
    if fst._order is not None:
        return fst._order
    indeg = [0] * fst.num_states
    for e in fst.edges:
        indeg[e.dst] += 1
    # Kahn's algorithm; the order list is its own FIFO queue.
    order = [q for q in range(fst.num_states) if indeg[q] == 0]
    for q in order:
        for k in fst.out_edge_ids(q):
            j = fst.edges[k].dst
            indeg[j] -= 1
            if indeg[j] == 0:
                order.append(j)
    if len(order) != fst.num_states:
        raise CyclicFstError("transducer contains a cycle")
    fst._order = tuple(order)
    return fst._order


def is_acyclic(fst: Wfst) -> bool:
    try:
        topological_order(fst)
    except CyclicFstError:
        return False
    return True


def count_paths(fst: Wfst) -> int:
    """Exact number of initial-to-final paths (dynamic program, no listing)."""
    order = topological_order(fst)
    counts = [0] * fst.num_states
    counts[fst.final] = 1
    for q in reversed(order):
        if q == fst.final:
            continue
        counts[q] = sum(counts[fst.edges[k].dst] for k in fst.out_edge_ids(q))
    return counts[fst.initial]


def enumerate_paths(fst: Wfst, max_paths: int) -> list[Path]:
    """Every initial-to-final path, lexicographic by edge-id sequence.

    Raises PathOverflowError as soon as the count would exceed ``max_paths``
    and CyclicFstError on cyclic input.
    """
    topological_order(fst)  # reject cycles before walking
    # Out-edges are pushed in reverse id order, so paths pop lexicographic.
    results: list[Path] = []
    stack = [(fst.initial, (), 0.0)]
    while stack:
        state, prefix, log_weight = stack.pop()
        if state == fst.final:
            if len(results) >= max_paths:
                raise PathOverflowError(
                    f"more than {max_paths} paths during enumeration"
                )
            results.append(Path(prefix, log_weight))
            continue
        for k in reversed(fst.out_edge_ids(state)):
            e = fst.edges[k]
            stack.append((e.dst, prefix + (k,), log_weight + e.log_weight))
    return results


def enumerated_distribution(
    fst: Wfst, max_paths: int
) -> tuple[list[Path], np.ndarray]:
    """Every path (as from enumerate_paths) with its normalized probability.

    Raises DegenerateLatticeError when there is no complete path or the
    total weight is zero.
    """
    paths = enumerate_paths(fst, max_paths)
    if not paths:
        raise DegenerateLatticeError("no complete path")
    return paths, normalized(np.array([p.log_weight for p in paths]))


def normalized(log_weights: np.ndarray) -> np.ndarray:
    """Probabilities proportional to exp(log_weights), max-subtracted.

    Raises DegenerateLatticeError when every weight is zero (all -inf).
    """
    m = log_weights.max()
    if m == NEG_INF:
        raise DegenerateLatticeError("all paths have zero weight")
    probs = np.exp(log_weights - m)
    probs /= probs.sum()
    return probs


def path_distribution(fst: Wfst) -> dict[tuple[int, ...], float]:
    """Globally normalized probability of each output-label sequence.

    P(y) sums the normalized weights of all paths whose output projection
    equals y.  Raises DegenerateLatticeError when the total weight is zero
    and PathOverflowError past MAX_ENUMERATED_PATHS paths.
    """
    dist: dict[tuple[int, ...], float] = {}
    for path, p in zip(*enumerated_distribution(fst, MAX_ENUMERATED_PATHS)):
        words = path_output_labels(fst, path)
        dist[words] = dist.get(words, 0.0) + float(p)
    return dist
