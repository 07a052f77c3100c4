"""Weighted finite-state transducers over the probability semiring.

Weights are stored as natural logs of nonnegative reals, so path weights
are sums of edge log-weights and a zero-weight edge is ``-inf``.  Label id
0 is reserved for epsilon on both tapes.  A Wfst keeps each edge field in
one numpy array indexed by edge id, which every kernel reads; Edge objects
are only a view of those arrays.
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

# Largest state id: numpy makes no array of more than intp-max bytes, and
# ``first_out`` holds largest id + 2 intp entries.
MAX_STATE_ID = np.iinfo(np.intp).max // np.dtype(np.intp).itemsize - 2


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

    Each edge field is stored once, in a read-only array indexed by edge
    id: ``src``, ``dst``, ``log_weight``, and ``ilabel`` and ``olabel``,
    which end with one extra epsilon that a path row padded with -1 reads
    (labels past int64 make them object arrays).  ``out_ids`` lists the
    edge ids grouped by source state in edge-id order, state q's group
    being ``out_ids[first_out[q]:first_out[q + 1]]``.  ``edges`` is the
    tuple of Edge views: the caller's own Edges, or built on first access.

    The initial state is always state 0, as in the text format.
    Invariants enforced at construction: every edge references valid states,
    no edge leaves the final state, labels are nonnegative, and no weight is
    NaN or +inf (-inf encodes semiring zero and is legal).  Instances are
    safe to share across threads.
    """

    __slots__ = (
        "num_states", "final", "src", "dst", "ilabel", "olabel", "log_weight",
        "first_out", "out_ids", "_edges", "_order", "_lists", "_beta",
    )

    initial = 0

    def __init__(self, num_states: int, edges: Iterable[Edge], final: int):
        edges = tuple(edges)
        rows = [(e.src, e.dst, e.ilabel, e.olabel, e.log_weight) for e in edges]
        self._store(num_states, final, *(list(zip(*rows)) or [()] * 5))
        self._edges = edges

    @classmethod
    def _from_arrays(cls, num_states: int, final: int, *fields) -> Wfst:
        """The transducer with these edge fields, in Edge's field order."""
        fst = object.__new__(cls)
        fst._store(num_states, final, *fields)
        return fst

    def _store(self, num_states, final, src, dst, ilabel, olabel, log_weight):
        if not 1 <= num_states <= MAX_STATE_ID + 1:
            raise InvalidFstError(f"num_states {num_states} out of range")
        if not 0 <= final < num_states:
            raise InvalidFstError(f"final state {final} out of range")
        self.num_states, self.final = num_states, final
        self.src, self.dst = label_array(src), label_array(dst)
        self.ilabel = np.append(label_array(ilabel), EPSILON)
        self.olabel = np.append(label_array(olabel), EPSILON)
        self.log_weight = np.array(log_weight, dtype=float)
        _check_edges(self)
        self.src = self.src.astype(np.intp, copy=False)
        self.dst = self.dst.astype(np.intp, copy=False)
        degrees = np.bincount(self.src, minlength=num_states)
        self.first_out = np.append(0, np.cumsum(degrees)).astype(np.intp)
        self.out_ids = np.argsort(self.src, kind="stable")
        for array in (self.first_out, self.out_ids, *self._fields()):
            array.flags.writeable = False
        # Filled by the first successful edges, topological_order,
        # edge_lists and backward calls; racing threads store equal values.
        self._edges = self._order = self._lists = self._beta = None

    def with_weights(self, log_weights: np.ndarray) -> Wfst:
        """This transducer's states and edges with new per-edge log-weights.

        The copy shares every array but the weights, and the topological
        order and list view once built.  Raises InvalidFstError for a vector
        of the wrong length and for a NaN or +inf weight, naming the first
        such edge as the constructor does.
        """
        log_weights = np.array(log_weights, dtype=float)
        if log_weights.shape != (self.num_edges,):
            raise InvalidFstError(
                f"expected {self.num_edges} log-weights, "
                f"got shape {log_weights.shape}"
            )
        copy = object.__new__(Wfst)
        for name in self.__slots__:
            setattr(copy, name, getattr(self, name))
        copy.log_weight = log_weights
        _check_edges(copy)
        log_weights.flags.writeable = False
        copy._edges = copy._beta = None
        return copy

    @property
    def edges(self) -> tuple[Edge, ...]:
        if self._edges is None:
            fields = [f[:self.num_edges].tolist() for f in self._fields()]
            self._edges = tuple(map(Edge, *fields))
        return self._edges

    def out_edge_ids(self, state: int) -> tuple[int, ...]:
        """Ids of edges leaving ``state``, in edge-id order."""
        ids = self.out_ids[self.first_out[state]:self.first_out[state + 1]]
        return tuple(ids.tolist())

    @property
    def num_edges(self) -> int:
        return len(self.src)

    def _fields(self) -> list[np.ndarray]:
        return [self.src, self.dst, self.ilabel, self.olabel, self.log_weight]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Wfst):
            return NotImplemented
        return self is other or (
            (self.num_states, self.final) == (other.num_states, other.final)
            and all(map(np.array_equal, self._fields(), other._fields()))
        )

    def __hash__(self):
        # Python values: -0.0 hashes as 0.0 does, a big label by its value.
        fields = (tuple(field.tolist()) for field in self._fields())
        return hash((self.num_states, self.final, *fields))

    def __repr__(self):
        return (
            f"Wfst(num_states={self.num_states}, num_edges={self.num_edges}, "
            f"final={self.final})"
        )


def _check_edges(fst: Wfst):
    """InvalidFstError naming the lowest-numbered bad edge and the first
    check, in this order, that it fails."""
    n, weight = fst.num_states, fst.log_weight
    checks = {
        "references an unknown state":
            (fst.src < 0) | (fst.src >= n) | (fst.dst < 0) | (fst.dst >= n),
        "has a negative label": (fst.ilabel[:-1] < 0) | (fst.olabel[:-1] < 0),
        "has an invalid log-weight": np.isnan(weight) | (weight == math.inf),
        "leaves the final state": fst.src == fst.final,
    }
    bad = np.logical_or.reduce(list(checks.values()))
    if bad.any():
        k = int(np.argmax(bad))
        message = next(name for name, mask in checks.items() if mask[k])
        raise InvalidFstError(f"edge {k} {message}")


def edge_lists(fst: Wfst) -> tuple[list[list[int]], list[int]]:
    """Per state its out-edge ids in edge-id order, and ``dst``: the one
    list view, for loops in Python, of an edge structure.  Cached on the
    transducer and shared with later ``with_weights`` copies; read-only."""
    if fst._lists is None:
        ids, first = fst.out_ids.tolist(), fst.first_out.tolist()
        out = [ids[start:stop] for start, stop in zip(first, first[1:])]
        fst._lists = out, fst.dst.tolist()
    return fst._lists


def label_array(labels: Sequence[int]) -> np.ndarray:
    """Integers as int64, or as objects when one is past int64."""
    try:
        return np.array(labels, dtype=np.int64)
    except OverflowError:
        return np.array(labels, dtype=object)


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
    if value > MAX_STATE_ID:
        raise FstParseError(f"state id {value} is too large", lineno)
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
    return label_rows(fst.olabel, edge_id_matrix([path]))[0]


def path_input_labels(fst: Wfst, path: Path) -> tuple[int, ...]:
    """Non-epsilon input labels along the path, in order."""
    return label_rows(fst.ilabel, edge_id_matrix([path]))[0]


def label_rows(labels: np.ndarray, edge_ids: np.ndarray) -> list[tuple]:
    """Per row of an edge-id matrix, the non-epsilon entries of a label
    array (a transducer's ``ilabel`` or ``olabel``) along the path."""
    return [
        tuple(label for label in row if label != EPSILON)
        for row in labels[edge_ids].tolist()
    ]


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
    out, dst = edge_lists(fst)
    indeg = np.bincount(fst.dst, minlength=fst.num_states).tolist()
    # Kahn's algorithm; the order list is its own FIFO queue.
    order = [q for q in range(fst.num_states) if indeg[q] == 0]
    for q in order:
        for k in out[q]:
            j = dst[k]
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


def reverse_fold(fst: Wfst, final_value, dead_value, step) -> list:
    """Per-state values, from the final state's ``final_value`` back.

    A state q with out-edge ids ``ids`` holds ``step(values, q, ids)``,
    taken in reverse topological order, so ``values`` holds every state
    they enter; one with no out-edge holds ``dead_value``."""
    out = edge_lists(fst)[0]
    values = [dead_value] * fst.num_states
    values[fst.final] = final_value
    for q in reversed(topological_order(fst)):
        if out[q]:
            values[q] = step(values, q, out[q])
    return values


def count_paths(fst: Wfst) -> int:
    """Exact number of initial-to-final paths (dynamic program, no listing)."""
    dst = edge_lists(fst)[1]
    counts = reverse_fold(
        fst, 1, 0, lambda counts, q, ids: sum(counts[dst[k]] for k in ids)
    )
    return counts[fst.initial]


def enumerate_paths(fst: Wfst, max_paths: int) -> list[Path]:
    """Every initial-to-final path, lexicographic by edge-id sequence.

    Raises PathOverflowError as soon as the count would exceed ``max_paths``
    and CyclicFstError on cyclic input.
    """
    topological_order(fst)  # reject cycles before walking
    out, dst = edge_lists(fst)
    weight = fst.log_weight.tolist()
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
        for k in reversed(out[state]):
            stack.append((dst[k], prefix + (k,), log_weight + weight[k]))
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
    paths, probs = enumerated_distribution(fst, MAX_ENUMERATED_PATHS)
    rows = label_rows(fst.olabel, edge_id_matrix(paths))
    dist: dict[tuple[int, ...], float] = {}
    for words, p in zip(rows, probs.tolist()):
        dist[words] = dist.get(words, 0.0) + p
    return dist
