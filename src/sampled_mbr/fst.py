"""Weighted finite-state transducers over the probability semiring.

Weights are stored as natural logs of nonnegative reals, so path weights
are sums of edge log-weights and a zero-weight edge is ``-inf``.  Label id
0 is reserved for epsilon on both tapes.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable

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

    __slots__ = ("num_states", "edges", "final", "_out", "_order")

    initial = 0

    def __init__(self, num_states: int, edges: Iterable[Edge], final: int):
        edges = tuple(edges)
        if num_states < 1:
            raise InvalidFstError("num_states must be at least 1")
        if not 0 <= final < num_states:
            raise InvalidFstError(f"final state {final} out of range")
        for k, e in enumerate(edges):
            if not (0 <= e.src < num_states and 0 <= e.dst < num_states):
                raise InvalidFstError(f"edge {k} references an unknown state")
            if e.ilabel < 0 or e.olabel < 0:
                raise InvalidFstError(f"edge {k} has a negative label")
            if math.isnan(e.log_weight) or e.log_weight == math.inf:
                raise InvalidFstError(f"edge {k} has an invalid log-weight")
            if e.src == final:
                raise InvalidFstError(f"edge {k} leaves the final state")
        out: list[list[int]] = [[] for _ in range(num_states)]
        for k, e in enumerate(edges):
            out[e.src].append(k)
        self.num_states = num_states
        self.edges = edges
        self.final = final
        self._out = tuple(tuple(ids) for ids in out)
        # Filled by the first successful topological_order call; threads
        # that race to fill it store equal tuples.
        self._order: tuple[int, ...] | None = None

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
