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
from typing import Iterable, NoReturn, Sequence

import numpy as np

from .errors import (
    CyclicFstError,
    DegenerateLatticeError,
    FstParseError,
    InvalidFstError,
    PathOverflowError,
    UnsupportedTopologyError,
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
        "first_out", "out_ids", "_edges", "_order", "_lists", "_groups",
        "_longest", "_beta", "_depths",
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
        # edge_lists, out_edge_groups, longest_path_edges, backward and
        # frame_depths calls, or by compose, which seeds the frame depths
        # and, where they prove the lattice acyclic, the longest-path
        # count; racing threads store equal values.
        self._edges = self._order = self._lists = self._groups = None
        self._longest = self._beta = self._depths = None

    def with_weights(self, log_weights: np.ndarray) -> Wfst:
        """This transducer's states and edges with new per-edge log-weights.

        The copy shares every array but the weights, and the topological
        order, list view, degree groups, longest-path count and frame
        depths once built.
        Raises InvalidFstError for a vector of the wrong length and for a
        NaN or +inf weight, naming the first such edge as the constructor
        does: the shared edges passed its other checks at construction.
        """
        log_weights = np.array(log_weights, dtype=float)
        if log_weights.shape != (self.num_edges,):
            raise InvalidFstError(
                f"expected {self.num_edges} log-weights, "
                f"got shape {log_weights.shape}"
            )
        bad = _bad_weights(log_weights)
        if bad.any():
            raise InvalidFstError(
                f"edge {int(np.argmax(bad))} has an invalid log-weight"
            )
        copy = object.__new__(Wfst)
        for name in self.__slots__:
            setattr(copy, name, getattr(self, name))
        copy.log_weight = log_weights
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
    n = fst.num_states
    checks = {
        "references an unknown state":
            (fst.src < 0) | (fst.src >= n) | (fst.dst < 0) | (fst.dst >= n),
        "has a negative label": (fst.ilabel[:-1] < 0) | (fst.olabel[:-1] < 0),
        "has an invalid log-weight": _bad_weights(fst.log_weight),
        "leaves the final state": fst.src == fst.final,
    }
    bad = np.logical_or.reduce(list(checks.values()))
    if bad.any():
        k = int(np.argmax(bad))
        message = next(name for name, mask in checks.items() if mask[k])
        raise InvalidFstError(f"edge {k} {message}")


def _bad_weights(log_weights: np.ndarray) -> np.ndarray:
    """Where a log-weight is NaN or +inf."""
    return np.isnan(log_weights) | (log_weights == math.inf)


def edge_lists(fst: Wfst) -> tuple[list[list[int]], list[int]]:
    """Per state its out-edge ids in edge-id order, and ``dst``: the one
    list view, for loops in Python, of an edge structure.  Cached on the
    transducer and shared with later ``with_weights`` copies; read-only."""
    if fst._lists is None:
        ids, first = fst.out_ids.tolist(), fst.first_out.tolist()
        out = [ids[start:stop] for start, stop in zip(first, first[1:])]
        fst._lists = out, fst.dst.tolist()
    return fst._lists


def out_edge_groups(
    fst: Wfst,
) -> tuple[np.ndarray, np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """The out-edges in ``out_ids`` order as arrays for per-state work.

    Per position in ``out_ids``, its edge's source and destination state;
    then the states that have out-edges, grouped by out-degree in
    increasing order, each group as its state ids and the (states, degree)
    matrix of their out-edges' positions.  Cached on the transducer and
    shared with later ``with_weights`` copies; read-only.
    """
    if fst._groups is None:
        first = fst.first_out
        degrees = np.diff(first)
        by_degree = np.argsort(degrees, kind="stable")
        sorted_degrees = degrees[by_degree]
        bounds = np.flatnonzero(np.diff(sorted_degrees)) + 1
        groups = []
        for states in np.split(by_degree, bounds):
            degree = int(degrees[states[0]])
            if degree:
                positions = first[states][:, None] + np.arange(degree)
                groups.append((states, positions))
        src_at, dst_at = fst.src[fst.out_ids], fst.dst[fst.out_ids]
        for array in (src_at, dst_at, *(a for g in groups for a in g)):
            array.flags.writeable = False
        fst._groups = src_at, dst_at, tuple(groups)
    return fst._groups


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
    """Parse the five-field arc / one-field final text format into a Wfst.

    The fields are converted column by column, and the Wfst constructor
    checks them as arrays.  When a conversion or check fails, the text
    is read again one line at a time to raise the FstParseError of the
    first bad line, with its message and line number.
    """
    records = list(filter(None, map(str.split, text.splitlines())))
    arcs = [tokens for tokens in records if len(tokens) == 5]
    finals = [tokens[0] for tokens in records if len(tokens) == 1]
    if len(finals) != 1 or len(arcs) + 1 != len(records):
        _raise_first_bad_line(text)
    columns = list(zip(*arcs)) or [()] * 5
    try:
        final = int(finals[0])
        src, dst, ilabel, olabel = (
            label_array(list(map(int, column))) for column in columns[:4]
        )
        log_weight = list(map(float, columns[4]))
    except ValueError:
        _raise_first_bad_line(text)
    num_states = 1 + max(final, src.max(initial=0), dst.max(initial=0))
    try:
        return Wfst._from_arrays(
            int(num_states), final, src, dst, ilabel, olabel, log_weight
        )
    except InvalidFstError:
        # The constructor checks every field the text format bounds.
        _raise_first_bad_line(text)


def _raise_first_bad_line(text: str) -> NoReturn:
    """Raise the FstParseError of the first line of ``text`` that the
    format rejects, for text whose column parse failed."""
    final = None
    arcs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        tokens = raw.split()
        if len(tokens) == 1:
            if final is not None:
                raise FstParseError("multiple final states", lineno)
            final = _parse_state(tokens[0], lineno)
        elif len(tokens) == 5:
            arcs.append((lineno, _parse_state(tokens[0], lineno)))
            _parse_state(tokens[1], lineno)
            _parse_label(tokens[2], lineno)
            _parse_label(tokens[3], lineno)
            _parse_log_weight(tokens[4], lineno)
        elif tokens:
            raise FstParseError(
                f"expected 1 or 5 fields, found {len(tokens)}", lineno
            )
    if final is None:
        raise FstParseError("missing final-state line")
    # Every token passed, so the constructor check that failed is this one.
    lineno = next(lineno for lineno, src in arcs if src == final)
    raise FstParseError(f"edge leaves the final state {final}", lineno)


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
    array (a transducer's ``ilabel`` or ``olabel``) along the path.

    One tuple per row: callers with many repeated rows pass the
    ``distinct_rows`` of their matrix.
    """
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


def distinct_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an int matrix in first-appearance order, and
    per row the index of its distinct row: ``distinct[inverse]`` equals
    the matrix.

    The rows are ranked with no Python work per row.  Each pass packs the
    rank so far and as many further columns as fit into one int64 code
    per row below 2^63, and ranks the rows by a stable ``argsort`` of the
    code, cast to the smallest dtype that holds it (numpy radix-sorts
    codes below 2^16).  Passes stop once every row is distinct.  The rows
    times the span of the entries must stay below 2^63 (ValueError
    otherwise).  numpy's ``unique`` would import ``numpy.ma``.
    """
    num_rows, width = matrix.shape
    if num_rows < 2 or not width:
        # Zero-width rows are all the empty row.
        return matrix[:1], np.zeros(num_rows, dtype=np.intp)
    low = int(matrix.min())
    span = int(matrix.max()) - low + 1
    if num_rows * span > 1 << 63:
        raise ValueError("matrix entries span too wide a range")
    rank = np.zeros(num_rows, dtype=np.intp)
    count, column = 1, 0
    while count < num_rows and column < width:
        code, size = rank.astype(np.int64), count
        while column < width and size * span <= 1 << 63:
            code *= span
            code += matrix[:, column]
            code -= low
            size *= span
            column += 1
        order = np.argsort(
            code.astype(np.min_scalar_type(size - 1)), kind="stable"
        )
        code = code[order]
        # Whether each position of the sorted codes starts a new rank.
        starts_rank = np.empty(num_rows, dtype=bool)
        starts_rank[0] = True
        np.not_equal(code[1:], code[:-1], out=starts_rank[1:])
        rank[order] = np.cumsum(starts_rank) - 1
        count = int(np.count_nonzero(starts_rank))
    # The sort is stable, so each rank's first sorted row is its first row.
    first = np.zeros(num_rows, dtype=bool)
    first[order[starts_rank]] = True
    starts = np.flatnonzero(first)
    label = np.empty(count, dtype=np.intp)
    label[rank[starts]] = np.arange(count)
    return matrix[starts], label[rank]


# ---------------------------------------------------------------------------
# Enumeration and normalization
# ---------------------------------------------------------------------------


def topological_order(fst: Wfst) -> tuple[int, ...]:
    """States in a topological order of the edge relation.

    Raises CyclicFstError when no such order exists.  Isolated states are
    included.  Where ``frame_depths`` are cached (``compose`` seeds them),
    the states sorted by frame, then by state id, are the order if every
    edge runs forward in it, as one array compare checks; otherwise, and
    where no depths are cached, Kahn's algorithm gives its FIFO order.
    The order is computed once per transducer and cached on it.
    """
    if fst._order is not None:
        return fst._order
    if fst._depths is not None:
        order = np.argsort(fst._depths, kind="stable")
        position = np.empty_like(order)
        position[order] = np.arange(fst.num_states)
        if (position[fst.src] < position[fst.dst]).all():
            fst._order = tuple(order.tolist())
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


def frame_depths(fst: Wfst) -> np.ndarray:
    """Per state, the number of non-epsilon input labels that every route
    from the initial state consumes, by one forward topological sweep; -1
    where no route reaches.  Raises UnsupportedTopologyError naming a state
    two routes reach at different depths, and CyclicFstError on cycles.
    Cached on the transducer and shared with later ``with_weights``
    copies; read-only.  ``compose`` seeds the cache of a sausage's
    composition; the topological order is built before the cache is read,
    so a cyclic composition still raises."""
    topological_order(fst)
    if fst._depths is not None:
        return fst._depths
    out, dst = edge_lists(fst)
    consumes = (fst.ilabel[:-1] != EPSILON).tolist()
    depth = [-1] * fst.num_states
    depth[fst.initial] = 0
    for q in topological_order(fst):
        t = depth[q]
        if t < 0:
            continue
        for k in out[q]:
            j, advanced = dst[k], t + consumes[k]
            if depth[j] != advanced:
                if depth[j] >= 0:
                    raise UnsupportedTopologyError(
                        f"state {j} is reachable at frame depths "
                        f"{depth[j]} and {advanced}; per-edge frame "
                        "positions are ambiguous"
                    )
                depth[j] = advanced
    depths = np.array(depth)
    depths.flags.writeable = False
    fst._depths = depths
    return depths


def longest_path_edges(fst: Wfst) -> float:
    """Edge count of the longest initial-to-final path (-inf when none).

    Cached on the transducer and shared with later ``with_weights`` copies;
    ``compose`` seeds the cache where a sausage's composition is acyclic by
    its frames.
    """
    if fst._longest is None:
        dst = edge_lists(fst)[1]
        depth = reverse_fold(
            fst, 0, NEG_INF,
            lambda depth, q, ids: 1 + max(depth[dst[k]] for k in ids),
        )
        fst._longest = depth[fst.initial]
    return fst._longest


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
) -> tuple[np.ndarray, np.ndarray]:
    """Every path (as from enumerate_paths), as the rows of one edge-id
    matrix (``edge_id_matrix``), with its normalized probability.

    Raises DegenerateLatticeError when there is no complete path, the
    total weight is zero or a path weight overflows.
    """
    paths = enumerate_paths(fst, max_paths)
    if not paths:
        raise DegenerateLatticeError("no complete path")
    probs = normalized(np.array([p.log_weight for p in paths]))
    return edge_id_matrix(paths), probs


def normalized(log_weights: np.ndarray) -> np.ndarray:
    """Probabilities proportional to exp(log_weights), max-subtracted.

    Raises DegenerateLatticeError when every weight is zero (all -inf)
    or the largest overflows (NaN or +inf).
    """
    m = log_weights.max()
    if m == NEG_INF:
        raise DegenerateLatticeError("all paths have zero weight")
    if not math.isfinite(m):
        raise DegenerateLatticeError("largest path log-weight overflows")
    probs = np.exp(log_weights - m)
    probs /= probs.sum()
    return probs


def path_distribution(fst: Wfst) -> dict[tuple[int, ...], float]:
    """Globally normalized probability of each output-label sequence.

    P(y) sums the normalized weights of all paths whose output projection
    equals y.  Raises DegenerateLatticeError when the total weight is zero
    and PathOverflowError past MAX_ENUMERATED_PATHS paths.
    """
    edge_ids, probs = enumerated_distribution(fst, MAX_ENUMERATED_PATHS)
    rows = label_rows(fst.olabel, edge_ids)
    dist: dict[tuple[int, ...], float] = {}
    for words, p in zip(rows, probs.tolist()):
        dist[words] = dist.get(words, 0.0) + p
    return dist
