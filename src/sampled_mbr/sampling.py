"""Exact path sampling from acyclic weighted transducers.

Sampling runs in two stages: a backward pass computes, per state, the log
total weight of all suffixes reaching the final state; edge probabilities
at each visited state are then formed on the fly from those suffix weights
and a path is drawn ancestrally from the initial state.  Randomness is
counter-based: sample i depends only on (seed, i), never on how samples
are batched, so runs are reproducible under any scheduling.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .errors import DegenerateLatticeError
from .fst import NEG_INF, Edge, Path, Wfst, topological_order

_TWO64 = 1 << 64

# (cumulative probabilities, index of last positive entry) per state
_Cdf = tuple[list[float], int]


def backward(fst: Wfst) -> np.ndarray:
    """Per-state log total weight of all paths from the state to the final.

    Computed in reverse topological order with max-subtracted accumulation,
    so large score magnitudes cannot overflow.  States that cannot reach
    the final state get -inf; the entry for the initial state is the log
    partition function.  Raises DegenerateLatticeError when the initial
    state itself has -inf, i.e. no complete path carries positive weight,
    and CyclicFstError on cyclic input.
    """
    order = topological_order(fst)
    beta = np.full(fst.num_states, NEG_INF)
    beta[fst.final] = 0.0
    for q in reversed(order):
        ids = fst.out_edge_ids(q)
        if ids:
            beta[q] = _log_sum(
                [fst.edges[k].log_weight + beta[fst.edges[k].dst] for k in ids]
            )
    if beta[fst.initial] == NEG_INF:
        raise DegenerateLatticeError(
            "no positive-weight path from the initial state"
        )
    return beta


def _log_sum(vals: list[float]) -> float:
    """Max-subtracted log of the sum of exp(vals); -inf when all are -inf."""
    m = max(vals)
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(sum(math.exp(v - m) for v in vals))


def reweight_stochastic(fst: Wfst) -> Wfst:
    """Materialized copy whose out-weights sum to one at every live state.

    Each edge weight becomes w + beta[dst] - beta[src]; path probabilities
    are preserved and every complete path's new log-weight equals its old
    log-weight minus the log partition function.  Edges touching a state
    that cannot reach the final keep semiring zero (-inf).  Sampling does
    this reweighting on the fly; the materialized form exists so tests can
    check stochasticity directly.
    """
    beta = backward(fst)
    edges = []
    for e in fst.edges:
        into, out_of = float(beta[e.dst]), float(beta[e.src])
        if math.isfinite(into) and math.isfinite(out_of):
            w = e.log_weight + into - out_of
        else:
            w = NEG_INF
        edges.append(Edge(e.src, e.dst, e.ilabel, e.olabel, w))
    return Wfst(fst.num_states, edges, final=fst.final, initial=fst.initial)


def stochasticity_deviation(fst: Wfst) -> float:
    """Max over live states of |log sum of outgoing weights|.

    Zero for a perfectly stochastic transducer.  States whose outgoing
    weights are all zero (and the final state) are skipped.
    """
    worst = 0.0
    for q in range(fst.num_states):
        ids = fst.out_edge_ids(q)
        if not ids:
            continue
        total = _log_sum([fst.edges[k].log_weight for k in ids])
        if total != NEG_INF:
            worst = max(worst, abs(total))
    return worst


class SampleStream:
    """Splittable source of per-sample random generators.

    Sample index i gets its own counter-based generator keyed by
    (seed, i), so the draw for index i is identical whether samples are
    taken one at a time, in one big batch, or out of order.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if not 0 <= seed < _TWO64:
            raise ValueError("seed must fit in 64 bits")
        self.seed = seed

    def generator(self, index: int) -> np.random.Generator:
        if index < 0:
            raise ValueError("sample index must be nonnegative")
        key = (self.seed << 64) | index
        return np.random.Generator(np.random.Philox(key=key))


def sample_paths(
    fst: Wfst,
    stream: SampleStream | int,
    num_samples: int,
    start_index: int = 0,
) -> list[Path]:
    """Draw paths from the normalized lattice distribution.

    The backward pass runs once; edge probabilities are formed on the fly
    at each visited state, so the input transducer is never copied.
    Sample i uses the generator for stream index start_index + i.  The
    returned paths carry original-lattice log-weights (unnormalized).
    """
    if isinstance(stream, int):
        stream = SampleStream(stream)
    if num_samples < 0:
        raise ValueError("num_samples must be nonnegative")
    beta = backward(fst)
    cache: dict[int, _Cdf] = {}
    out: list[Path] = []
    for i in range(num_samples):
        rng = stream.generator(start_index + i)
        # _walk sums the input transducer's own weights, so the paths carry
        # unnormalized scores even though selection uses beta on the fly.
        out.append(_walk(fst, beta, rng, cache))
    return out


def _state_cdf(fst: Wfst, beta: np.ndarray, state: int) -> _Cdf:
    """Cumulative out-edge probabilities, reweighted on the fly by beta."""
    cum: list[float] = []
    total = 0.0
    last_positive = -1
    for idx, k in enumerate(fst.out_edge_ids(state)):
        e = fst.edges[k]
        w = e.log_weight + beta[e.dst] - beta[state]
        p = math.exp(w) if math.isfinite(w) else 0.0
        if p > 0.0:
            last_positive = idx
        total += p
        cum.append(total)
    return cum, last_positive


def _walk(
    fst: Wfst,
    beta: np.ndarray,
    rng: np.random.Generator,
    cache: dict[int, _Cdf],
) -> Path:
    ids: list[int] = []
    log_weight = 0.0
    state = fst.initial
    while state != fst.final:
        entry = cache.get(state)
        if entry is None:
            entry = _state_cdf(fst, beta, state)
            cache[state] = entry
        cum, last_positive = entry
        if last_positive < 0:
            raise DegenerateLatticeError(
                f"sampling reached dead-end state {state}"
            )
        u = rng.random() * cum[-1]
        idx = bisect_right(cum, u)
        if idx > last_positive:
            idx = last_positive
        k = fst.out_edge_ids(state)[idx]
        e = fst.edges[k]
        ids.append(k)
        log_weight += e.log_weight
        state = e.dst
    return Path(tuple(ids), log_weight)
