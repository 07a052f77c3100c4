"""Exact path sampling from acyclic weighted transducers.

Sampling runs in two stages: a backward pass computes, per state, the log
total weight of all suffixes reaching the final state; edge probabilities
at each visited state are then formed on the fly from those suffix weights
and a path is drawn ancestrally from the initial state.  Randomness is
counter-based: sample i walks the Philox4x64-10 stream keyed by
(i, seed), for stream indices 0..2^64-1, so it depends only on (seed, i),
never on how samples are batched, and runs are reproducible under any
scheduling.  A vectorized numpy kernel computes the draws of many streams
at once, bit for bit equal to numpy's own ``Philox`` generator.
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
    """Splittable source of per-sample random streams.

    Stream index i (0 <= i < 2^64) is the Philox4x64-10 counter-based
    generator keyed by the words (i, seed), so the draws for index i are
    identical whether samples are taken one at a time, in one big batch,
    or out of order.  ``sample_paths`` computes those draws with a numpy
    kernel; ``generator`` returns numpy's own generator for the same
    stream, the reference the kernel is tested against.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if not 0 <= seed < _TWO64:
            raise ValueError("seed must fit in 64 bits")
        self.seed = seed

    def generator(self, index: int) -> np.random.Generator:
        if not 0 <= index < _TWO64:
            raise ValueError("sample index must lie in 0..2^64-1")
        key = (self.seed << 64) | index
        return np.random.Generator(np.random.Philox(key=key))


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC'11) with numpy's constants: multipliers, key-schedule increments.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_MASK32 = 0xFFFFFFFF
_MASK64 = _TWO64 - 1

# The kernel's constants as numpy scalars, so no ufunc converts a Python
# int: each multiplier with its 32-bit halves, the shift and mask, and the
# index-side round keys (r * W0) mod 2^64.
_M_WORDS = tuple(
    tuple(np.uint64(v) for v in (m, m & _MASK32, m >> 32)) for m in _PHILOX_M
)
_U32 = np.uint64(32)
_U32_MASK = np.uint64(_MASK32)
_INDEX_KEYS = tuple(
    np.uint64((r * _PHILOX_W[0]) & _MASK64) for r in range(_PHILOX_ROUNDS)
)

# Samples whose draws are computed together; bounds the draw array's memory.
_CHUNK = 4096


def _mulhilo(
    m_words: tuple[np.uint64, np.uint64, np.uint64], x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, from 32-bit halves.

    ``m_words`` is the multiplier m with its low and high 32-bit halves.
    """
    m, m_lo, m_hi = m_words
    x_lo, x_hi = x & _U32_MASK, x >> _U32
    lo_lo = x_lo * m_lo
    hi_lo = x_hi * m_lo
    # At most 2^64 - 1, so the uint64 sum cannot wrap.
    cross = (lo_lo >> _U32) + (hi_lo & _U32_MASK) + x_lo * m_hi
    return x_hi * m_hi + (hi_lo >> _U32) + (cross >> _U32), x * m


def _philox_uniforms(
    seed: int, indices: np.ndarray, num_blocks: int
) -> np.ndarray:
    """The first 4*num_blocks uniforms in [0, 1) of each uint64 stream index.

    Row r, draw k is word k mod 4 of the Philox4x64-10 block with counter
    (floor(k/4)+1, 0, 0, 0) and key (indices[r], seed), mapped to
    (word >> 11) * 2^-53: bit for bit the values
    ``SampleStream(seed).generator(indices[r]).random()`` returns.
    """
    x0 = np.arange(1, num_blocks + 1, dtype=np.uint64)[None, :]
    x1 = x2 = x3 = np.zeros((1, 1), dtype=np.uint64)
    k0 = indices[:, None]
    # Seed-side round keys are reduced as Python ints: numpy scalar
    # arithmetic would warn on the wrap.
    seed_keys = [
        np.uint64((seed + r * _PHILOX_W[1]) & _MASK64)
        for r in range(_PHILOX_ROUNDS)
    ]
    for index_key, seed_key in zip(_INDEX_KEYS, seed_keys):
        hi0, lo0 = _mulhilo(_M_WORDS[0], x0)
        hi1, lo1 = _mulhilo(_M_WORDS[1], x2)
        x0, x1, x2, x3 = (
            hi1 ^ x1 ^ (k0 + index_key),
            lo1,
            hi0 ^ x3 ^ seed_key,
            lo0,
        )
    words = np.stack((x0, x1, x2, x3), axis=-1)
    return (words.reshape(len(indices), 4 * num_blocks) >> 11) * 2.0**-53


def sample_paths(
    fst: Wfst,
    stream: SampleStream | int,
    num_samples: int,
    start_index: int = 0,
) -> list[Path]:
    """Draw paths from the normalized lattice distribution.

    The backward pass runs once; edge probabilities are formed on the fly
    at each visited state, so the input transducer is never copied.
    Sample i walks the uniforms of stream index start_index + i, one per
    edge, so every index must lie in 0..2^64-1.  The returned paths carry
    original-lattice log-weights (unnormalized).

    Draws are computed chunk by chunk, one Philox kernel call per chunk.
    Each row holds at least one draw per edge of the longest
    initial-to-final path, so every walk finishes within its row.
    """
    if isinstance(stream, int):
        stream = SampleStream(stream)
    if num_samples < 0:
        raise ValueError("num_samples must be nonnegative")
    stop = start_index + num_samples
    if start_index < 0 or stop > _TWO64:
        raise ValueError("sample indices must lie in 0..2^64-1")
    beta = backward(fst)
    blocks = max(1, math.ceil(_longest_path_edges(fst) / 4))
    cache: dict[int, _Cdf] = {}
    out: list[Path] = []
    for first in range(start_index, stop, _CHUNK):
        count = min(_CHUNK, stop - first)
        indices = np.arange(count, dtype=np.uint64) + np.uint64(first)
        # _walk sums the input transducer's own weights, so the paths carry
        # unnormalized scores even though selection uses beta.
        for row in _philox_uniforms(stream.seed, indices, blocks):
            out.append(_walk(fst, beta, row.tolist(), cache))
    return out


def _longest_path_edges(fst: Wfst) -> float:
    """Edge count of the longest initial-to-final path (-inf when none)."""
    depth = [NEG_INF] * fst.num_states
    depth[fst.final] = 0
    for q in reversed(topological_order(fst)):
        ids = fst.out_edge_ids(q)
        if ids and q != fst.final:
            depth[q] = 1 + max(depth[fst.edges[k].dst] for k in ids)
    return depth[fst.initial]


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
    draws: list[float],
    cache: dict[int, _Cdf],
) -> Path:
    """One path, taking one uniform from ``draws`` per edge.

    ``draws`` must hold at least one uniform per edge of the longest path.
    """
    ids: list[int] = []
    log_weight = 0.0
    state = fst.initial
    for u in draws:
        if state == fst.final:
            break
        entry = cache.get(state)
        if entry is None:
            entry = _state_cdf(fst, beta, state)
            cache[state] = entry
        cum, last_positive = entry
        if last_positive < 0:
            raise DegenerateLatticeError(
                f"sampling reached dead-end state {state}"
            )
        idx = bisect_right(cum, u * cum[-1])
        if idx > last_positive:
            idx = last_positive
        k = fst.out_edge_ids(state)[idx]
        e = fst.edges[k]
        ids.append(k)
        log_weight += e.log_weight
        state = e.dst
    return Path(tuple(ids), log_weight)
