"""Exact path sampling from acyclic weighted transducers.

Sampling runs in two stages: a backward pass computes, per state, the log
total weight of all suffixes reaching the final state; the cumulative
edge probabilities of every state are then formed at once from those
suffix weights, and a path is drawn ancestrally from the initial state.
Randomness is counter-based: block b of sample i's stream is the
Philox4x64-10 block at counter (i, b, 0, 0) under key ``seed``, for stream
indices 0..2^64-1, so sample i depends only on (seed, i), never on how
samples are batched, and runs are reproducible under any scheduling.
numpy's own ``Philox`` draws a block of a whole run of consecutive
streams in one C call, whatever lattice walks them: ``stream_uniforms``
draws the rows of one such run, named by (seed, first stream, count),
``walk_paths`` walks lattices over them, and ``sample_paths`` composes
the two, CHUNK_ROWS samples at a time.
"""

from __future__ import annotations

import math
import operator
from typing import Iterator, Sequence

import numpy as np

from .errors import DegenerateLatticeError
from .fst import (
    NEG_INF,
    Path,
    Wfst,
    distinct_rows,
    edge_lists,
    longest_path_edges,
    out_edge_groups,
    reverse_fold,
)

_TWO64 = 1 << 64


def backward(fst: Wfst) -> np.ndarray:
    """Per-state log total weight of all paths from the state to the final.

    Computed in reverse topological order with max-subtracted accumulation,
    so large score magnitudes cannot overflow.  States that cannot reach
    the final state get -inf; the entry for the initial state is the log
    partition function.  Raises DegenerateLatticeError when the initial
    state itself has -inf, i.e. no complete path carries positive weight,
    or NaN or +inf, a total weight past the float range, and
    CyclicFstError on cyclic input.  The result is computed once per
    transducer, cached on it and returned read-only.
    """
    if fst._beta is not None:
        return fst._beta
    dst, weight = edge_lists(fst)[1], fst.log_weight.tolist()
    beta = reverse_fold(
        fst, 0.0, NEG_INF,
        lambda beta, q, ids: _log_sum([weight[k] + beta[dst[k]] for k in ids]),
    )
    if beta[fst.initial] == NEG_INF:
        raise DegenerateLatticeError(
            "no positive-weight path from the initial state"
        )
    # Overflow leaves NaN, as _log_sum subtracts +inf from +inf.
    if not math.isfinite(beta[fst.initial]):
        raise DegenerateLatticeError("total path weight overflows")
    beta = np.array(beta)
    beta.flags.writeable = False
    fst._beta = beta
    return beta


def _log_sum(vals: list[float]) -> float:
    """Max-subtracted log of the sum of exp(vals); -inf when all are -inf,
    NaN when any is NaN.

    Both sums add from 0.0, left to right: builtin ``sum`` compensates
    float sums from Python 3.12 on, which would make the bits depend on
    the Python version.
    """
    m = max(vals)
    total = 0.0
    if m == NEG_INF:
        # max skips a NaN that follows -inf; the plain sum does not.
        for v in vals:
            total += v
        return total
    for v in vals:
        total += math.exp(v - m)
    return m + math.log(total)


def stochasticity_deviation(fst: Wfst) -> float:
    """Max over live states of |log sum of outgoing weights|.

    Zero for a perfectly stochastic transducer.  States whose outgoing
    weights are all zero (and the final state) are skipped.
    """
    worst = 0.0
    weight = fst.log_weight.tolist()
    for ids in filter(None, edge_lists(fst)[0]):
        total = _log_sum([weight[k] for k in ids])
        if total != NEG_INF:
            worst = max(worst, abs(total))
    return worst


class SampleStream:
    """numpy's own Philox4x64-10 generators, positioned in the sample
    streams of one seed.

    Block b (b >= 1) of stream index i (0 <= i < 2^64) is the Philox4x64-10
    block at counter (i, b, 0, 0) under key ``seed``, and draws
    4(b-1)..4b-1 of the stream are its four words w, each mapped to
    (w >> 11) * 2^-53.  So the draws for index i depend only on (seed, i),
    whether samples are taken one at a time, in one big batch, or out of
    order.  The stream index is the low counter word, so block b of
    consecutive streams is a run of consecutive counters:
    ``generator(i, b)``'s ``random`` yields block b of stream i, then block
    b of stream i + 1, and so on.  ``stream_uniforms`` draws a run of
    consecutive streams from one such generator per call, repositioned
    once per block by assigning its state.  The seed is an int in
    0..2^64-1: TypeError for a float, ValueError out of range.
    """

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if not 0 <= seed < _TWO64:
            raise ValueError("seed must fit in 64 bits")
        self.seed = seed

    def generator(self, index: int, block: int = 1) -> np.random.Generator:
        if not 0 <= index < _TWO64:
            raise ValueError("sample index must lie in 0..2^64-1")
        if not 1 <= block < _TWO64:
            raise ValueError("block must lie in 1..2^64-1")
        return np.random.Generator(
            np.random.Philox(key=self.seed, counter=_counter(index, block))
        )


def _counter(index: int, block: int) -> int:
    """The Philox counter that draws block ``block`` of stream ``index``
    next: numpy's Philox adds one to its counter before each block."""
    return (block << 64) + index - 1


# Rows that one walk of ``sampled_chunks`` or one run of training's draws
# holds at once; bounds the memory of the draws.
CHUNK_ROWS = 4096


def stream_uniforms(
    seed: int, first: int, count: int, num_draws: int
) -> np.ndarray:
    """The first ``num_draws`` uniforms in [0, 1) of ``count`` consecutive
    sample streams.

    Row r holds the draws of stream index ``first + r`` under ``seed``,
    laid out as ``SampleStream`` says: block b is numpy's ``Philox`` block
    at counter (first + r, b, 0, 0) under key ``seed``.  Every argument
    is an int (TypeError otherwise); the seed and every stream index of
    the run must lie in 0..2^64-1, and ``count`` and ``num_draws`` must
    be nonnegative (ValueError otherwise).  One ``random`` call draws
    block b of every row, from one ``generator`` moved to each block by
    assigning its state: the counter ``generator(first, b)`` starts at,
    with the block buffer spent, as in a new generator.
    """
    generator = SampleStream(seed).generator(0)
    first, count, num_draws = map(operator.index, (first, count, num_draws))
    if count < 0 or num_draws < 0:
        raise ValueError("count and num_draws must be nonnegative")
    # A run that ends by 2^64 - 1 never carries counter word 0 into the
    # block word.
    if first < 0 or first + count > _TWO64:
        raise ValueError("sample indices must lie in 0..2^64-1")
    num_blocks = max(1, math.ceil(num_draws / 4))
    draws = np.empty((num_blocks, count, 4))
    bits = generator.bit_generator
    state = bits.state
    for b in range(num_blocks):
        counter = _counter(first, b + 1)
        state["state"]["counter"] = np.array(
            [counter % _TWO64, counter >> 64, 0, 0], dtype=np.uint64
        )
        state["buffer_pos"] = 4
        bits.state = state
        generator.random(out=draws[b])
    uniforms = draws.transpose(1, 0, 2).reshape(count, 4 * num_blocks)
    return uniforms[:, :num_draws]


def walk_paths(lattices: Sequence[Wfst], uniforms: np.ndarray) -> np.ndarray:
    """One path per row of ``uniforms``, drawn from normalized lattices.

    The lattices share one topology, as the lattices a LatticeTopology
    gives do, and split the rows into len(lattices) equal blocks: row
    block d walks lattices[d].  Each walk takes one uniform of its row
    per edge, so a row must hold at least as many draws as the longest
    initial-to-final path has edges, and every uniform must lie in
    [0, 1), as ``stream_uniforms`` draws them (ValueError otherwise):
    each step then takes an edge of positive probability into a state
    that reaches the final state.  The CDF
    rows of every state of every lattice are built before the first step,
    in array passes whose topology-only part (``out_edge_groups``) the
    lattices share.  Returns the (rows, longest) matrix of the paths' edge
    ids, -1 after the final state; ``sample_paths`` turns such rows into
    Paths.
    """
    if not lattices or len(uniforms) % len(lattices):
        raise ValueError(
            f"{len(uniforms)} rows do not split into {len(lattices)} "
            "equal blocks"
        )
    longest = longest_path_edges(lattices[0])
    if uniforms.shape[1] < longest:
        raise ValueError(
            f"rows hold {uniforms.shape[1]} draws; the longest path has "
            f"{longest} edges"
        )
    if not ((uniforms >= 0.0) & (uniforms < 1.0)).all():
        raise ValueError("uniforms must lie in [0, 1)")
    return _Walker(lattices, longest).walk(uniforms)


def sample_edge_ids(
    fst: Wfst, seed: int, num_samples: int, start_index: int = 0
) -> np.ndarray:
    """The paths of ``sample_paths`` as the rows of one edge-id matrix."""
    chunks = list(sampled_chunks(fst, seed, num_samples, start_index))
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def sample_paths(
    fst: Wfst, seed: int, num_samples: int, start_index: int = 0
) -> list[Path]:
    """Draw paths from the normalized lattice distribution.

    Sample i walks the uniforms of stream index start_index + i under
    ``seed``, as ``walk_paths`` walks the rows of ``stream_uniforms``, so
    the seed and every index must lie in 0..2^64-1 (ValueError
    otherwise).  The backward pass and the longest-path count run once;
    draws are computed and walked CHUNK_ROWS samples at a time, which
    bounds the memory of the draws.  The returned paths carry
    original-lattice log-weights (unnormalized), summed left to right.
    One Path is built per distinct row of a chunk, and equal rows of the
    chunk share it: Paths are frozen, so sharing is safe.
    """
    weights = np.append(fst.log_weight, 0.0)
    out: list[Path] = []
    for ids in sampled_chunks(fst, seed, num_samples, start_index):
        rows, inverse = distinct_rows(ids)
        # Padding adds 0.0, which leaves every sum from +0.0 unchanged.
        log_weights = np.zeros(len(rows))
        for column in rows.T:
            log_weights += weights[column]
        lengths = (rows >= 0).sum(axis=1)
        paths = [
            Path(tuple(row[:n]), w)
            for row, n, w in zip(
                rows.tolist(), lengths.tolist(), log_weights.tolist()
            )
        ]
        out += map(paths.__getitem__, inverse.tolist())
    return out


def sampled_chunks(
    fst: Wfst, seed: int, num_samples: int, start_index: int = 0
) -> Iterator[np.ndarray]:
    """The rows of ``sample_edge_ids`` as matrices of CHUNK_ROWS rows or
    fewer, each walked as it is asked for.

    With no samples this yields one empty matrix.
    """
    SampleStream(seed)  # checks the seed before any walk
    if num_samples < 0:
        raise ValueError("num_samples must be nonnegative")
    stop = start_index + num_samples
    if start_index < 0 or stop > _TWO64:
        raise ValueError("sample indices must lie in 0..2^64-1")
    longest = longest_path_edges(fst)
    walker = _Walker([fst], longest)
    num_draws = max(1, walker.width)
    for first in range(start_index, stop, CHUNK_ROWS) or (start_index,):
        count = min(CHUNK_ROWS, stop - first)
        yield walker.walk(stream_uniforms(seed, first, count, num_draws))


class _Walker:
    """Lockstep ancestral walks over lattices that share one topology.

    Every row takes its next edge in the same numpy step.  At state q of
    lattice d the row's uniform u picks the edge whose index is the count
    of the state's cumulative out-edge probabilities that are <= u times
    their total, clamped at the last positive edge: exactly the
    ``bisect_right`` of an inverse-CDF draw.  The CDF rows of every state
    of every lattice are built at once, bit for bit as a Python loop over
    each state's out-edges builds them: the log-ratios w + beta[dst] -
    beta[q] in numpy, ``math.exp`` of the finite ones, and one running sum
    per row, taken by ``np.cumsum`` over the states of each out-degree
    (``out_edge_groups``).  The rows share one flat array, laid out as the
    lattices' ``out_ids`` repeated once per lattice, so memory grows with
    edges, never with states times out-degree.  State q of lattice d is
    key d * num_states + q.
    """

    def __init__(self, lattices: Sequence[Wfst], longest: float):
        first = lattices[0]
        for fst in lattices[1:]:
            if fst.final != first.final or not all(
                getattr(fst, name) is getattr(first, name)
                or np.array_equal(getattr(fst, name), getattr(first, name))
                for name in ("first_out", "out_ids", "dst")
            ):
                raise ValueError("lattices must share one topology")
        self.lattices = lattices
        beta = np.array([backward(fst) for fst in lattices])
        # Finite now: backward found a path from the initial state.
        self.width = int(longest)
        self.dst = first.dst
        src_at, dst_at, groups = out_edge_groups(first)
        weight = np.array([fst.log_weight for fst in lattices])
        # (w + beta[dst]) - beta[q], as Python floats sum it; dead states
        # give -inf - -inf.
        with np.errstate(invalid="ignore", over="ignore"):
            ratio = weight[:, first.out_ids] + beta[:, dst_at]
            ratio -= beta[:, src_at]
        finite = np.isfinite(ratio)
        prob = np.zeros(ratio.shape)
        prob[finite] = np.fromiter(
            map(math.exp, ratio[finite].tolist()), float, int(finite.sum())
        )
        del ratio, finite
        # Per key, its CDF row's flat span [start, last], through its last
        # positive entry (last -1 where there is none, at states no walk
        # reaches); per flat position, the edge id.  Flat entry p is stored
        # at cdf[p + 1], so cdf[i] reads the value before position i.
        blocks = np.arange(len(lattices))[:, None] * first.num_edges
        self.start = (blocks + first.first_out[:-1]).ravel()
        self.edge_at = np.tile(first.out_ids, len(lattices))
        self.cdf = np.zeros(1 + len(self.edge_at))
        cdf = self.cdf[1:].reshape(prob.shape)
        total = np.zeros((len(lattices), first.num_states))
        last = np.full(total.shape, -1)
        for states, positions in groups:
            rows = prob[:, positions]
            cum = np.cumsum(rows, axis=2)
            cdf[:, positions] = cum
            total[:, states] = cum[:, :, -1]
            last[:, states] = np.where(rows > 0.0, positions, -1).max(axis=2)
        self.total = total.ravel()
        self.last = np.where(last >= 0, last + blocks, -1).ravel()

    def walk(self, uniforms: np.ndarray) -> np.ndarray:
        """The (rows, width) edge-id matrix of one walk per row.

        The uniforms lie in [0, 1), so every step takes an edge of
        positive probability, into a state that reaches the final state.
        """
        first = self.lattices[0]
        num_rows = len(uniforms)
        out = np.full((num_rows, self.width), -1, dtype=np.intp)
        rows = np.arange(num_rows)
        block = num_rows // len(self.lattices) or 1
        key_base = rows // block * first.num_states
        state = np.full(num_rows, first.initial, dtype=np.intp)
        for j in range(self.width if num_rows else 0):
            keys = key_base + state
            start, last = self.start[keys], self.last[keys]
            x = self.total[keys]
            x *= uniforms[:, j] if len(rows) == num_rows else uniforms[rows, j]
            # Largest pos in [start, last] with no CDF value before it
            # above x: powers of two, largest first.
            pos = start
            step = (1 << int((last - start).max()).bit_length()) >> 1
            while step:
                probe = np.minimum(pos + step, last)
                pos = np.where(x < self.cdf[probe], pos, probe)
                step >>= 1
            edge = self.edge_at[pos]
            if len(rows) == num_rows:
                out[:, j] = edge
            else:
                out[rows, j] = edge
            state = self.dst[edge]
            going = state != first.final
            if not going.all():
                rows, key_base = rows[going], key_base[going]
                state = state[going]
                if not len(rows):
                    break
        return out
