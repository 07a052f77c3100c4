"""Exact path sampling from acyclic weighted transducers.

Sampling runs in two stages: a backward pass computes, per state, the log
total weight of all suffixes reaching the final state; edge probabilities
at each visited state are then formed on the fly from those suffix weights
and a path is drawn ancestrally from the initial state.  Randomness is
counter-based: sample i walks the Philox4x64-10 stream keyed by
(i, seed), for stream indices 0..2^64-1, so it depends only on (seed, i),
never on how samples are batched, and runs are reproducible under any
scheduling.  A vectorized numpy kernel computes the draws of many streams
at once, bit for bit equal to numpy's own ``Philox`` generator, in calls
of up to KERNEL_ROWS streams whatever lattice walks them: ``stream_uniforms``
draws the rows and ``walk_paths`` walks a lattice over them, and
``sample_paths`` composes the two.
"""

from __future__ import annotations

import math
import operator
from typing import Iterator, Sequence

import numpy as np

from .errors import DegenerateLatticeError
from .fst import NEG_INF, Path, Wfst, edge_lists, reverse_fold

_TWO64 = 1 << 64


def backward(fst: Wfst) -> np.ndarray:
    """Per-state log total weight of all paths from the state to the final.

    Computed in reverse topological order with max-subtracted accumulation,
    so large score magnitudes cannot overflow.  States that cannot reach
    the final state get -inf; the entry for the initial state is the log
    partition function.  Raises DegenerateLatticeError when the initial
    state itself has -inf, i.e. no complete path carries positive weight,
    and CyclicFstError on cyclic input.  The result is computed once per
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
    beta = np.array(beta)
    beta.flags.writeable = False
    fst._beta = beta
    return beta


def _log_sum(vals: list[float]) -> float:
    """Max-subtracted log of the sum of exp(vals); -inf when all are -inf."""
    m = max(vals)
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(sum(math.exp(v - m) for v in vals))


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
    """numpy's own generators for the sample streams of one seed.

    Stream index i (0 <= i < 2^64) is the Philox4x64-10 counter-based
    generator keyed by the words (i, seed), so the draws for index i are
    identical whether samples are taken one at a time, in one big batch,
    or out of order.  ``stream_uniforms`` computes those draws with a numpy
    kernel; ``generator`` returns numpy's generator for the same stream,
    the reference the kernel is tested against.
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
# int: each multiplier with its 32-bit halves, the shifts and mask, and the
# index-side round keys (r * W0) mod 2^64.
_M_WORDS = tuple(
    tuple(np.uint64(v) for v in (m, m & _MASK32, m >> 32)) for m in _PHILOX_M
)
_U32 = np.uint64(32)
_U11 = np.uint64(11)
_U32_MASK = np.uint64(_MASK32)
_INDEX_KEYS = tuple(
    np.uint64((r * _PHILOX_W[0]) & _MASK64) for r in range(_PHILOX_ROUNDS)
)

# Streams whose draws one kernel call computes; bounds the kernel's memory.
KERNEL_ROWS = 4096


def _mulhilo(
    m_words: tuple[np.uint64, np.uint64, np.uint64], x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, from 32-bit halves.

    ``m_words`` is the multiplier m with its low and high 32-bit halves.
    The partial products are combined in place, which keeps few arrays of
    the size of ``x`` alive at once.
    """
    m, m_lo, m_hi = m_words
    x_lo, x_hi = x & _U32_MASK, x >> _U32
    hi_lo = x_hi * m_lo
    # cross = (lo_lo >> 32) + (hi_lo & mask) + x_lo * m_hi is at most
    # 2^64 - 1, so the uint64 sum cannot wrap.
    cross = x_lo * m_lo
    cross >>= _U32
    cross += hi_lo & _U32_MASK
    x_lo *= m_hi
    cross += x_lo
    cross >>= _U32
    hi_lo >>= _U32
    x_hi *= m_hi
    x_hi += hi_lo
    x_hi += cross
    return x_hi, x * m


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
    draws = np.empty((len(indices), num_blocks, 4))
    for k, word in enumerate((x0, x1, x2, x3)):
        draws[:, :, k] = word >> _U11
    draws *= 2.0**-53
    return draws.reshape(len(indices), 4 * num_blocks)


def stream_uniforms(seed: int, indices, num_draws: int) -> np.ndarray:
    """The first ``num_draws`` uniforms in [0, 1) of each sample stream.

    Row r holds the draws of stream index ``indices[r]`` under ``seed``,
    bit for bit the values ``SampleStream(seed).generator(indices[r])
    .random()`` returns.  ``indices`` is a uint64 array or a sequence of
    ints; the seed and every index must lie in 0..2^64-1 (ValueError
    otherwise).  The kernel runs once per KERNEL_ROWS rows.
    """
    if not 0 <= seed < _TWO64:
        raise ValueError("seed must fit in 64 bits")
    if not (isinstance(indices, np.ndarray) and indices.dtype == np.uint64):
        values = [operator.index(i) for i in indices]
        if values and not (min(values) >= 0 and max(values) < _TWO64):
            raise ValueError("sample indices must lie in 0..2^64-1")
        indices = np.array(values, dtype=np.uint64)
    blocks = max(1, math.ceil(num_draws / 4))
    if len(indices) <= KERNEL_ROWS:
        return _philox_uniforms(seed, indices, blocks)[:, :num_draws]
    chunks = [
        _philox_uniforms(seed, indices[first:first + KERNEL_ROWS], blocks)
        for first in range(0, len(indices), KERNEL_ROWS)
    ]
    return np.concatenate(chunks)[:, :num_draws]


def walk_paths(lattices: Sequence[Wfst], uniforms: np.ndarray) -> np.ndarray:
    """One path per row of ``uniforms``, drawn from normalized lattices.

    The lattices share one topology, as the lattices a LatticeTopology
    gives do, and split the rows into len(lattices) equal blocks: row
    block d walks lattices[d].  Each walk takes one uniform of its row
    per edge, so a row must hold at least as many draws as the longest
    initial-to-final path has edges (ValueError otherwise).  Returns the
    (rows, longest) matrix of the paths' edge ids, -1 after the final
    state; ``sample_paths`` turns such rows into Paths.
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
    return _Walker(lattices, longest).walk(uniforms)


def sample_edge_ids(
    fst: Wfst, seed: int, num_samples: int, start_index: int = 0
) -> np.ndarray:
    """The paths of ``sample_paths`` as the rows of one edge-id matrix."""
    chunks = list(_sampled_chunks(fst, seed, num_samples, start_index))
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def sample_paths(
    fst: Wfst, seed: int, num_samples: int, start_index: int = 0
) -> list[Path]:
    """Draw paths from the normalized lattice distribution.

    Sample i walks the uniforms of stream index start_index + i under
    ``seed``, as ``walk_paths`` walks the rows of ``stream_uniforms``, so
    the seed and every index must lie in 0..2^64-1 (ValueError
    otherwise).  The backward pass and the longest-path count run once;
    draws are computed and walked KERNEL_ROWS samples at a time, which
    bounds the memory of the draws.  The returned paths carry
    original-lattice log-weights (unnormalized), summed left to right.
    """
    weights = np.append(fst.log_weight, 0.0)
    out: list[Path] = []
    for ids in _sampled_chunks(fst, seed, num_samples, start_index):
        # Padding adds 0.0, which leaves every sum from +0.0 unchanged.
        log_weights = np.zeros(len(ids))
        for column in ids.T:
            log_weights += weights[column]
        lengths = (ids >= 0).sum(axis=1)
        out += [
            Path(tuple(row[:n]), w)
            for row, n, w in zip(
                ids.tolist(), lengths.tolist(), log_weights.tolist()
            )
        ]
    return out


def _sampled_chunks(
    fst: Wfst, seed: int, num_samples: int, start_index: int
) -> Iterator[np.ndarray]:
    """Edge-id matrices of the samples, KERNEL_ROWS rows at a time.

    With no samples this yields one empty matrix.
    """
    if not 0 <= seed < _TWO64:
        raise ValueError("seed must fit in 64 bits")
    if num_samples < 0:
        raise ValueError("num_samples must be nonnegative")
    stop = start_index + num_samples
    if start_index < 0 or stop > _TWO64:
        raise ValueError("sample indices must lie in 0..2^64-1")
    longest = longest_path_edges(fst)
    walker = _Walker([fst], longest)
    num_draws = max(1, walker.width)
    for first in range(start_index, stop, KERNEL_ROWS) or (start_index,):
        count = min(KERNEL_ROWS, stop - first)
        indices = np.arange(count, dtype=np.uint64) + np.uint64(first)
        yield walker.walk(stream_uniforms(seed, indices, num_draws))


def longest_path_edges(fst: Wfst) -> float:
    """Edge count of the longest initial-to-final path (-inf when none)."""
    dst = edge_lists(fst)[1]
    depth = reverse_fold(
        fst, 0, NEG_INF,
        lambda depth, q, ids: 1 + max(depth[dst[k]] for k in ids),
    )
    return depth[fst.initial]


# ``_Walker.last`` entry of a state whose CDF row is not built yet.
_UNBUILT = -2


class _Walker:
    """Lockstep ancestral walks over lattices that share one topology.

    Every row takes its next edge in the same numpy step.  At state q of
    lattice d the row's uniform u picks the edge whose index is the count
    of the state's cumulative out-edge probabilities that are <= u times
    their total, clamped at the last positive edge: exactly the
    ``bisect_right`` of an inverse-CDF draw.  Each state's CDF row is
    built once, on the first visit, with ``math.exp`` in out-edge order.
    The rows of all states and lattices share one flat
    array, laid out as the lattices' ``out_ids`` repeated once per
    lattice, so memory grows with edges, never with states times
    out-degree.  State q of lattice d is key d * num_states + q.
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
        # The inputs of the CDF rows, as lists.
        self.betas = [backward(fst).tolist() for fst in lattices]
        self.weights = [fst.log_weight.tolist() for fst in lattices]
        self.out, self.dst_list = edge_lists(first)
        # Finite now: backward found a path from the initial state.
        self.width = int(longest)
        self.dst = first.dst
        # Per key, its CDF row's flat span [start, end); per flat position,
        # the edge id.  Flat entry p is stored at cdf[p + 1], so cdf[i]
        # reads the value before position i.
        blocks = np.arange(len(lattices))[:, None] * first.num_edges
        self.start = (blocks + first.first_out[:-1]).ravel()
        self.end = (blocks + first.first_out[1:]).ravel()
        self.edge_at = np.tile(first.out_ids, len(lattices))
        self.cdf = np.zeros(1 + len(self.edge_at))
        self.total = np.zeros(len(self.start))
        self.last = np.full(len(self.start), _UNBUILT)

    def _build(self, keys: set[int]):
        """The CDF rows of the given keys: cumulative out-edge
        probabilities, reweighted on the fly by beta."""
        num_states, dst = self.lattices[0].num_states, self.dst_list
        for key in keys:
            d, state = divmod(key, num_states)
            weight, beta = self.weights[d], self.betas[d]
            cum, total, last_positive = [], 0.0, -1
            for idx, k in enumerate(self.out[state]):
                w = weight[k] + beta[dst[k]] - beta[state]
                p = math.exp(w) if math.isfinite(w) else 0.0
                if p > 0.0:
                    last_positive = idx
                total += p
                cum.append(total)
            start = 1 + int(self.start[key])
            self.cdf[start:start + len(cum)] = cum
            self.total[key] = total
            self.last[key] = last_positive

    def walk(self, uniforms: np.ndarray) -> np.ndarray:
        """The (rows, width) edge-id matrix of one walk per row."""
        first = self.lattices[0]
        num_rows = len(uniforms)
        out = np.full((num_rows, self.width), -1, dtype=np.intp)
        rows = np.arange(num_rows)
        block = num_rows // len(self.lattices) or 1
        key_base = rows // block * first.num_states
        state = np.full(num_rows, first.initial, dtype=np.intp)
        stuck: list[tuple[int, int]] = []
        for j in range(self.width if num_rows else 0):
            keys = key_base + state
            last = self.last[keys]
            if last.min() < 0:
                unbuilt = last == _UNBUILT
                if unbuilt.any():
                    self._build(set(keys[unbuilt].tolist()))
                    last = self.last[keys]
                live = last >= 0
                stuck += zip(rows[~live].tolist(), state[~live].tolist())
                rows, key_base, keys, last = (
                    rows[live], key_base[live], keys[live], last[live]
                )
                if not len(rows):
                    break
            start, end = self.start[keys], self.end[keys]
            x = self.total[keys]
            x *= uniforms[:, j] if len(rows) == num_rows else uniforms[rows, j]
            # Largest pos in [start, end] with no CDF value before it
            # above x: powers of two, largest first.
            pos = start
            step = 1 << (int((end - start).max()).bit_length() - 1)
            while step:
                probe = np.minimum(pos + step, end)
                pos = np.where(x < self.cdf[probe], pos, probe)
                step >>= 1
            last += start
            edge = self.edge_at[np.minimum(pos, last, out=last)]
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
        if stuck:
            raise DegenerateLatticeError(
                f"sampling reached dead-end state {min(stuck)[1]}"
            )
        return out
