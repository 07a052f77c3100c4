"""Expected-loss values and gradients for lattice distributions.

Exact oracles enumerate paths (or follow the backward pass with one
first-order suffix pass for edge-additive losses); the sampled estimators
approximate the same quantities from Monte Carlo paths, with an optional
variance-reduction baseline that is exactly invariant to additive loss
shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .compose import occupied_cells
from .fst import (
    MAX_ENUMERATED_PATHS,
    NEG_INF,
    Wfst,
    edge_lists,
    enumerated_distribution,
    reverse_fold,
)
from .sampling import backward, sample_edge_ids


@dataclass(eq=False)
class MbrEstimate:
    """Expected loss, its gradient w.r.t. the score matrix, and diagnostics."""

    expected_loss: float
    gradient: np.ndarray
    num_samples: int
    per_sample_losses: np.ndarray
    loss_variance: float
    seed: int


def expected_loss_exact(fst: Wfst, loss) -> float:
    """Expected path loss by full enumeration of the lattice.

    One ``loss.batch`` call scores the paths; the value sums probability
    times loss from 0.0 left to right, as a ``cumsum``.  Raises
    PathOverflowError past MAX_ENUMERATED_PATHS paths.
    """
    edge_ids, probs = enumerated_distribution(fst, MAX_ENUMERATED_PATHS)
    return float(np.cumsum(probs * loss.batch(fst, edge_ids))[-1])


def expected_loss_gradient_exact(
    fst: Wfst, loss, num_frames: int, num_symbols: int
) -> np.ndarray:
    """Exact gradient of the expected loss w.r.t. the (T, Q) score matrix.

    The expected loss of a globally normalized distribution has gradient
    E[L * dlogw/dz] - E[L] * E[dlogw/dz], a covariance between the scalar
    loss and the occupancy matrix; both expectations are taken exactly
    over the enumerated paths, at most MAX_ENUMERATED_PATHS of them, which
    one ``loss.batch`` call scores.  Each expectation adds its terms in
    path order from 0.0, per cell for the occupancies.
    """
    edge_ids, probs = enumerated_distribution(fst, MAX_ENUMERATED_PATHS)
    weighted = probs * loss.batch(fst, edge_ids)
    cells = occupied_cells(fst, edge_ids, num_frames, num_symbols)
    mean_loss = np.cumsum(weighted)[-1]
    mean_gamma = _cell_sums(cells, probs, num_frames, num_symbols)
    loss_gamma = _cell_sums(cells, weighted, num_frames, num_symbols)
    return loss_gamma - mean_loss * mean_gamma


def _cell_sums(
    cells: np.ndarray, weights: np.ndarray, num_frames: int, num_symbols: int
) -> np.ndarray:
    """(T, Q) matrix of the summed weights of the rows occupying each cell.

    ``cells`` is an ``occupied_cells`` matrix with one weight per row.
    Each cell adds its rows' weights in row order from 0.0: one weighted
    ``bincount`` over the cells in row-major order, which calls no BLAS
    and builds no (N, T, Q) stack, so the bits depend neither on the
    BLAS kernel nor on its thread count.
    """
    size = num_frames * num_symbols
    sums = np.bincount(cells.ravel(), np.repeat(weights, num_frames), size)
    return sums.reshape(num_frames, num_symbols)


def expected_additive_loss(
    fst: Wfst, edge_losses: Sequence[float] | np.ndarray
) -> tuple[float, float]:
    """Expected value of an edge-additive loss from the backward weights.

    ``edge_losses`` holds, per edge id, a loss term whose sum along a path
    equals the path loss.  After ``backward``, one more reverse
    topological pass accumulates each state's expected suffix loss, a
    first-order expectation-semiring value kept in normalized form so only
    ratios of weights are exponentiated.  Returns (log partition function,
    expected loss).
    """
    costs = np.asarray(edge_losses, dtype=float)
    if costs.shape != (fst.num_edges,):
        raise ValueError(
            f"edge losses have shape {costs.shape}, "
            f"expected ({fst.num_edges},)"
        )
    # Python floats: element access is faster than on numpy arrays and the
    # double arithmetic, hence every bit, is the same.
    beta = backward(fst).tolist()
    costs = costs.tolist()
    dst, weight = edge_lists(fst)[1], fst.log_weight.tolist()

    # A state whose beta is -inf has only -inf terms, so it gets 0.0.
    def expected_suffix(suffix, q, ids):
        total = 0.0
        for k in ids:
            v = weight[k] + beta[dst[k]]
            if v != NEG_INF:
                total += math.exp(v - beta[q]) * (costs[k] + suffix[dst[k]])
        return total

    suffix = reverse_fold(fst, 0.0, 0.0, expected_suffix)
    return beta[fst.initial], suffix[fst.initial]


def sampled_estimate(
    fst: Wfst,
    loss,
    num_frames: int,
    num_symbols: int,
    num_samples: int,
    seed: int,
    start_index: int = 0,
    variance_reduction: bool = True,
) -> MbrEstimate:
    """Monte Carlo estimate of the expected loss and its score gradient.

    ``estimate_from_paths`` over ``num_samples`` paths drawn as
    sample_paths draws them under ``seed`` from stream index
    ``start_index`` on; without variance reduction the baseline batch is
    the next ``num_samples`` stream indices.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be positive")
    batch = num_samples if variance_reduction else 2 * num_samples
    edge_ids = sample_edge_ids(fst, seed, batch, start_index)
    return estimate_from_paths(
        fst, loss, edge_ids, num_frames, num_symbols, seed, variance_reduction
    )


def estimate_from_paths(
    fst: Wfst,
    loss,
    edge_ids: np.ndarray,
    num_frames: int,
    num_symbols: int,
    seed: int,
    variance_reduction: bool,
) -> MbrEstimate:
    """Expected loss and score gradient from sampled paths of ``fst``.

    The paths are the rows of an edge-id matrix, as ``walk_paths``
    returns them; ``loss.batch`` scores them.

    The expected loss is the mean loss over the samples.  With variance
    reduction every path is a sample, and the gradient is I/(I-1) times
    the sample covariance between losses and occupancy matrices: per
    cell, the sum of its paths' centered losses over I - 1.  The
    baseline is computed from min-shifted losses, which leaves the value
    unchanged in exact arithmetic and makes the result bit-for-bit
    invariant to any additive loss offset that keeps the shifted losses
    exactly representable.  For a single sample the covariance is
    undefined and the gradient is the zero matrix.

    Without variance reduction the first half of the rows are the
    samples and the gradient is mean_i L_i (G_i - Gbar), where Gbar is the
    mean occupancy of the second half, an independent batch; independence
    keeps the estimate unbiased, at the cost of sensitivity to loss
    offsets.  It is formed as (sum_i L_i G_i - (sum_i L_i) Gbar) / I,
    every sum adding its terms in path order from 0.0, per cell for the
    occupancies.  ``seed`` is recorded on the estimate.
    """
    count = len(edge_ids) if variance_reduction else len(edge_ids) // 2
    if count < 1:
        raise ValueError("num_samples must be positive")
    losses = loss.batch(fst, edge_ids[:count])
    cells = occupied_cells(fst, edge_ids, num_frames, num_symbols)
    shape = (num_frames, num_symbols)
    if variance_reduction:
        if count == 1:
            gradient = np.zeros(shape)
        else:
            shifted = losses - losses.min()
            centered = shifted - shifted.mean()
            gradient = _cell_sums(cells, centered, *shape) / (count - 1)
    else:
        rest = cells[count:]
        baseline = _cell_sums(rest, np.ones(len(rest)), *shape) / len(rest)
        loss_gamma = _cell_sums(cells[:count], losses, *shape)
        gradient = (loss_gamma - np.cumsum(losses)[-1] * baseline) / count
    mean = float(losses.mean())
    variance = float(losses.var(ddof=1)) if count > 1 else 0.0
    return MbrEstimate(
        expected_loss=mean,
        gradient=gradient,
        num_samples=count,
        per_sample_losses=losses,
        loss_variance=variance,
        seed=seed,
    )


def estimate_report(estimate: MbrEstimate) -> dict:
    """JSON-serializable summary of an estimate (gradient in row-major order)."""
    return {
        "expected_loss": estimate.expected_loss,
        "gradient": [float(g) for g in estimate.gradient.ravel()],
        "gradient_shape": list(estimate.gradient.shape),
        "num_samples": estimate.num_samples,
        "loss_mean": estimate.expected_loss,
        "loss_variance": estimate.loss_variance,
        "seed": estimate.seed,
    }
