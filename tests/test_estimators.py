"""Exact expected-loss oracles and the sampled estimators."""

import json
import math

import numpy as np
import pytest

from sampled_mbr import (
    CyclicFstError,
    DegenerateLatticeError,
    Edge,
    FrameErrorLoss,
    PathOverflowError,
    Wfst,
    WordEditLoss,
    build_score_fst,
    edge_loss_annotation,
    enumerate_paths,
    estimate_report,
    expected_additive_loss,
    expected_loss_exact,
    expected_loss_gradient_exact,
    sample_paths,
    sampled_estimate,
)
from sampled_mbr.estimators import estimate_from_paths
from sampled_mbr.fst import enumerated_distribution

from helpers import (
    ShiftedLoss,
    log_total_weight,
    loss_shift_check,
    occupancy_matrix,
    two_path_lattice,
    uniform_lattice,
)


def _loss_for_two_path():
    """Loss (0, 1) on the 0.4/0.6 lattice: reference equals the first word."""
    return WordEditLoss((1,))


class ZeroLoss:
    """The loss protocol alone: ``batch`` and nothing else."""

    def batch(self, fst, edge_ids):
        return np.zeros(len(edge_ids))


class BatchOnlyLoss:
    """A loss's ``batch`` alone, counting its calls."""

    def __init__(self, base):
        self.base, self.calls = base, 0

    def batch(self, fst, edge_ids):
        self.calls += 1
        return self.base.batch(fst, edge_ids)


# ---------------------------------------------------------------------------
# Exact value
# ---------------------------------------------------------------------------


def test_exact_value_single_path():
    fst = Wfst(2, [Edge(0, 1, 1, 4, -1.0)], final=1)
    assert expected_loss_exact(fst, WordEditLoss((7, 7, 7))) == 3.0


def test_exact_value_two_path():
    lattice, _ = two_path_lattice()
    assert math.isclose(
        expected_loss_exact(lattice, _loss_for_two_path()), 0.6, rel_tol=1e-12
    )


def test_exact_value_zero_loss():
    lattice = uniform_lattice(2, 2)
    assert expected_loss_exact(lattice, ZeroLoss()) == 0.0


def test_exact_value_errors():
    big = uniform_lattice(9, 3)  # 19,683 paths
    with pytest.raises(PathOverflowError):
        expected_loss_exact(big, _loss_for_two_path())
    dead = Wfst(2, [Edge(0, 1, 1, 1, float("-inf"))], final=1)
    with pytest.raises(DegenerateLatticeError):
        expected_loss_exact(dead, _loss_for_two_path())


# ---------------------------------------------------------------------------
# Exact gradient
# ---------------------------------------------------------------------------


def test_exact_gradient_single_path_is_zero():
    fst = build_score_fst(np.array([[0.7]]))
    grad = expected_loss_gradient_exact(fst, WordEditLoss((2,)), 1, 1)
    assert grad.tolist() == [[0.0]]


def test_exact_gradient_two_path_uniform():
    fst = build_score_fst(np.zeros((1, 2)))
    grad = expected_loss_gradient_exact(fst, _loss_for_two_path(), 1, 2)
    assert np.allclose(grad, [[-0.25, 0.25]], atol=1e-12)


def test_exact_gradient_constant_loss_is_zero():
    lattice = uniform_lattice(2, 2)
    grad = expected_loss_gradient_exact(
        lattice, ShiftedLoss(ZeroLoss(), 4.25), 2, 2
    )
    assert np.allclose(grad, 0.0, atol=1e-15)


def test_exact_gradient_matches_finite_differences():
    rng = np.random.default_rng(43)
    z = rng.normal(size=(2, 2))
    loss = WordEditLoss((2,))
    eps = 1e-5

    def value(scores):
        return expected_loss_exact(build_score_fst(scores), loss)

    grad = expected_loss_gradient_exact(build_score_fst(z), loss, 2, 2)
    for t in range(2):
        for q in range(2):
            up = z.copy()
            up[t, q] += eps
            down = z.copy()
            down[t, q] -= eps
            fd = (value(up) - value(down)) / (2 * eps)
            assert math.isclose(grad[t, q], fd, rel_tol=1e-4, abs_tol=1e-8)


@pytest.mark.parametrize(
    "base", [WordEditLoss((1, 2)), FrameErrorLoss((1, 2, 2))],
    ids=["word-edit", "frame-error"],
)
def test_estimators_score_paths_through_batch_alone(base):
    lattice = build_score_fst(np.random.default_rng(6).normal(size=(3, 2)))
    loss = BatchOnlyLoss(base)
    # One batch call per oracle, and the value is still the left-to-right
    # sum of probability times path loss.
    paths = enumerate_paths(lattice, 100)
    edge_ids, probs = enumerated_distribution(lattice, 100)
    assert edge_ids.tolist() == [list(path.edges) for path in paths]
    value = float(sum(p * base(lattice, path) for path, p in zip(paths, probs)))
    assert expected_loss_exact(lattice, loss) == value
    assert loss.calls == 1
    gradient = expected_loss_gradient_exact(lattice, loss, 3, 2)
    assert loss.calls == 2
    assert gradient.shape == (3, 2) and np.isfinite(gradient).all()
    estimate = sampled_estimate(lattice, loss, 3, 2, 40, seed=9)
    assert loss.calls == 3
    plain = sampled_estimate(lattice, base, 3, 2, 40, seed=9)
    assert estimate.per_sample_losses.tolist() == plain.per_sample_losses.tolist()


# ---------------------------------------------------------------------------
# Edge-additive oracle
# ---------------------------------------------------------------------------


def test_additive_zero_losses():
    lattice = uniform_lattice(2, 2)
    log_z, value = expected_additive_loss(lattice, np.zeros(lattice.num_edges))
    assert value == 0.0
    assert math.isclose(log_z, math.log(4), rel_tol=1e-12)


def test_additive_two_parallel_edges():
    lattice, _ = two_path_lattice()
    log_z, value = expected_additive_loss(lattice, np.array([0.0, 1.0]))
    assert math.isclose(value, 0.6, rel_tol=1e-12)
    assert math.isclose(log_z, math.log(5), rel_tol=1e-12)


def test_additive_matches_enumeration_on_random_sausages():
    rng = np.random.default_rng(47)
    for _ in range(10):
        z = rng.normal(0.0, 2.0, size=(3, 2))
        fst = build_score_fst(z)
        ref = tuple(int(q) for q in rng.integers(1, 3, size=3))
        costs = edge_loss_annotation(fst, ref)
        log_z, value = expected_additive_loss(fst, costs)
        brute = expected_loss_exact(fst, FrameErrorLoss(ref))
        assert math.isclose(value, brute, rel_tol=1e-10, abs_tol=1e-12)
        assert math.isclose(log_z, log_total_weight(fst), rel_tol=1e-12)


def test_additive_input_validation():
    lattice = uniform_lattice(1, 2)
    with pytest.raises(ValueError):
        expected_additive_loss(lattice, np.zeros(5))
    cyclic = Wfst(
        2, [Edge(0, 0, 1, 1, -0.5), Edge(0, 1, 1, 1, 0.0)], final=1
    )
    with pytest.raises(CyclicFstError):
        expected_additive_loss(cyclic, np.zeros(2))
    dead = Wfst(2, [Edge(0, 1, 1, 1, float("-inf"))], final=1)
    with pytest.raises(DegenerateLatticeError):
        expected_additive_loss(dead, np.zeros(1))


# ---------------------------------------------------------------------------
# Sampled estimator
# ---------------------------------------------------------------------------


def test_sampled_single_path_exact_value_and_zero_gradient():
    fst = build_score_fst(np.array([[1.25]]))
    loss = WordEditLoss((7, 7))  # every path scores exactly 2
    for count in (1, 3, 50):
        est = sampled_estimate(fst, loss, 1, 1, count, 5)
        assert est.expected_loss == 2.0
        assert est.gradient.tolist() == [[0.0]]
        assert est.num_samples == count
        assert est.loss_variance == 0.0


def test_sampled_value_close_to_exact():
    lattice, z = two_path_lattice()
    est = sampled_estimate(lattice, _loss_for_two_path(), 1, 2, 10_000, 12)
    # exact value 0.6; Bernoulli sigma/sqrt(I) ~ 0.0049, allow 3 sigma
    assert abs(est.expected_loss - 0.6) < 0.015
    assert math.isclose(
        est.loss_variance,
        np.var(est.per_sample_losses, ddof=1),
        rel_tol=1e-12,
    )


def test_sampled_gradient_unbiased_light():
    lattice, _ = two_path_lattice()
    loss = _loss_for_two_path()
    exact = expected_loss_gradient_exact(lattice, loss, 1, 2)
    reps = 200
    grads = np.stack([
        sampled_estimate(lattice, loss, 1, 2, 10, 1000 + r).gradient
        for r in range(reps)
    ])
    mean = grads.mean(axis=0)
    se = grads.std(axis=0, ddof=1) / math.sqrt(reps)
    assert (np.abs(mean - exact) <= 4 * se + 1e-12).all()


def test_sampled_nonvr_gradient_unbiased_light():
    lattice, _ = two_path_lattice()
    loss = _loss_for_two_path()
    exact = expected_loss_gradient_exact(lattice, loss, 1, 2)
    reps = 300
    grads = np.stack([
        sampled_estimate(
            lattice, loss, 1, 2, 10, 5000 + r, variance_reduction=False
        ).gradient
        for r in range(reps)
    ])
    mean = grads.mean(axis=0)
    se = grads.std(axis=0, ddof=1) / math.sqrt(reps)
    assert (np.abs(mean - exact) <= 4 * se + 1e-12).all()


def test_plain_estimator_baseline_is_the_next_batch_of_indices():
    # Independent formula: paths [s, s+N) and baseline [s+N, s+2N), each
    # drawn by its own sample_paths call; the batch crosses a chunk edge.
    z = np.random.default_rng(8).normal(size=(5, 3))
    fst = build_score_fst(z)
    loss = FrameErrorLoss([1, 3, 2, 2, 1])
    start, count = 4070, 13
    est = sampled_estimate(
        fst, loss, 5, 3, count, 21, start, variance_reduction=False
    )
    paths = sample_paths(fst, 21, count, start)
    baseline_paths = sample_paths(fst, 21, count, start + count)
    losses = np.array([loss(fst, p) for p in paths])
    gammas = np.stack([occupancy_matrix(fst, p, 5, 3) for p in paths])
    baseline = np.mean(
        [occupancy_matrix(fst, p, 5, 3) for p in baseline_paths], axis=0
    )
    gradient = np.tensordot(losses, gammas - baseline, axes=1) / count
    assert est.gradient.tobytes() == gradient.tobytes()
    assert est.per_sample_losses.tobytes() == losses.tobytes()
    assert est.expected_loss == float(losses.mean())
    assert est.loss_variance == float(losses.var(ddof=1))


def test_sampled_estimator_determinism_and_stream_reuse():
    lattice, _ = two_path_lattice()
    loss = _loss_for_two_path()
    a = sampled_estimate(lattice, loss, 1, 2, 64, 9)
    b = sampled_estimate(lattice, loss, 1, 2, 64, 9)
    assert a.expected_loss == b.expected_loss
    assert a.gradient.tobytes() == b.gradient.tobytes()
    assert a.seed == 9


def test_sampled_estimate_validation():
    lattice, _ = two_path_lattice()
    with pytest.raises(ValueError):
        sampled_estimate(lattice, _loss_for_two_path(), 1, 2, 0, 1)
    # No rows, or one row and so no baseline half: no samples.
    for num_rows, variance_reduction in ((0, True), (0, False), (1, False)):
        rows = np.zeros((num_rows, 1), dtype=np.intp)
        with pytest.raises(ValueError, match="num_samples must be positive"):
            estimate_from_paths(
                lattice, _loss_for_two_path(), rows, 1, 2, 0, variance_reduction
            )


def test_single_sample_gradient_is_zero_matrix():
    lattice, _ = two_path_lattice()
    est = sampled_estimate(lattice, _loss_for_two_path(), 1, 2, 1, 3)
    assert est.gradient.tolist() == [[0.0, 0.0]]
    assert est.loss_variance == 0.0


# ---------------------------------------------------------------------------
# Shift invariance
# ---------------------------------------------------------------------------


def test_shift_check_zero_offset():
    lattice, _ = two_path_lattice()
    assert loss_shift_check(lattice, _loss_for_two_path(), 1, 2, 40, 2, 0.0)


def test_shift_check_positive_offsets():
    lattice, _ = two_path_lattice()
    for shift in (-3.0, 7.5, 100.0):
        assert loss_shift_check(
            lattice, _loss_for_two_path(), 1, 2, 40, 2, shift
        )


def test_shift_check_fails_without_variance_reduction():
    lattice, _ = two_path_lattice()
    assert not loss_shift_check(
        lattice,
        _loss_for_two_path(),
        1,
        2,
        40,
        2,
        7.5,
        variance_reduction=False,
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_estimate_report_is_json_ready():
    lattice, _ = two_path_lattice()
    est = sampled_estimate(lattice, _loss_for_two_path(), 1, 2, 25, 77)
    report = estimate_report(est)
    parsed = json.loads(json.dumps(report))
    assert parsed["num_samples"] == 25
    assert parsed["seed"] == 77
    assert parsed["gradient_shape"] == [1, 2]
    assert len(parsed["gradient"]) == 2
    assert parsed["loss_mean"] == est.expected_loss
    flattened = est.gradient.ravel()
    assert parsed["gradient"] == [float(g) for g in flattened]
