"""Backward weights, stochastic reweighting, and ancestral sampling."""

import math
import tracemalloc

import numpy as np
import pytest

from sampled_mbr import (
    CyclicFstError,
    DegenerateLatticeError,
    Edge,
    SampleStream,
    Wfst,
    backward,
    build_score_fst,
    enumerate_paths,
    path_output_labels,
    sample_paths,
    stochasticity_deviation,
    stream_uniforms,
    walk_paths,
)
from sampled_mbr import sampling
from sampled_mbr.sampling import KERNEL_ROWS, _philox_uniforms

from helpers import (
    log_total_weight,
    random_acyclic_wfst,
    reweight_stochastic,
    sample_path,
    two_path_fixture,
    uniform_lattice,
)

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------


def test_backward_chain_is_product():
    fst = Wfst(
        3,
        [Edge(0, 1, 1, 1, math.log(2)), Edge(1, 2, 1, 1, math.log(3))],
        final=2,
    )
    beta = backward(fst)
    assert math.isclose(beta[0], math.log(6), rel_tol=1e-12)
    assert math.isclose(beta[1], math.log(3), rel_tol=1e-12)
    assert beta[2] == 0.0


def test_backward_parallel_is_sum():
    beta = backward(two_path_fixture())
    assert math.isclose(beta[0], math.log(5), rel_tol=1e-12)


def test_backward_final_alone():
    fst = Wfst(1, [], final=0)
    assert backward(fst).tolist() == [0.0]


def test_backward_dead_state_gets_minus_inf():
    fst = Wfst(
        3,
        [Edge(0, 1, 1, 1, 0.0), Edge(0, 2, 1, 1, 0.0)],
        final=1,
    )
    beta = backward(fst)
    assert beta[2] == NEG_INF
    assert math.isclose(beta[0], 0.0, abs_tol=1e-15)


def test_backward_errors():
    cyclic = Wfst(
        2, [Edge(0, 0, 1, 1, -0.1), Edge(0, 1, 1, 1, 0.0)], final=1
    )
    with pytest.raises(CyclicFstError):
        backward(cyclic)
    dead = Wfst(2, [Edge(0, 1, 1, 1, NEG_INF)], final=1)
    with pytest.raises(DegenerateLatticeError):
        backward(dead)


def test_backward_matches_enumerated_total():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(40):
        fst = random_acyclic_wfst(rng, max_states=12)
        try:
            paths = enumerate_paths(fst, 200)
        except Exception:
            continue
        finite = [p.log_weight for p in paths if p.log_weight != NEG_INF]
        if not finite:
            continue
        m = max(finite)
        brute = m + math.log(sum(math.exp(w - m) for w in finite))
        assert math.isclose(log_total_weight(fst), brute, rel_tol=1e-10)
        checked += 1
    assert checked >= 20


def test_backward_survives_huge_scores():
    fst = Wfst(
        3,
        [Edge(0, 1, 1, 1, 700.0), Edge(1, 2, 1, 1, 701.5)],
        final=2,
    )
    assert math.isclose(backward(fst)[0], 1401.5, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Reweighting
# ---------------------------------------------------------------------------


def test_reweight_two_parallel_edges():
    pushed = reweight_stochastic(two_path_fixture())
    assert math.isclose(math.exp(pushed.edges[0].log_weight), 0.4, rel_tol=1e-12)
    assert math.isclose(math.exp(pushed.edges[1].log_weight), 0.6, rel_tol=1e-12)


def test_reweight_already_stochastic_unchanged():
    fst = Wfst(
        2,
        [
            Edge(0, 1, 1, 1, math.log(0.4)),
            Edge(0, 1, 2, 2, math.log(0.6)),
        ],
        final=1,
    )
    pushed = reweight_stochastic(fst)
    for before, after in zip(fst.edges, pushed.edges):
        assert math.isclose(before.log_weight, after.log_weight, abs_tol=1e-12)


def test_reweight_single_path_weights_become_one():
    fst = Wfst(
        3,
        [Edge(0, 1, 1, 1, -2.5), Edge(1, 2, 1, 1, 1.25)],
        final=2,
    )
    pushed = reweight_stochastic(fst)
    for e in pushed.edges:
        assert abs(e.log_weight) <= 1e-12


def test_reweight_preserves_path_measure():
    rng = np.random.default_rng(13)
    for _ in range(20):
        fst = random_acyclic_wfst(rng, max_states=10)
        try:
            paths = enumerate_paths(fst, 200)
            log_z = log_total_weight(fst)
        except Exception:
            continue
        pushed = reweight_stochastic(fst)
        for p in paths:
            if p.log_weight == NEG_INF:
                continue
            new_weight = sum(pushed.edges[k].log_weight for k in p.edges)
            assert math.isclose(
                new_weight, p.log_weight - log_z, rel_tol=1e-10, abs_tol=1e-10
            )


def test_reweighted_fsts_are_stochastic():
    rng = np.random.default_rng(17)
    for _ in range(20):
        fst = random_acyclic_wfst(rng)
        try:
            pushed = reweight_stochastic(fst)
        except DegenerateLatticeError:
            continue
        assert stochasticity_deviation(pushed) <= 1e-9


def test_reweight_zeroes_edges_into_dead_states():
    fst = Wfst(
        4,
        [
            Edge(0, 1, 1, 1, 0.0),
            Edge(0, 2, 1, 1, 5.0),  # dead end, heavier in raw weight
            Edge(1, 3, 1, 1, 0.0),
        ],
        final=3,
    )
    pushed = reweight_stochastic(fst)
    assert pushed.edges[1].log_weight == NEG_INF
    draws = sample_paths(fst, 3, 200)
    assert all(1 not in p.edges for p in draws)


# ---------------------------------------------------------------------------
# Sample streams
# ---------------------------------------------------------------------------


def test_stream_validation():
    with pytest.raises(ValueError):
        SampleStream(-1)
    with pytest.raises(ValueError):
        SampleStream(1 << 64)
    fst = two_path_fixture()
    with pytest.raises(ValueError):
        sample_paths(fst, -1, 1)
    with pytest.raises(ValueError):
        sample_paths(fst, 1 << 64, 1)
    with pytest.raises(ValueError):
        SampleStream(0).generator(-1)
    # (seed << 64) | index would give (4, 2^64) the stream of (5, 0).
    with pytest.raises(ValueError):
        SampleStream(4).generator(1 << 64)


def test_sample_paths_rejects_indices_beyond_64_bits():
    fst = two_path_fixture()
    top = (1 << 64) - 1
    with pytest.raises(ValueError):
        sample_paths(fst, 4, 2, start_index=top)
    with pytest.raises(ValueError):
        sample_paths(fst, 4, 1, start_index=-1)
    last = sample_paths(fst, 4, 1, start_index=top)[0]
    pushed = reweight_stochastic(fst)
    assert last.edges == sample_path(pushed, SampleStream(4).generator(top)).edges


def test_philox_kernel_matches_numpy_philox():
    rng = np.random.default_rng(2011)
    top = (1 << 64) - 1

    def draw_words(size):
        words = rng.integers(0, top, size, dtype=np.uint64, endpoint=True)
        return [0, top] + [int(v) for v in words]

    for seed in draw_words(8):
        indices = draw_words(10)
        words = np.array(indices, dtype=np.uint64)
        draws = _philox_uniforms(seed, words, 3)
        for row, index in enumerate(indices):
            expected = SampleStream(seed).generator(index).random(12)
            assert draws[row].tolist() == expected.tolist()


@pytest.mark.parametrize(
    "seed, indices", [(-1, [0]), (1 << 64, [0]), (0, [-1]), (0, [0, 1 << 64])]
)
def test_stream_uniforms_rejects_out_of_range_seed_or_index(seed, indices):
    with pytest.raises(ValueError):
        stream_uniforms(seed, indices, 4)


def test_stream_uniforms_runs_the_kernel_once_per_kernel_rows(monkeypatch):
    calls = []

    def counting_kernel(seed, indices, num_blocks):
        calls.append(len(indices))
        return _philox_uniforms(seed, indices, num_blocks)

    monkeypatch.setattr(sampling, "_philox_uniforms", counting_kernel)
    indices = np.arange(KERNEL_ROWS + 1, dtype=np.uint64)[::-1]
    rows = stream_uniforms(9, indices, 5)
    assert calls == [KERNEL_ROWS, 1]
    assert rows.shape == (KERNEL_ROWS + 1, 5)
    for r in (0, KERNEL_ROWS - 1, KERNEL_ROWS):
        expected = SampleStream(9).generator(int(indices[r])).random(5)
        assert rows[r].tolist() == expected.tolist()


def test_stream_is_schedule_independent():
    fst = uniform_lattice(3, 2)
    whole = sample_paths(fst, 99, 8)
    first = sample_paths(fst, 99, 3)
    rest = sample_paths(fst, 99, 5, start_index=3)
    assert [p.edges for p in whole] == [p.edges for p in first + rest]
    reversed_order = [
        sample_paths(fst, 99, 1, start_index=i)[0] for i in (7, 6, 5, 4, 3, 2, 1, 0)
    ]
    assert [p.edges for p in reversed(reversed_order)] == [p.edges for p in whole]


def test_sample_paths_deterministic_and_empty():
    fst = two_path_fixture()
    assert sample_paths(fst, 5, 0) == []
    a = sample_paths(fst, 5, 3)
    b = sample_paths(fst, 5, 3)
    assert [p.edges for p in a] == [p.edges for p in b]
    c = sample_paths(fst, 6, 3)
    assert len(c) == 3


def test_sample_paths_matches_sample_path_on_materialized_fst():
    fst = uniform_lattice(2, 3)
    stream = SampleStream(41)
    batch = sample_paths(fst, 41, 20)
    pushed = reweight_stochastic(fst)
    log_z = log_total_weight(fst)
    for i, expected in enumerate(batch):
        single = sample_path(pushed, stream.generator(i))
        assert single.edges == expected.edges
        # materialized draw carries its own log probability
        assert math.isclose(
            single.log_weight, expected.log_weight - log_z, abs_tol=1e-10
        )


def test_long_paths_match_sample_path_across_blocks():
    # 12 edges per path: the walk outgrows one block (4 draws) and two.
    fst = build_score_fst(np.random.default_rng(5).normal(size=(12, 3)))
    stream = SampleStream(123)
    pushed = reweight_stochastic(fst)
    for i, path in enumerate(sample_paths(fst, 123, 30)):
        assert len(path.edges) == 12
        assert path.edges == sample_path(pushed, stream.generator(i)).edges


def test_chunk_boundaries_redraw_identically():
    # Half the mass skips straight to the final state, so paths of 1 and 10
    # edges mix within every chunk; all rows are sized for the 10-edge paths.
    chain = build_score_fst(np.zeros((10, 2)))
    fst = Wfst(
        chain.num_states,
        chain.edges + (Edge(0, 10, 3, 3, 10 * math.log(2)),),
        final=chain.final,
    )
    batch = sample_paths(fst, 77, 2 * KERNEL_ROWS + 1)
    assert {len(p.edges) for p in batch} == {1, 10}
    rows = KERNEL_ROWS
    for i in (0, rows - 1, rows, 2 * rows - 1, 2 * rows):
        again = sample_paths(fst, 77, 1, start_index=i)[0]
        assert again == batch[i]


def test_walk_paths_rejects_rows_one_draw_short():
    # Paths of 1 and 10 edges: rows must fit the longest, even where every
    # walk would end early.
    chain = build_score_fst(np.zeros((10, 2)))
    fst = Wfst(
        chain.num_states,
        chain.edges + (Edge(0, 10, 3, 3, 0.0),),
        final=chain.final,
    )
    rows = stream_uniforms(8, range(5), 10)
    walked = [tuple(row[row >= 0]) for row in walk_paths([fst], rows)]
    assert walked == [p.edges for p in sample_paths(fst, 8, 5)]
    with pytest.raises(ValueError, match="longest path has 10 edges"):
        walk_paths([fst], rows[:, :9])


def test_walk_paths_needs_lattices_of_one_topology():
    def lattice(*arcs, final=2):
        return Wfst(3, [Edge(p, q, 1, 1, w) for p, q, w in arcs], final=final)

    rows = stream_uniforms(0, range(4), 2)
    base = lattice((0, 1, 0.0), (1, 2, 0.0), (0, 2, 0.0))
    # Equal structures need not be the same objects; weights may differ.
    walk_paths([base, lattice((0, 1, 1.0), (1, 2, 0.0), (0, 2, -1.0))], rows)
    for other in (
        lattice((0, 1, 0.0), (1, 2, 0.0), (0, 1, 0.0)),  # one dst differs
        lattice((0, 1, 0.0), (0, 2, 0.0), (1, 2, 0.0)),  # edge order differs
        lattice((0, 2, 0.0), (2, 1, 0.0), (0, 1, 0.0), final=1),
        two_path_fixture(),
    ):
        with pytest.raises(ValueError, match="one topology"):
            walk_paths([base, other], rows)


def test_walk_memory_grows_with_edges_not_states_times_degree():
    # 20,000 states; state 0 has 20,000 out-edges (two to the final state),
    # so a states x max-degree CDF table would take 20,000^2 doubles, 3.2 GB,
    # and a rows x max-degree one 4,096 x 20,000 entries.  The bound was
    # fixed before the first run.
    num_states = 20_000
    final = num_states - 1
    edges = [Edge(0, q, 1, 1, 0.0) for q in range(1, final)]
    edges += [Edge(0, final, 2, 2, 0.0)] * 2
    edges += [Edge(q, final, 3, 3, 0.0) for q in range(1, final)]
    fst = Wfst(num_states, edges, final=final)
    rows = stream_uniforms(3, range(4096), 2)
    tracemalloc.start()
    try:
        walked = walk_paths([fst], rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert walked.shape == (4096, 2)
    first = walked[:, 0]
    assert (first >= 0).all() and (first < 20_000).all()
    assert ((walked[:, 1] == -1) == (first >= final - 1)).all()


def test_backward_is_cached_read_only_and_not_shared_by_reweighted_copies():
    fst = two_path_fixture()
    beta = backward(fst)
    assert backward(fst) is beta
    with pytest.raises(ValueError):
        beta[0] = 0.0
    copy = fst.with_weights(np.zeros(fst.num_edges))
    assert backward(copy).tolist() == [math.log(2.0), 0.0]
    assert math.isclose(backward(fst)[0], math.log(5.0), rel_tol=1e-12)


def test_sampled_paths_carry_original_weights():
    fst = two_path_fixture()
    for p in sample_paths(fst, 0, 10):
        assert p.log_weight in (math.log(2), math.log(3))


# ---------------------------------------------------------------------------
# Sampler fidelity (lighter versions; the acceptance suite scales these up)
# ---------------------------------------------------------------------------


def test_single_path_always_sampled():
    fst = Wfst(
        3,
        [Edge(0, 1, 1, 1, -4.0), Edge(1, 2, 2, 2, 2.0)],
        final=2,
    )
    for p in sample_paths(fst, 8, 25):
        assert p.edges == (0, 1)


def test_two_path_frequencies():
    fst = two_path_fixture()
    draws = sample_paths(fst, 2024, 20_000)
    freq = sum(1 for p in draws if path_output_labels(fst, p) == (2,)) / 20_000
    assert abs(freq - 0.6) < 0.02


def test_uniform_four_path_frequencies():
    fst = uniform_lattice(2, 2)
    draws = sample_paths(fst, 7, 20_000)
    counts = {}
    for p in draws:
        words = path_output_labels(fst, p)
        counts[words] = counts.get(words, 0) + 1
    assert len(counts) == 4
    for n in counts.values():
        assert abs(n / 20_000 - 0.25) < 0.02


def test_sampling_requires_positive_total_weight():
    fst = Wfst(2, [Edge(0, 1, 1, 1, NEG_INF)], final=1)
    with pytest.raises(DegenerateLatticeError):
        sample_paths(fst, 0, 1)


def test_walk_reports_a_dead_end_where_path_weights_overflow():
    # The path weight overflows to +inf, so the initial state's total is
    # +inf and every edge probability there is NaN, hence zero.  The
    # backward pass warns of the overflow and of inf - inf on the way,
    # which this test does not check.
    fst = Wfst(3, [Edge(0, 1, 1, 1, 1e308), Edge(1, 2, 1, 1, 1e308)], final=2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DegenerateLatticeError, match="dead-end state 0"):
            sample_paths(fst, 0, 3)
        with pytest.raises(DegenerateLatticeError, match="dead-end state 0"):
            walk_paths([fst, fst], stream_uniforms(0, range(4), 2))
