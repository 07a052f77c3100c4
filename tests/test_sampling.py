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
    WordEditLoss,
    backward,
    build_score_fst,
    enumerate_paths,
    expected_loss_exact,
    path_output_labels,
    sample_paths,
    sampled_estimate,
    stochasticity_deviation,
    stream_uniforms,
    walk_paths,
)
from sampled_mbr import sampling
from sampled_mbr.sampling import CHUNK_ROWS

from helpers import (
    log_total_weight,
    random_acyclic_wfst,
    reweight_stochastic,
    sample_path,
    stream_draws,
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


@pytest.mark.parametrize("dead_edge_first", [True, False])
def test_backward_reports_overflow_behind_a_zero_weight_edge(dead_edge_first):
    # State 1's suffix overflows to NaN; state 0 also has a zero-weight
    # (-inf) edge straight to the final state, listed before or after the
    # edge into the overflow.  Python's max skips a NaN that follows -inf,
    # so the log-sum must not rest on max alone.
    dead, live = Edge(0, 3, 1, 1, NEG_INF), Edge(0, 1, 1, 1, 0.0)
    first = [dead, live] if dead_edge_first else [live, dead]
    fst = Wfst(
        4,
        first + [Edge(1, 2, 1, 1, 1e308), Edge(2, 3, 1, 1, 1e308)],
        final=3,
    )
    with pytest.raises(DegenerateLatticeError, match="overflows"):
        backward(fst)


def test_log_sum_adds_left_to_right():
    # Builtin sum compensates from Python 3.12 on, and math.fsum rounds
    # once; both give a log-sum one bit away from the left-to-right one.
    # The largest value is 0.0, so the terms are exp(v).
    vals = [0.0] + [math.log(0.1)] * 10
    terms = [math.exp(v) for v in vals]
    left = 0.0
    for term in terms:
        left += term
    assert math.log(left) != math.log(math.fsum(terms))
    assert sampling._log_sum(vals) == math.log(left)
    assert sampling._log_sum([NEG_INF, NEG_INF]) == NEG_INF
    assert math.isnan(sampling._log_sum([NEG_INF, math.nan]))


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
    with pytest.raises(ValueError, match="num_samples"):
        sample_paths(fst, 0, -1)
    with pytest.raises(ValueError):
        SampleStream(0).generator(-1)
    # Counter (2^64, 1) would carry into the block word: block 2 of stream 0.
    with pytest.raises(ValueError):
        SampleStream(4).generator(1 << 64)
    for block in (0, 1 << 64):
        with pytest.raises(ValueError):
            SampleStream(4).generator(0, block)


def test_seeds_must_be_ints_not_floats():
    # Truncating 2.9 to seed 2 would silently draw another seed's streams.
    fst = two_path_fixture()
    for seed in (2.9, 2.0, np.float64(2.0)):
        with pytest.raises(TypeError):
            SampleStream(seed)
        with pytest.raises(TypeError):
            sample_paths(fst, seed, 3)
        with pytest.raises(TypeError):
            stream_uniforms(seed, 0, 3, 2)
        with pytest.raises(TypeError):
            sampled_estimate(fst, WordEditLoss((1,)), 1, 2, 3, seed=seed)
    # numpy integers are ints.
    for seed in (np.uint64(2), np.int32(2)):
        assert SampleStream(seed).seed == 2
        assert sample_paths(fst, seed, 3) == sample_paths(fst, 2, 3)


def test_sample_paths_rejects_indices_beyond_64_bits():
    fst = two_path_fixture()
    top = (1 << 64) - 1
    with pytest.raises(ValueError):
        sample_paths(fst, 4, 2, start_index=top)
    with pytest.raises(ValueError):
        sample_paths(fst, 4, 1, start_index=-1)
    last = sample_paths(fst, 4, 1, start_index=top)[0]
    # An empty run may start at 2^64.
    assert sample_paths(fst, 4, 0, start_index=top + 1) == []
    pushed = reweight_stochastic(fst)
    assert last.edges == sample_path(pushed, stream_draws(4, top, 4)).edges


def test_numpy_philox_gives_the_published_philox4x64_10_blocks():
    # Known-answer vectors of Random123's philox4x64-10 (counter words,
    # key words, output words), all zero and all ones; numpy adds one to
    # its counter before each block.
    top = (1 << 64) - 1
    for word, expected in [
        (0, [0x16554D9ECA36314C, 0xDB20FE9D672D0FDC,
             0xD7E772CEE186176B, 0x7E68B68AEC7BA23B]),
        (top, [0x87B092C3013FE90B, 0x438C3C67BE8D0224,
               0x9CC7D7C69CD777B6, 0xA09CAEBF594F0BA0]),
    ]:
        counter = sum(word << (64 * k) for k in range(4))
        key = word | (word << 64)
        bits = np.random.Philox(key=key, counter=(counter - 1) % (1 << 256))
        assert bits.random_raw(4).tolist() == expected


def test_philox_kernel_matches_numpy_philox():
    # Runs at both ends of the range: a run that ends at 2^64 - 1 must not
    # carry into the block word.
    top = (1 << 64) - 1
    cases = [(0, 4), (top - 1, 2), (top, 1), (5, 5), (10, 6), (7, 0)]
    for seed in (0, 7, top):
        for first, count in cases:
            rows = stream_uniforms(seed, first, count, 13)
            assert rows.shape == (count, 13)
            for r, row in enumerate(rows.tolist()):
                assert row == stream_draws(seed, first + r, 13)


def test_philox_kernel_builds_one_generator_per_call(monkeypatch):
    # Ten streams up to 2^64 - 1 over 26 blocks: one generator
    # repositioned 26 times draws what 26 fresh ones would.
    built = []
    generator = SampleStream.generator

    def counting_generator(self, index, block=1):
        built.append((index, block))
        return generator(self, index, block)

    first = (1 << 64) - 10
    monkeypatch.setattr(SampleStream, "generator", counting_generator)
    rows = stream_uniforms(5, first, 10, 101)
    assert len(built) == 1
    monkeypatch.undo()
    for r, row in enumerate(rows.tolist()):
        assert row == stream_draws(5, first + r, 101)


def test_generator_draws_one_block_of_consecutive_streams():
    # generator(i, b) yields block b of stream i, then of stream i + 1.
    top = (1 << 64) - 1
    for index, block in [(0, 1), (5, 3), (top - 1, 2)]:
        got = SampleStream(11).generator(index, block).random(8).tolist()
        span = slice(4 * block - 4, 4 * block)
        assert got == (
            stream_draws(11, index, 4 * block)[span]
            + stream_draws(11, index + 1, 4 * block)[span]
        )


@pytest.mark.parametrize(
    "seed, indices",
    [(-1, range(1)), (1 << 64, range(1)), (0, range(-1, 0)),
     (0, range((1 << 64) + 1))],
)
def test_stream_uniforms_rejects_out_of_range_seed_or_index(seed, indices):
    with pytest.raises(ValueError):
        stream_uniforms(seed, indices.start, indices.stop - indices.start, 4)


@pytest.mark.parametrize("num_draws", [-1, -5])
def test_stream_uniforms_rejects_negative_num_draws(num_draws):
    with pytest.raises(ValueError, match="num_draws"):
        stream_uniforms(0, 0, 2, num_draws)
    assert stream_uniforms(0, 0, 2, 0).shape == (2, 0)


def test_stream_uniforms_runs_the_kernel_once_per_call(monkeypatch):
    # Runs of consecutive streams from 0 and up to 2^64 - 1, both longer
    # than a walk chunk, each from one generator.
    built = []
    generator = SampleStream.generator

    def counting_generator(self, index, block=1):
        built.append((index, block))
        return generator(self, index, block)

    monkeypatch.setattr(SampleStream, "generator", counting_generator)
    for first in (0, (1 << 64) - CHUNK_ROWS - 1):
        built.clear()
        rows = stream_uniforms(9, first, CHUNK_ROWS + 1, 5)
        assert len(built) == 1
        assert rows.shape == (CHUNK_ROWS + 1, 5)
        for r in (0, 1, CHUNK_ROWS - 1, CHUNK_ROWS):
            assert rows[r].tolist() == stream_draws(9, first + r, 5)


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
    batch = sample_paths(fst, 41, 20)
    pushed = reweight_stochastic(fst)
    log_z = log_total_weight(fst)
    width = sampling.longest_path_edges(fst)
    for i, expected in enumerate(batch):
        single = sample_path(pushed, stream_draws(41, i, width))
        assert single.edges == expected.edges
        # materialized draw carries its own log probability
        assert math.isclose(
            single.log_weight, expected.log_weight - log_z, abs_tol=1e-10
        )


def test_long_paths_match_sample_path_across_blocks():
    # 12 edges per path: the walk outgrows one block (4 draws) and two.
    fst = build_score_fst(np.random.default_rng(5).normal(size=(12, 3)))
    pushed = reweight_stochastic(fst)
    for i, path in enumerate(sample_paths(fst, 123, 30)):
        assert len(path.edges) == 12
        assert path.edges == sample_path(pushed, stream_draws(123, i, 12)).edges


def test_chunk_boundaries_redraw_identically():
    # Half the mass skips straight to the final state, so paths of 1 and 10
    # edges mix within every chunk; all rows are sized for the 10-edge paths.
    chain = build_score_fst(np.zeros((10, 2)))
    fst = Wfst(
        chain.num_states,
        chain.edges + (Edge(0, 10, 3, 3, 10 * math.log(2)),),
        final=chain.final,
    )
    batch = sample_paths(fst, 77, 2 * CHUNK_ROWS + 1)
    assert {len(p.edges) for p in batch} == {1, 10}
    rows = CHUNK_ROWS
    for i in (0, rows - 1, rows, 2 * rows - 1, 2 * rows):
        again = sample_paths(fst, 77, 1, start_index=i)[0]
        assert again == batch[i]


def test_equal_rows_of_a_chunk_share_one_path():
    # Two paths, drawn over two chunks: each chunk builds one Path per
    # distinct row, so at most four objects back all the draws.
    fst = two_path_fixture()
    batch = sample_paths(fst, 12, CHUNK_ROWS + 7)
    for chunk in (batch[:CHUNK_ROWS], batch[CHUNK_ROWS:]):
        shared = {id(p) for p in chunk}
        assert len(shared) == len(set(chunk)) == 2
    assert len({id(p) for p in batch}) == 4


def test_walk_paths_rejects_rows_one_draw_short():
    # Paths of 1 and 10 edges: rows must fit the longest, even where every
    # walk would end early.
    chain = build_score_fst(np.zeros((10, 2)))
    fst = Wfst(
        chain.num_states,
        chain.edges + (Edge(0, 10, 3, 3, 0.0),),
        final=chain.final,
    )
    rows = stream_uniforms(8, 0, 5, 10)
    walked = [tuple(row[row >= 0]) for row in walk_paths([fst], rows)]
    assert walked == [p.edges for p in sample_paths(fst, 8, 5)]
    with pytest.raises(ValueError, match="longest path has 10 edges"):
        walk_paths([fst], rows[:, :9])


def test_walk_paths_needs_lattices_of_one_topology():
    def lattice(*arcs, final=2):
        return Wfst(3, [Edge(p, q, 1, 1, w) for p, q, w in arcs], final=final)

    rows = stream_uniforms(0, 0, 4, 2)
    base = lattice((0, 1, 0.0), (1, 2, 0.0), (0, 2, 0.0))
    # Equal structures need not be the same objects; weights may differ.
    walk_paths([base, lattice((0, 1, 1.0), (1, 2, 0.0), (0, 2, -1.0))], rows)
    for lattices in ([], [base, base, base]):
        with pytest.raises(ValueError, match="equal blocks"):
            walk_paths(lattices, rows)
    for other in (
        lattice((0, 1, 0.0), (1, 2, 0.0), (0, 1, 0.0)),  # one dst differs
        lattice((0, 1, 0.0), (0, 2, 0.0), (1, 2, 0.0)),  # edge order differs
        lattice((0, 2, 0.0), (2, 1, 0.0), (0, 1, 0.0), final=1),
        two_path_fixture(),
    ):
        with pytest.raises(ValueError, match="one topology"):
            walk_paths([base, other], rows)


def test_walk_paths_rejects_uniforms_outside_zero_one():
    # Edge 0 weighs -inf and enters live state 1: a uniform of -0.5 would
    # take it, and NaN would take edge 1 whatever its weight.
    fst = Wfst(3, [
        Edge(0, 1, 1, 1, NEG_INF), Edge(0, 1, 2, 2, 0.0), Edge(1, 2, 1, 1, 0.0)
    ], final=2)
    assert walk_paths([fst], np.array([[0.0, 0.5]])).tolist() == [[1, 2]]
    for bad in ([-0.5, 0.5], [math.nan, 0.5], [0.5, 1.0], [0.5, 0.5, -0.0, -1]):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            walk_paths([fst], np.array([bad]))


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
    rows = stream_uniforms(3, 0, 4096, 2)
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


def test_walk_reports_overflowing_path_weights():
    # The path weight overflows to +inf, so the initial state's total is
    # inf - inf, NaN; the backward pass names the overflow before any step
    # of the walk, where every edge probability would be NaN.  Enumeration
    # names it when it normalizes the path weights.
    fst = Wfst(3, [Edge(0, 1, 1, 1, 1e308), Edge(1, 2, 1, 1, 1e308)], final=2)
    with pytest.raises(DegenerateLatticeError, match="overflows"):
        sample_paths(fst, 0, 3)
    with pytest.raises(
        DegenerateLatticeError, match="largest path log-weight overflows"
    ):
        expected_loss_exact(fst, WordEditLoss((1,)))
    with pytest.raises(DegenerateLatticeError, match="overflows"):
        walk_paths([fst, fst], stream_uniforms(0, 0, 4, 2))
