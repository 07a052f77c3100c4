"""Property tests: lattice passes, losses and occupancy against reference
code on random inputs."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sampled_mbr import (
    EPSILON,
    CyclicFstError,
    DegenerateLatticeError,
    DimensionMismatchError,
    Edge,
    FrameErrorLoss,
    InvalidFstError,
    LatticeTopology,
    Path,
    PathOverflowError,
    SampleStream,
    UnsupportedCompositionError,
    Wfst,
    WordEditLoss,
    build_score_fst,
    compose,
    edit_distance,
    enumerate_paths,
    expected_additive_loss,
    format_fst_text,
    path_input_labels,
    path_occupancy,
    sample_paths,
    stream_uniforms,
    topological_order,
    walk_paths,
)
from sampled_mbr.fst import edge_id_matrix, enumerated_distribution
from sampled_mbr.sampling import longest_path_edges

from helpers import (
    bigram_decoder,
    dp_edit_distance,
    log_total_weight,
    occupancy_matrix,
    random_acyclic_wfst,
    reference_compose,
    reference_enumerate_paths,
    reference_topological_order,
    reweight_stochastic,
    sample_path,
    word_chain_decoder,
)

# Reference words are 1..6 and hypothesis words 1..8, so some hypothesis
# words never occur in the reference.  Long references pass 64 words, where
# a bit vector that is not masked to the reference length goes wrong.
REFERENCES = st.one_of(
    st.lists(st.integers(1, 6), max_size=12),
    st.lists(st.integers(1, 6), min_size=60, max_size=140),
)
HYPOTHESES = st.one_of(
    st.lists(st.integers(1, 8), max_size=12),
    st.lists(st.integers(1, 8), min_size=50, max_size=150),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_additive_matches_enumeration_on_random_dags(seed, data):
    # The DAGs have -inf edges and dead-end states, which the suffix pass
    # must skip.
    fst = random_acyclic_wfst(np.random.default_rng(seed))
    costs = data.draw(
        st.lists(
            st.floats(0.0, 10.0),
            min_size=fst.num_edges,
            max_size=fst.num_edges,
        )
    )
    log_z, value = expected_additive_loss(fst, costs)
    paths, probs = enumerated_distribution(fst, 10_000)
    brute = sum(
        p * sum(costs[k] for k in path.edges) for path, p in zip(paths, probs)
    )
    assert math.isclose(value, brute, rel_tol=1e-10, abs_tol=1e-12)
    assert log_z == log_total_weight(fst)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    stream_seed=st.integers(0, 2**64 - 1),
    start=st.integers(0, 2**64 - 20),
)
def test_sample_paths_match_reference_walk_on_random_dags(
    seed, stream_seed, start
):
    # Mixed path lengths, -inf edges and dead ends: every row must hold
    # enough draws for the longest path, and sample i must follow stream i.
    fst = random_acyclic_wfst(np.random.default_rng(seed))
    stream = SampleStream(stream_seed)
    pushed = reweight_stochastic(fst)
    for i, path in enumerate(sample_paths(fst, stream_seed, 20, start)):
        expected = sample_path(pushed, stream.generator(start + i))
        assert path.edges == expected.edges


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    stream_seed=st.integers(0, 2**64 - 1),
    inner=st.lists(st.integers(1, 2**64 - 2), max_size=8, unique=True),
    shuffle=st.randoms(use_true_random=False),
)
def test_walked_stream_rows_match_sample_paths_on_random_dags(
    seed, stream_seed, inner, shuffle
):
    # Shuffled, gapped stream indices that include both ends of the range;
    # rows are exactly as long as the longest path.
    fst = random_acyclic_wfst(np.random.default_rng(seed))
    indices = [0, 2**64 - 1] + inner
    shuffle.shuffle(indices)
    rows = stream_uniforms(stream_seed, indices, longest_path_edges(fst))
    for index, row in zip(indices, walk_paths([fst], rows), strict=True):
        path = sample_paths(fst, stream_seed, 1, index)[0]
        assert tuple(row[row >= 0]) == path.edges


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    stream_seed=st.integers(0, 2**64 - 1),
    copies=st.integers(1, 4),
    rows_per_copy=st.integers(0, 5),
    spare_draws=st.integers(0, 2),
)
def test_walking_reweighted_copies_together_equals_walking_each_alone(
    seed, stream_seed, copies, rows_per_copy, spare_draws
):
    # Copies of one DAG with -inf edges, dead ends and mixed path lengths;
    # some copies gain -inf edges of their own, and some of those have no
    # positive-weight path left, which must fail as walking it alone does.
    rng = np.random.default_rng(seed)
    fst = random_acyclic_wfst(rng)
    lattices = [fst]
    for _ in range(copies - 1):
        weights = rng.normal(0.0, 2.0, size=fst.num_edges)
        weights[rng.random(fst.num_edges) < 0.1] = -math.inf
        lattices.append(fst.with_weights(weights))
    width = longest_path_edges(fst) + spare_draws
    rows = stream_uniforms(
        stream_seed, range(copies * rows_per_copy), width
    ).reshape(copies, rows_per_copy, width)
    alone = [
        _raised_or(DegenerateLatticeError, lambda: walk_paths([lat], block))
        for lat, block in zip(lattices, rows)
    ]
    together = _raised_or(
        DegenerateLatticeError,
        lambda: walk_paths(lattices, rows.reshape(-1, width)),
    )
    failed = [a for a in alone if isinstance(a, tuple)]
    if failed:
        assert together == failed[0]
    else:
        assert together.tobytes() == np.concatenate(alone).tobytes()
        assert together.shape == (copies * rows_per_copy, width - spare_draws)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    frames=st.integers(1, 6),
    decoder=st.sampled_from(["bigram", "chain"]),
)
def test_topology_lattices_equal_composition_bit_for_bit(
    seed, frames, decoder
):
    # The bigram graph exits on epsilon input, as in the lattice-exact
    # benchmark; scores and decoder weights include -inf, -0.0 and 0.0,
    # and scores near the float range make some sums overflow to +inf.
    rng = np.random.default_rng(seed)
    num_symbols = int(rng.integers(1, 5))
    if decoder == "bigram":
        graph = bigram_decoder(rng, num_symbols, max(1, num_symbols - 1))
    else:
        graph = word_chain_decoder(frames, num_symbols, 1)
    graph = Wfst(graph.num_states, [
        Edge(e.src, e.dst, e.ilabel, e.olabel,
             float(rng.choice([e.log_weight, -0.0, 0.0, -math.inf, 1e308])))
        for e in graph.edges
    ], final=graph.final)
    topology = LatticeTopology(graph, frames, num_symbols)
    for _ in range(3):
        z = rng.normal(0.0, 2.0, size=(frames, num_symbols))
        z[rng.random(z.shape) < 0.15] = -math.inf
        z[rng.random(z.shape) < 0.15] = -0.0
        z[rng.random(z.shape) < 0.05] = 1e308
        got, expected = (
            _raised_or(InvalidFstError, run) for run in (
                lambda: topology.at(z),
                lambda: compose(build_score_fst(z), graph),
            )
        )
        if isinstance(expected, Wfst):
            assert isinstance(got, Wfst)
            assert _edge_records(got) == _edge_records(expected)
        assert got == expected


def _edge_records(fst: Wfst):
    return fst.num_states, fst.final, [
        (e.src, e.dst, e.ilabel, e.olabel, e.log_weight.hex())
        for e in fst.edges
    ]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(hyp=HYPOTHESES, ref=REFERENCES)
def test_edit_distance_matches_dynamic_program(hyp, ref):
    expected = dp_edit_distance(hyp, ref)
    assert edit_distance(hyp, ref) == expected
    assert edit_distance(ref, hyp) == expected


def _word_chain(words, fillers) -> tuple[Wfst, Path]:
    """Chain lattice spelling ``words`` with ``fillers[i]`` epsilon-output
    edges before word i, and its one path."""
    edges = []
    for word, count in zip(words, fillers):
        for olabel in [EPSILON] * count + [word]:
            edges.append(Edge(len(edges), len(edges) + 1, 1, olabel, 0.0))
    fst = Wfst(len(edges) + 1, edges, final=len(edges))
    return fst, Path(tuple(range(len(edges))), 0.0)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    ref=REFERENCES,
    hyps=st.lists(st.lists(st.integers(1, 8), max_size=70), min_size=1,
                  max_size=6),
    data=st.data(),
)
def test_word_edit_loss_scores_each_word_tuple_by_its_words(ref, hyps, data):
    # One loss object scores every tuple twice, each time on a lattice and
    # path of its own; the memoized value must be the tuple's distance.
    loss = WordEditLoss(ref)
    for words in hyps + hyps[::-1]:
        fillers = data.draw(
            st.lists(st.integers(0, 2), min_size=len(words),
                     max_size=len(words))
        )
        fst, path = _word_chain(words, fillers)
        expected = float(dp_edit_distance(words, ref))
        assert loss(fst, path) == expected
        assert float(edit_distance(words, ref)) == expected


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    stream_seed=st.integers(0, 2**64 - 1),
    reference=st.lists(st.integers(1, 3), max_size=6),
)
def test_batch_losses_match_per_path_losses_on_random_dags(
    seed, stream_seed, reference
):
    # Labels 0..3 put epsilons on both tapes, so the sampled paths have
    # different lengths and frame counts; a frame-error reference of the
    # wrong length must fail as the per-path loss does.
    fst = random_acyclic_wfst(np.random.default_rng(seed))
    paths = sample_paths(fst, stream_seed, 16)
    edge_ids = edge_id_matrix(paths)
    for loss in (WordEditLoss(reference), FrameErrorLoss(reference)):
        got, expected = (
            _raised_or(DimensionMismatchError, run) for run in (
                lambda: loss.batch(fst, edge_ids).tolist(),
                lambda: [loss(fst, p) for p in paths],
            )
        )
        assert got == expected


def _outcome(build):
    """The built array's bytes and shape, or the DimensionMismatchError text."""
    try:
        gamma = build()
    except DimensionMismatchError as exc:
        return "error", str(exc)
    return gamma.shape, gamma.tobytes()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), stream_seed=st.integers(0, 2**64 - 1))
def test_path_occupancy_matches_per_path_matrices(seed, stream_seed):
    # Input label 0 is epsilon, so paths consume different frame counts;
    # every (T, Q) below is a stack for some path sets and an error (wrong
    # frame count, or a label above Q) for others.
    fst = random_acyclic_wfst(np.random.default_rng(seed))
    paths = sample_paths(fst, stream_seed, 12)
    counts = [len(path_input_labels(fst, p)) for p in paths]
    for num_frames in sorted(set(counts) | {0, max(counts) + 1}):
        same = [p for p, c in zip(paths, counts) if c == num_frames]
        for batch in (paths, same):
            if not batch:
                continue
            for num_symbols in (2, 3):
                expected = _outcome(lambda: np.stack([
                    occupancy_matrix(fst, p, num_frames, num_symbols)
                    for p in batch
                ]))
                got = _outcome(
                    lambda: path_occupancy(
                        fst, edge_id_matrix(batch), num_frames, num_symbols
                    )
                )
                assert got == expected




def _raised_or(expected_errors, run):
    """run()'s result, or the type and text of an expected error."""
    try:
        return run()
    except expected_errors as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    left_seed=st.integers(0, 2**32 - 1),
    right_seed=st.integers(0, 2**32 - 1),
    left=st.sampled_from(["sausage", "dag", "dag without output epsilons"]),
)
def test_compose_matches_reference_on_random_dags(left_seed, right_seed, left):
    # The right DAG has epsilons on both tapes, -inf edges and dead ends; a
    # left DAG with epsilon outputs must be rejected by both.
    rng = np.random.default_rng(left_seed)
    if left == "sausage":
        z = rng.normal(0.0, 2.0, size=rng.integers(1, 6, size=2))
        z[rng.random(z.shape) < 0.1] = -math.inf
        a = build_score_fst(z)
    else:
        a = random_acyclic_wfst(rng, max_states=8)
        if left == "dag without output epsilons":
            a = Wfst(a.num_states, [
                Edge(e.src, e.dst, e.ilabel, e.olabel or 1, e.log_weight)
                for e in a.edges
            ], final=a.final)
    b = random_acyclic_wfst(np.random.default_rng(right_seed), max_states=12)
    got, expected = (
        _raised_or(UnsupportedCompositionError, lambda: run(a, b))
        for run in (compose, reference_compose)
    )
    if isinstance(expected, Wfst):
        assert isinstance(got, Wfst)
        assert format_fst_text(got) == format_fst_text(expected)
    assert got == expected


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    max_paths=st.integers(0, 40),
    back_edge=st.booleans(),
)
def test_enumeration_and_order_match_reference(seed, max_paths, back_edge):
    # Some DAGs gain one backward edge and so a cycle; the one-state
    # transducer has the empty path as its only path.
    fst = random_acyclic_wfst(np.random.default_rng(seed))
    if back_edge:
        src, dst = sorted(np.random.default_rng(seed + 1).choice(
            fst.final, size=2, replace=False).tolist(), reverse=True)
        fst = Wfst(fst.num_states, fst.edges + (Edge(src, dst, 1, 1, 0.0),),
                   final=fst.final)
    errors = (CyclicFstError, PathOverflowError)
    for case in (fst, Wfst(1, (), final=0)):
        for bound in (max_paths, 10_000):
            got, expected = (
                _raised_or(errors, lambda: [
                    (p.edges, repr(p.log_weight)) for p in run(case, bound)
                ])
                for run in (enumerate_paths, reference_enumerate_paths)
            )
            assert got == expected
        assert _raised_or(errors, lambda: topological_order(case)) == (
            _raised_or(errors, lambda: reference_topological_order(case))
        )
