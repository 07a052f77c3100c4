"""Property tests: lattice passes, losses and occupancy against reference
code on random inputs."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sampled_mbr import (
    EPSILON,
    DimensionMismatchError,
    Edge,
    Path,
    SampleStream,
    Wfst,
    WordEditLoss,
    edit_distance,
    expected_additive_loss,
    path_input_labels,
    path_occupancy,
    sample_paths,
)
from sampled_mbr.fst import enumerated_distribution

from helpers import (
    dp_edit_distance,
    log_total_weight,
    occupancy_matrix,
    random_acyclic_wfst,
    reweight_stochastic,
    sample_path,
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
                    lambda: path_occupancy(fst, batch, num_frames, num_symbols)
                )
                assert got == expected

