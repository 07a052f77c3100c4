"""Property tests: lattice passes against reference code on random DAGs."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sampled_mbr import (
    SampleStream,
    expected_additive_loss,
    reweight_stochastic,
    sample_paths,
)
from sampled_mbr.fst import enumerated_distribution

from helpers import log_total_weight, random_acyclic_wfst, sample_path


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
    for i, path in enumerate(sample_paths(fst, stream, 20, start)):
        expected = sample_path(pushed, stream.generator(start + i))
        assert path.edges == expected.edges
