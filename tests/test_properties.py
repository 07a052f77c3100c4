"""Property tests: lattice passes, losses and occupancy against reference
code on random inputs."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sampled_mbr import (
    EPSILON,
    CyclicFstError,
    DegenerateLatticeError,
    DimensionMismatchError,
    Edge,
    FrameErrorLoss,
    FstParseError,
    InvalidFstError,
    LatticeTopology,
    Path,
    PathOverflowError,
    UnsupportedCompositionError,
    UnsupportedTopologyError,
    Wfst,
    WordEditLoss,
    backward,
    build_score_fst,
    compose,
    count_paths,
    edge_loss_annotation,
    edit_distance,
    enumerate_paths,
    expected_additive_loss,
    format_fst_text,
    parse_fst_text,
    path_input_labels,
    path_occupancy,
    sample_paths,
    stream_uniforms,
    topological_order,
    walk_paths,
)
from sampled_mbr import sampling
from sampled_mbr.fst import (
    MAX_STATE_ID,
    distinct_rows,
    edge_id_matrix,
    enumerated_distribution,
    out_edge_groups,
)
from sampled_mbr.losses import _EditDistances, score_blocks
from sampled_mbr.sampling import _Walker, longest_path_edges, sample_edge_ids

from helpers import (
    ShiftedLoss,
    _parse_lines,
    bigram_decoder,
    dp_edit_distance,
    log_total_weight,
    occupancy_matrix,
    random_acyclic_wfst,
    random_cyclic_decoder,
    reference_cdf_rows,
    reference_compose,
    reference_distinct_rows,
    reference_edge_loss_annotation,
    reference_enumerate_paths,
    reference_sample_paths,
    reference_topological_order,
    reference_word_edit_batch,
    reweight_stochastic,
    sample_path,
    stream_draws,
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
    pushed = reweight_stochastic(fst)
    for i, path in enumerate(sample_paths(fst, stream_seed, 20, start)):
        draws = stream_draws(stream_seed, start + i, len(path.edges))
        assert path.edges == sample_path(pushed, draws).edges


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    seed=st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1),
    runs=st.lists(
        st.tuples(
            st.sampled_from([0, 2**64 - 3]) | st.integers(0, 2**64 - 1),
            st.integers(1, 5),
        ),
        max_size=6,
    ),
    num_draws=st.integers(0, 13),
    shuffle=st.randoms(use_true_random=False),
)
def test_stream_uniforms_match_numpy_philox_per_stream(
    seed, runs, num_draws, shuffle
):
    # Runs of consecutive indices, clipped at 2^64 - 1, some shuffled into
    # reversed or gapped order.
    indices = [
        i for first, n in runs for i in range(first, min(first + n, 2**64))
    ]
    if shuffle.random() < 0.5:
        shuffle.shuffle(indices)
    rows = stream_uniforms(seed, indices, num_draws)
    assert rows.shape == (len(indices), num_draws)
    for row, index in zip(rows.tolist(), indices):
        assert row == stream_draws(seed, index, num_draws)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_rows=st.integers(0, 40),
    pool=st.integers(1, 40),
    width=st.integers(0, 70),
    span=st.sampled_from([1, 2, 3, 500, 2**20, 2**50]),
    low=st.sampled_from([-1, 0]) | st.integers(-(2**40), 2**40),
)
def test_distinct_rows_match_dict_of_row_bytes(
    seed, num_rows, pool, width, span, low
):
    # Rows drawn from a pool of random rows, so a small pool repeats them;
    # wide spans pack one column per pass, narrow ones many.
    rng = np.random.default_rng(seed)
    rows = rng.integers(low, low + span, size=(pool, width))
    matrix = rows[rng.integers(0, pool, num_rows)]
    distinct, inverse = distinct_rows(matrix)
    expected, expected_inverse = reference_distinct_rows(matrix)
    assert distinct.dtype == matrix.dtype
    assert distinct.shape == expected.shape
    assert distinct.tobytes() == expected.tobytes()
    assert inverse.dtype == np.intp
    assert inverse.tobytes() == expected_inverse.tobytes()


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
    extreme=st.sampled_from([0.0, 0.1, 0.3, 0.6]),
)
def test_walks_take_positive_edges_to_the_final_state_on_random_dags(
    seed, stream_seed, extreme
):
    # DAGs with -inf edges and dead ends, some of whose weights are then
    # moved to -inf or +-1.7e308.  Where backward accepts the lattice,
    # every walk of stream draws takes edges of positive probability,
    # w + beta[dst] - beta[src], and ends at the final state: no row can
    # reach a dead end.
    rng = np.random.default_rng(seed)
    fst = random_acyclic_wfst(rng)
    weights = fst.log_weight.copy()
    moved = rng.random(fst.num_edges) < extreme
    weights[moved] = rng.choice([-math.inf, -1.7e308, 1.7e308], moved.sum())
    fst = fst.with_weights(weights)
    try:
        beta = backward(fst).tolist()
    except DegenerateLatticeError:
        return
    weight, src, dst = weights.tolist(), fst.src.tolist(), fst.dst.tolist()
    rows = stream_uniforms(stream_seed, range(64), longest_path_edges(fst))
    for row in walk_paths([fst], rows).tolist():
        edges = [k for k in row if k >= 0]
        assert row[len(edges):] == [-1] * (len(row) - len(edges))
        state = fst.initial
        for k in edges:
            assert src[k] == state
            ratio = weight[k] + beta[dst[k]] - beta[state]
            assert math.isfinite(ratio) and math.exp(ratio) > 0.0
            state = dst[k]
        assert state == fst.final


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    stream_seed=st.integers(0, 2**64 - 1),
    count=st.integers(0, 40),
    start=st.one_of(st.integers(0, 50), st.integers(2**64 - 90, 2**64 - 40)),
    chunk_rows=st.integers(1, 6),
)
# The one-state lattice, whose only path is empty: zero-width rows.
@example(seed=None, stream_seed=3, count=5, start=0, chunk_rows=2)
@example(seed=0, stream_seed=3, count=0, start=2**64 - 40, chunk_rows=1)
def test_sample_paths_match_per_row_reference_on_random_dags(
    seed, stream_seed, count, start, chunk_rows
):
    # Small walk chunks make the draws cross many chunks; a DAG's paths
    # have mixed lengths, so rows end in -1 padding.
    if seed is None:
        fst = Wfst(1, [], final=0)
    else:
        fst = random_acyclic_wfst(np.random.default_rng(seed))
    expected = reference_sample_paths(fst, stream_seed, count, start)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampling, "CHUNK_ROWS", chunk_rows)
        got = sample_paths(fst, stream_seed, count, start)
    assert len(got) == count
    assert [(p.edges, p.log_weight.hex()) for p in got] == [
        (p.edges, p.log_weight.hex()) for p in expected
    ]


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


# Reference lengths around the 64-bit word size switch the kernel's bit
# vectors from uint64 to Python ints.
KERNEL_REFERENCES = st.lists(
    st.one_of(
        st.sampled_from([0, 1, 63, 64, 65]), st.integers(0, 8),
        st.integers(101, 140),
    ).flatmap(
        lambda n: st.lists(st.integers(1, 6), min_size=n, max_size=n)
    ),
    min_size=1, max_size=4,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    refs=KERNEL_REFERENCES,
    width=st.sampled_from([0, 1, 7, 80, 160]),
    data=st.data(),
)
def test_word_edit_kernel_matches_per_row_oracle(refs, width, data):
    # Rows of words 1..8 with epsilons (0) inside and -1 padding after,
    # each scored against a reference of its own; N may be 0.
    num_rows = data.draw(st.integers(0, 6))
    rows, owners = [], []
    for _ in range(num_rows):
        row = data.draw(st.lists(st.integers(0, 8), max_size=width))
        rows.append(row + [-1] * (width - len(row)))
        owners.append(data.draw(st.integers(0, len(refs) - 1)))
    labels = np.array(rows, dtype=np.int64).reshape(num_rows, width)
    which = np.array(owners, dtype=np.intp)
    got = _EditDistances(refs)(labels, which)
    assert got.shape == (num_rows,)
    per_row = [refs[k] for k in owners]
    expected = [
        dp_edit_distance([w for w in row if w > 0], ref)
        for row, ref in zip(rows, per_row)
    ]
    assert got.tolist() == expected
    assert reference_word_edit_batch(labels, per_row) == expected


def _blocks_match(losses, fst: Wfst, edge_ids: np.ndarray):
    """score_blocks gives each block the bits of its own loss's batch."""
    got = score_blocks(losses, fst, edge_ids)
    per = len(edge_ids) // len(losses)
    assert got.shape == (len(losses), per)
    for d, loss in enumerate(losses):
        expected = loss.batch(fst, edge_ids[d * per:(d + 1) * per])
        assert got[d].tobytes() == expected.tobytes()


# One to five references: empty, short, or past 64 words (object vectors).
BLOCK_REFERENCES = st.lists(
    st.one_of(
        st.just([]),
        st.lists(st.integers(1, 6), max_size=8),
        st.lists(st.integers(1, 6), min_size=65, max_size=90),
    ),
    min_size=1, max_size=5,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), refs=BLOCK_REFERENCES,
       per=st.integers(0, 6))
@example(seed=0, refs=[[], [1] * 70, [2, 5]], per=3)
def test_score_blocks_word_edit_matches_each_blocks_batch(seed, refs, per):
    # Sampled DAG rows; output label 0 is epsilon, so rows carry epsilons
    # and -1 padding.
    fst = random_acyclic_wfst(np.random.default_rng(seed))
    edge_ids = sample_edge_ids(fst, seed, len(refs) * max(per, 1))
    losses = [WordEditLoss(ref) for ref in refs]
    _blocks_match(losses, fst, edge_ids[:len(refs) * per])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_symbols=st.integers(1, 3),
    alignments=st.lists(
        st.lists(st.integers(1, 4), min_size=1, max_size=4),
        min_size=1, max_size=5,
    ),
    per=st.integers(0, 6),
)
@example(seed=1, num_symbols=2, alignments=[[1, 2**70], [2]], per=2)
def test_score_blocks_frame_error_matches_each_blocks_batch(
    seed, num_symbols, alignments, per
):
    # Every path of a LatticeTopology lattice consumes its frame count, the
    # first alignment's length; the others are cut or repeated to it.  A
    # symbol past int64 makes the stacked alignments an object array.
    rng = np.random.default_rng(seed)
    num_frames = len(alignments[0])
    decoder = bigram_decoder(rng, num_symbols, num_symbols)
    topology = LatticeTopology(decoder, num_frames, num_symbols)
    lattice = topology.at(rng.normal(size=(num_frames, num_symbols)))
    blocks = len(alignments)
    edge_ids = sample_edge_ids(lattice, seed, blocks * max(per, 1))
    losses = [
        FrameErrorLoss((a * num_frames)[:num_frames]) for a in alignments
    ]
    _blocks_match(losses, lattice, edge_ids[:blocks * per])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    blocks=st.integers(1, 5),
    per=st.integers(1, 4),
    data=st.data(),
)
def test_score_blocks_frame_error_on_blocks_of_other_frame_counts(
    seed, blocks, per, data
):
    # Input label 0 is epsilon, so DAG paths consume different frame
    # counts; each block's rows share one count, its alignment's length.
    fst = random_acyclic_wfst(np.random.default_rng(seed))
    sampled = sample_edge_ids(fst, seed, 12)
    frames = (fst.ilabel[sampled] != EPSILON).sum(axis=1)
    rows, alignments = [], []
    for _ in range(blocks):
        count = data.draw(st.sampled_from(sorted(set(frames.tolist()))))
        same = np.flatnonzero(frames == count)
        rows += [same[i % len(same)] for i in range(per)]
        alignments.append(
            data.draw(st.lists(st.integers(1, 4), min_size=count,
                               max_size=count))
        )
    losses = [FrameErrorLoss(a) for a in alignments]
    _blocks_match(losses, fst, sampled[rows])


def test_score_blocks_rejects_bad_blocks_as_batch_does():
    # A 3-frame chain with 2 symbols: 8 paths, each consuming 3 frames.
    lattice = LatticeTopology(word_chain_decoder(3, 2, 2), 3, 2).lattice
    edge_ids = edge_id_matrix(enumerate_paths(lattice, 8))
    word, frame = WordEditLoss((1, 2)), FrameErrorLoss((1, 2, 1))
    with pytest.raises(ValueError, match="8 rows do not split into 3"):
        score_blocks([word] * 3, lattice, edge_ids)
    with pytest.raises(ValueError, match="8 rows do not split into 0"):
        score_blocks([], lattice, edge_ids)
    for mixed in ([word, frame], [frame, word], [ShiftedLoss(word, 1.0)]):
        with pytest.raises(ValueError, match="objects of one class"):
            score_blocks(mixed, lattice, edge_ids)
    # A wrong-length alignment in block 1 raises batch's error for it.
    short = FrameErrorLoss((1, 2))
    with pytest.raises(DimensionMismatchError) as expected:
        short.batch(lattice, edge_ids[4:])
    with pytest.raises(DimensionMismatchError) as got:
        score_blocks([frame, short], lattice, edge_ids)
    assert str(got.value) == str(expected.value)


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
    # path of its own, its epsilon fillers skipped; the value must be the
    # tuple's distance.
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


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    source=st.sampled_from(["dag", "levelled dag", "bigram lattice"]),
    data=st.data(),
)
def test_annotation_matches_reference_walk(seed, source, data):
    # Random DAGs have unreachable states, states reached at two frame
    # depths and paths of several frame counts.  A levelled DAG consumes
    # a label exactly on its edges that climb a level, so only edges that
    # climb two levels break frame synchrony.  The bigram lattices are
    # frame-synchronous, with epsilon-input exits.  Where both kinds of
    # fault are present, either error may be raised.
    rng = np.random.default_rng(seed)
    if source == "bigram lattice":
        num_frames, num_symbols = (int(n) for n in rng.integers(1, 5, size=2))
        decoder = bigram_decoder(rng, num_symbols, num_symbols)
        fst = LatticeTopology(decoder, num_frames, num_symbols).lattice
    else:
        fst = random_acyclic_wfst(rng, max_states=12)
        level = np.cumsum(rng.random(fst.num_states) < 0.5).tolist()
        if source == "levelled dag":
            fst = Wfst(fst.num_states, [
                Edge(e.src, e.dst, e.ilabel or 1, e.olabel, e.log_weight)
                if level[e.dst] > level[e.src] else
                Edge(e.src, e.dst, EPSILON, e.olabel, e.log_weight)
                for e in fst.edges
            ], final=fst.final)
        num_frames = level[fst.final] - level[fst.initial]
    num_frames += data.draw(st.sampled_from([0, 0, 0, -1, 1]))
    num_frames = max(0, num_frames)
    ref = data.draw(st.lists(
        st.integers(1, 4), min_size=num_frames, max_size=num_frames
    ))
    errors = (UnsupportedTopologyError, DimensionMismatchError)
    got, expected = (
        _raised_or(errors, lambda: run(fst, ref))
        for run in (edge_loss_annotation, reference_edge_loss_annotation)
    )
    if isinstance(expected, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
    else:
        assert not isinstance(got, np.ndarray)
        if got[0] is expected[0] is DimensionMismatchError:
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




def _cdf_row_bits(lattices: list[Wfst], build) -> tuple:
    """The bits of the (cdf, total, last) arrays ``build`` returns for
    lattices, or its DegenerateLatticeError."""
    def bits():
        cdf, total, last = build(lattices)
        return cdf.tobytes(), total.tobytes(), last.tolist()

    return _raised_or(DegenerateLatticeError, bits)


def _walker_rows(lattices: list[Wfst]) -> tuple:
    walker = _Walker(lattices, longest_path_edges(lattices[0]))
    return walker.cdf, walker.total, walker.last


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), copies=st.integers(0, 3))
def test_cdf_rows_match_reference_loop_on_random_dags(seed, copies):
    # -inf edges, dead ends and reweighted copies walked together; a copy
    # whose -inf weights cut every path fails in both builds alike.
    rng = np.random.default_rng(seed)
    fst = random_acyclic_wfst(rng)
    lattices = [fst]
    for _ in range(copies):
        weights = rng.normal(0.0, 2.0, size=fst.num_edges)
        weights[rng.random(fst.num_edges) < 0.1] = -math.inf
        lattices.append(fst.with_weights(weights))
    assert _cdf_row_bits(lattices, _walker_rows) == (
        _cdf_row_bits(lattices, reference_cdf_rows)
    )


def test_cdf_rows_match_reference_loop_over_many_degree_groups():
    # State 0 enters states 1..300 and state q has q parallel edges to the
    # final state, so out-degrees run from 1 to 300 in 300 groups.  Some
    # edges weigh -inf, and all of state 3's do, which makes it dead.
    final = 301
    edges = [Edge(0, q, 1, 1, 0.0) for q in range(1, final)]
    edges += [
        Edge(q, final, q, q, 0.0) for q in range(1, final) for _ in range(q)
    ]
    fst = Wfst(final + 1, edges, final=final)
    assert len(out_edge_groups(fst)[2]) == 300
    rng = np.random.default_rng(16)
    lattices = [fst]
    for _ in range(2):
        weights = rng.normal(0.0, 2.0, size=fst.num_edges)
        weights[rng.random(fst.num_edges) < 0.1] = -math.inf
        weights[final - 2] = 0.0  # keeps a path through state 300
        weights[final + 2:final + 5] = -math.inf
        lattices.append(fst.with_weights(weights))
    got = _cdf_row_bits(lattices, _walker_rows)
    assert isinstance(got[0], bytes)
    assert got == _cdf_row_bits(lattices, reference_cdf_rows)


# Replacement tokens for the parser test: per column kind, tokens that
# int() or float() reject, that parse to values the format rejects, and
# valid ones, small ints included so that states stay in range.
_INT_TOKENS = [
    "-1", "-7", "-1_0", str(-2**63 - 1), "-0", "x", "1.5", "0x1", "_1", "",
    "1_0", "+2", "٣", str(2**63), str(MAX_STATE_ID + 1), str(2**70),
    "0", "1", "2", "7", "30",
]
_WEIGHT_TOKENS = [
    "nan", "-nan", "inf", "+inf", "Infinity", "-inf", "-0.0", "0.0", "1e308",
    "1e309", "1_0.5", "x", "1,5", "0x1p3", "-2.5",
]


@settings(derandomize=True, max_examples=600, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_column_parser_matches_line_parser(seed):
    # Valid texts of random DAGs, then up to two edits, each picked
    # uniformly by the seed: a replaced token in one arc column or in the
    # final line, an arc moved to leave the final state, a field dropped
    # or added, a final line dropped or repeated, or a blank line.
    pick = random.Random(seed)
    fst = random_acyclic_wfst(np.random.default_rng(seed), max_states=12)
    lines = [line.split() for line in format_fst_text(fst).splitlines()]
    for _ in range(pick.randrange(3)):
        kind = pick.choice([
            0, 1, 2, 3, 4, "final", "leave final", "drop field", "add field",
            "drop final", "add final", "blank",
        ])
        arcs = [row for row in lines if len(row) == 5]
        finals = [row for row in lines if len(row) == 1]
        if kind in (0, 1, 2, 3, 4) and arcs:
            tokens = _WEIGHT_TOKENS if kind == 4 else _INT_TOKENS
            pick.choice(arcs)[kind] = pick.choice(tokens)
        elif kind == "final" and finals:
            pick.choice(finals)[0] = pick.choice(_INT_TOKENS)
        elif kind == "leave final" and arcs:
            pick.choice(arcs)[0] = str(fst.final)
        elif kind == "drop field" and lines:
            row = pick.choice(lines)
            if row:
                del row[pick.randrange(len(row))]
        elif kind == "add field" and lines:
            row = pick.choice(lines)
            row.insert(pick.randrange(len(row) + 1), pick.choice(_INT_TOKENS))
        elif kind == "drop final":
            lines = [row for row in lines if len(row) != 1]
        elif kind in ("add final", "blank"):
            row = [pick.choice(_INT_TOKENS)] if kind == "add final" else []
            lines.insert(pick.randrange(len(lines) + 1), row)
    text = "\n".join(" ".join(row) for row in lines)

    def parsed(parse):
        try:
            result = parse(text)
        except (FstParseError, InvalidFstError) as exc:
            return type(exc), str(exc)
        return result, format_fst_text(result)

    got, expected = parsed(parse_fst_text), parsed(_parse_lines)
    if isinstance(expected[0], Wfst):
        assert isinstance(got[0], Wfst) and got[0] == expected[0]
        assert got[1] == expected[1]
    else:
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
    left=st.sampled_from(
        ["sausage", "long sausage", "dag", "dag without output epsilons"]
    ),
    back_edge=st.sampled_from([None, "labelled", "epsilon input"]),
)
def test_compose_matches_reference_on_random_dags(
    left_seed, right_seed, left, back_edge
):
    # The right DAG has epsilons on both tapes, -inf edges and dead ends,
    # and some gain one backward edge, so a cycle: one with an epsilon
    # input also makes the composition cyclic.  A left DAG with epsilon
    # outputs must be rejected by both.  A long sausage meets a random
    # cyclic decoder instead, whose search levels often repeat frame
    # after frame, so that compose extrapolates them.
    rng = np.random.default_rng(left_seed)
    right_rng = np.random.default_rng(right_seed)
    if left.endswith("sausage"):
        max_frames = 61 if left == "long sausage" else 6
        z = rng.normal(0.0, 2.0, size=(rng.integers(1, max_frames),
                                       rng.integers(1, 6)))
        z[rng.random(z.shape) < 0.1] = -math.inf
        a = build_score_fst(z)
    else:
        a = random_acyclic_wfst(rng, max_states=8)
        if left == "dag without output epsilons":
            a = Wfst(a.num_states, [
                Edge(e.src, e.dst, e.ilabel, e.olabel or 1, e.log_weight)
                for e in a.edges
            ], final=a.final)
    if left == "long sausage":
        b = random_cyclic_decoder(right_rng, z.shape[1])
    else:
        b = random_acyclic_wfst(right_rng, max_states=12)
    if back_edge and left != "long sausage":
        dst, src = sorted(right_rng.choice(b.final, size=2, replace=False))
        ilabel, olabel = right_rng.integers(1, 4, size=2).tolist()
        if back_edge == "epsilon input":
            ilabel = EPSILON
        b = Wfst(b.num_states,
                 b.edges + (Edge(int(src), int(dst), ilabel, olabel, 0.5),),
                 final=b.final)
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
        # The path count and the longest path, which sizes every draw row,
        # against the enumeration.
        paths = _raised_or(
            errors, lambda: reference_enumerate_paths(case, 10_000)
        )
        if isinstance(paths, list):
            assert count_paths(case) == len(paths)
            assert longest_path_edges(case) == max(
                (len(p.edges) for p in paths), default=-math.inf
            )
        else:
            assert paths[0] is CyclicFstError
            for run in (count_paths, longest_path_edges):
                with pytest.raises(CyclicFstError):
                    run(case)
