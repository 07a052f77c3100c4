"""Score-FST construction, composition, and occupancy matrices."""

import importlib
import math

import numpy as np
import pytest

from sampled_mbr import (
    CyclicFstError,
    DegenerateLatticeError,
    DimensionMismatchError,
    Edge,
    FrameErrorLoss,
    FstParseError,
    LatticeTopology,
    UnsupportedCompositionError,
    Wfst,
    WordEditLoss,
    backward,
    build_score_fst,
    compose,
    empty_wfst,
    enumerate_paths,
    expected_additive_loss,
    format_fst_text,
    parse_fst_text,
    parse_logits_csv,
    path_distribution,
    path_occupancy,
    path_output_labels,
    stream_uniforms,
    topological_order,
    walk_paths,
)
from sampled_mbr import fst as fst_module
from sampled_mbr.fst import (
    edge_id_matrix,
    edge_lists,
    frame_depths,
    longest_path_edges,
    out_edge_groups,
)

from helpers import (
    bigram_decoder,
    format_logits_csv,
    identity_decoder,
    log_total_weight,
    make_path,
    random_cyclic_decoder,
    reference_compose,
    uniform_lattice,
    word_chain_decoder,
)

# The package re-exports ``compose`` (the function) under the name of its
# module, so the module is imported by name.
compose_module = importlib.import_module("sampled_mbr.compose")


# ---------------------------------------------------------------------------
# Score FST
# ---------------------------------------------------------------------------


def test_score_fst_single_frame():
    fst = build_score_fst(np.zeros((1, 2)))
    assert fst.num_states == 2
    assert fst.num_edges == 2
    assert all(e.log_weight == 0.0 for e in fst.edges)
    assert [(e.ilabel, e.olabel) for e in fst.edges] == [(1, 1), (2, 2)]


def test_score_fst_counts():
    fst = build_score_fst(np.zeros((2, 3)))
    assert fst.num_states == 3
    assert fst.num_edges == 6
    assert fst.final == 2


def test_score_fst_carries_scores_per_edge():
    z = np.array([[0.5, -1.0], [2.0, float("-inf")]])
    fst = build_score_fst(z)
    weights = {(e.src, e.ilabel): e.log_weight for e in fst.edges}
    assert weights[(0, 1)] == 0.5
    assert weights[(0, 2)] == -1.0
    assert weights[(1, 1)] == 2.0
    assert weights[(1, 2)] == float("-inf")


def test_score_fst_rejects_bad_matrices():
    with pytest.raises(DimensionMismatchError):
        build_score_fst(np.zeros((0, 2)))
    with pytest.raises(DimensionMismatchError):
        build_score_fst(np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        build_score_fst(np.array([[np.nan, 0.0]]))
    with pytest.raises(DimensionMismatchError):
        build_score_fst(np.array([[np.inf, 0.0]]))


def test_uniform_sausage_with_identity_decoder():
    lattice = uniform_lattice(2, 2)
    dist = path_distribution(lattice)
    assert len(dist) == 4
    for p in dist.values():
        assert math.isclose(p, 0.25, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def test_compose_single_compatible_pair():
    z = np.array([[0.25]])
    score = build_score_fst(z)
    decoder = Wfst(2, [Edge(0, 1, 1, 9, math.log(2))], final=1)
    result = compose(score, decoder)
    paths = enumerate_paths(result, 10)
    assert len(paths) == 1
    assert math.isclose(paths[0].log_weight, 0.25 + math.log(2), rel_tol=1e-15)
    assert path_output_labels(result, paths[0]) == (9,)


def test_compose_with_identity_preserves_distribution():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(3, 2))
    sausage = build_score_fst(z)
    composed = compose(sausage, identity_decoder(2))
    left = path_distribution(sausage)
    right = path_distribution(composed)
    assert set(left) == set(right)
    for words, p in left.items():
        assert math.isclose(right[words], p, rel_tol=1e-12)


def test_compose_label_mismatch_gives_empty_fst():
    score = build_score_fst(np.zeros((1, 1)))  # only label 1
    decoder = Wfst(2, [Edge(0, 1, 7, 7, 0.0)], final=1)
    result = compose(score, decoder)
    assert result.num_edges == 0
    with pytest.raises(DegenerateLatticeError):
        path_distribution(result)


def test_compose_rejects_epsilons_on_both_sides():
    a = Wfst(2, [Edge(0, 1, 1, 0, 0.0)], final=1)
    b = Wfst(2, [Edge(0, 1, 0, 2, 0.0)], final=1)
    with pytest.raises(UnsupportedCompositionError):
        compose(a, b)


def test_compose_epsilon_input_edges_in_decoder():
    # decoder inserts a word with no frame consumption at the end
    decoder = Wfst(
        3,
        [
            Edge(0, 1, 1, 5, 0.0),
            Edge(1, 2, 0, 6, math.log(0.5)),
        ],
        final=2,
    )
    score = build_score_fst(np.array([[1.5]]))
    result = compose(score, decoder)
    paths = enumerate_paths(result, 10)
    assert len(paths) == 1
    assert path_output_labels(result, paths[0]) == (5, 6)
    assert math.isclose(
        paths[0].log_weight, 1.5 + math.log(0.5), rel_tol=1e-15
    )


def test_compose_epsilon_output_edges_on_left():
    # The left side emits its second frame silently: rejected even though
    # the right side is epsilon-free.
    a = Wfst(
        3,
        [Edge(0, 1, 1, 4, 0.0), Edge(1, 2, 2, 0, -0.5)],
        final=2,
    )
    b = Wfst(2, [Edge(0, 1, 4, 9, 0.25)], final=1)
    with pytest.raises(UnsupportedCompositionError):
        compose(a, b)


def test_compose_prunes_dead_states():
    # symbol 2 leads the decoder into a state that never reaches the final
    decoder = Wfst(
        4,
        [
            Edge(0, 1, 1, 1, 0.0),
            Edge(0, 2, 2, 2, 0.0),
            Edge(1, 3, 1, 1, 0.0),
        ],
        final=3,
    )
    score = build_score_fst(np.zeros((2, 2)))
    result = compose(score, decoder)
    paths = enumerate_paths(result, 100)
    assert len(paths) == 1
    # connect keeps only states on complete paths
    reachable = {result.initial}
    for e in result.edges:
        reachable.add(e.dst)
    assert reachable == set(range(result.num_states))
    assert all(
        any(e.src == q for e in result.edges) or q == result.final
        for q in range(result.num_states)
    )


def test_compose_total_weight_matches_enumeration():
    rng = np.random.default_rng(19)
    for _ in range(10):
        num_frames = int(rng.integers(1, 4))
        num_symbols = int(rng.integers(1, 4))
        z = rng.normal(0.0, 3.0, size=(num_frames, num_symbols))
        decoder = word_chain_decoder(
            num_frames, num_symbols, int(rng.integers(1, num_symbols + 1))
        )
        lattice = compose(build_score_fst(z), decoder)
        paths = enumerate_paths(lattice, 200)
        brute = math.log(sum(math.exp(p.log_weight) for p in paths))
        assert math.isclose(log_total_weight(lattice), brute, rel_tol=1e-10)


def _recording_repeats(monkeypatch) -> list[int]:
    """Record every value that compose's level-repeat check returns."""
    repeats = []
    check = compose_module._repeated_levels

    def recording(*args):
        repeats.append(check(*args))
        return repeats[-1]

    monkeypatch.setattr(compose_module, "_repeated_levels", recording)
    return repeats


def test_compose_extrapolates_the_repeated_levels_of_a_bigram_lattice(
    monkeypatch,
):
    # The shape of the lattice-exact benchmark: from level 3 on, each
    # search level is the one before it shifted by one frame (12 context
    # states at frame t and one final-context state at frame t - 1).
    rng = np.random.default_rng(11)
    decoder = bigram_decoder(rng, 12, 9)
    sausage = build_score_fst(rng.normal(size=(30, 12)))
    repeats = _recording_repeats(monkeypatch)
    lattice = compose(sausage, decoder)
    # Fired once, after level 3, for the levels up to frame 29.
    assert [r for r in repeats if r] == [26]
    expected = reference_compose(sausage, decoder)
    assert lattice == expected
    assert format_fst_text(lattice) == format_fst_text(expected)
    assert lattice.log_weight.tobytes() == expected.log_weight.tobytes()


def test_compose_extrapolates_only_once_earlier_states_repeat_too(
    monkeypatch,
):
    # Decoder state 1 loops on symbol 3, exits to the final state 2 on
    # symbol 5 and returns to state 0 on epsilon.  Level 4 of the search
    # (three states) is level 3 shifted by a frame, but level 3's return
    # arcs enter level 2, which has two states, so the shifted ids are
    # wrong until one level later.
    decoder = Wfst(3, [
        Edge(0, 1, 0, 2, 0.0), Edge(0, 2, 0, 3, -0.5), Edge(1, 0, 0, 3, 0.25),
        Edge(1, 2, 5, 3, 1.0), Edge(1, 1, 3, 2, -1.0),
    ], final=2)
    sausage = build_score_fst(np.random.default_rng(7).normal(size=(10, 5)))
    repeats = _recording_repeats(monkeypatch)
    lattice = compose(sausage, decoder)
    assert [r for r in repeats if r] == [6]
    assert repeats.index(6) == 4
    expected = reference_compose(sausage, decoder)
    assert format_fst_text(lattice) == format_fst_text(expected)


def test_compose_searches_other_left_operands_without_extrapolation(
    monkeypatch,
):
    # A chain decoder's levels never repeat shifted, and an operand that
    # is not a sausage (here one with labels not k % Q + 1) is never
    # checked.
    repeats = _recording_repeats(monkeypatch)
    z = np.random.default_rng(3).normal(size=(20, 3))
    compose(build_score_fst(z), word_chain_decoder(20, 3, 2))
    assert repeats and not any(repeats)
    repeats.clear()
    swapped = Wfst(21, [
        Edge(e.src, e.dst, 4 - e.ilabel, 4 - e.olabel, e.log_weight)
        for e in build_score_fst(z).edges
    ], final=20)
    decoder = bigram_decoder(np.random.default_rng(4), 3, 3)
    assert compose(swapped, decoder) == reference_compose(swapped, decoder)
    assert repeats == []


def _sausage_compositions():
    """Nonempty compositions of random sausages with random bigram
    decoders and random cyclic decoders, in turn."""
    rng = np.random.default_rng(13)
    for case in range(80):
        num_frames = int(rng.integers(1, 30))
        num_symbols = int(rng.integers(1, 5))
        sausage = build_score_fst(rng.normal(size=(num_frames, num_symbols)))
        if case % 2:
            decoder = bigram_decoder(rng, num_symbols, num_symbols)
        else:
            decoder = random_cyclic_decoder(rng, num_symbols)
        lattice = compose(sausage, decoder)
        if lattice != empty_wfst():
            yield lattice


def test_compose_seeds_the_frame_depths_of_sausage_compositions():
    cyclic = 0
    for lattice in _sausage_compositions():
        seeded = lattice._depths
        assert seeded is not None and not seeded.flags.writeable
        # A parsed copy has no cache, so frame_depths folds.
        try:
            folded = frame_depths(parse_fst_text(format_fst_text(lattice)))
        except CyclicFstError:
            # The order is still checked before the seeded depths are read.
            with pytest.raises(CyclicFstError):
                frame_depths(lattice)
            cyclic += 1
            continue
        assert seeded.dtype == folded.dtype
        assert seeded.tolist() == folded.tolist()
        assert frame_depths(lattice) is seeded
        copy = lattice.with_weights(np.zeros(lattice.num_edges))
        assert frame_depths(copy) is seeded
    assert cyclic


def test_sausage_compositions_take_their_order_and_longest_path_by_frame():
    by_frame = kahn = longest = cyclic = 0
    for lattice in _sausage_compositions():
        # A parsed copy has no cache, so it takes Kahn's order and folds.
        parsed = parse_fst_text(format_fst_text(lattice))
        try:
            kahn_order = topological_order(parsed)
        except CyclicFstError:
            assert lattice._longest is None
            for run in (topological_order, longest_path_edges):
                with pytest.raises(CyclicFstError):
                    run(lattice)
            cyclic += 1
            continue
        # States sorted by frame, then state id, where every edge runs
        # forward in that order.
        depths = lattice._depths.tolist()
        sorted_ids = sorted(range(lattice.num_states), key=depths.__getitem__)
        position = {q: i for i, q in enumerate(sorted_ids)}
        forward = all(
            position[e.src] < position[e.dst] for e in lattice.edges
        )
        order = topological_order(lattice)
        if forward:
            assert order == tuple(sorted_ids)
            assert lattice._lists is None
            by_frame += 1
        else:
            assert order == kahn_order
            kahn += 1
        seeded = lattice._longest
        if seeded is not None:
            assert type(seeded) is int
            assert seeded == longest_path_edges(parsed)
            longest += 1
    assert by_frame and kahn and longest and cyclic


def test_compose_orders_an_epsilon_move_to_a_lower_state_id_by_kahn():
    # Decoder state 2 moves to state 1 on epsilon input, so lattice state
    # 2, (frame 1, decoder 2), enters state 1, (frame 1, decoder 1), which
    # the search found first: sorting by frame would put 1 before 2.
    decoder = Wfst(4, [
        Edge(0, 1, 1, 1, 0.0), Edge(0, 2, 2, 2, 0.0), Edge(2, 1, 0, 3, 0.0),
        Edge(1, 3, 1, 1, 0.0),
    ], final=3)
    lattice = compose(build_score_fst(np.zeros((2, 2))), decoder)
    assert [(e.src, e.dst, e.ilabel) for e in lattice.edges] == [
        (0, 1, 1), (0, 2, 2), (1, 3, 1), (2, 1, 0),
    ]
    assert lattice._depths.tolist() == [0, 1, 1, 2]
    assert lattice._longest is None
    assert topological_order(lattice) == (0, 2, 1, 3)
    assert lattice._lists is not None
    assert longest_path_edges(lattice) == 3


# ---------------------------------------------------------------------------
# Shared lattice topology
# ---------------------------------------------------------------------------


def test_topology_of_an_empty_composition_stays_empty():
    # A three-frame chain has no path through a two-frame sausage.
    topology = LatticeTopology(word_chain_decoder(3, 2, 2), 2, 2)
    assert topology.lattice == empty_wfst()
    z = np.array([[0.5, -1.0], [2.0, -math.inf]])
    assert topology.at(z) == empty_wfst()
    assert compose(build_score_fst(z), word_chain_decoder(3, 2, 2)) == (
        empty_wfst()
    )


def test_topology_rejects_scores_of_wrong_shape_or_value():
    topology = LatticeTopology(word_chain_decoder(2, 3, 2), 2, 3)
    for z in (np.zeros((3, 2)), np.zeros((2, 2)), np.zeros(6)):
        with pytest.raises(DimensionMismatchError):
            topology.at(z)
    for bad in (math.nan, math.inf):
        z = np.zeros((2, 3))
        z[1, 2] = bad
        with pytest.raises(DimensionMismatchError):
            topology.at(z)
    with pytest.raises(DimensionMismatchError):
        LatticeTopology(word_chain_decoder(2, 3, 2), 0, 3)


def test_topology_lattices_share_structure_and_record_score_ids():
    decoder = word_chain_decoder(2, 3, 2)
    topology = LatticeTopology(decoder, 2, 3)
    lattice = topology.at(np.arange(6.0).reshape(2, 3))
    for name in ("src", "dst", "ilabel", "olabel", "first_out", "out_ids"):
        assert getattr(lattice, name) is getattr(topology.lattice, name)
    # Each edge consumed sausage edge t * Q + q - 1 of its frame t.
    expected = [3 * e.src + e.ilabel - 1 for e in topology.lattice.edges]
    assert topology.score_index.tolist() == expected
    assert [e.log_weight for e in lattice.edges] == [
        float(k) for k in expected
    ]


def test_topology_lattices_are_walked_and_scored_without_edge_objects():
    topology = LatticeTopology(word_chain_decoder(3, 4, 2), 3, 4)
    lattice = topology.at(np.random.default_rng(5).normal(size=(3, 4)))
    edge_ids = walk_paths([lattice], stream_uniforms(0, 0, 50, 3))
    assert WordEditLoss([1, 2]).batch(lattice, edge_ids).shape == (50,)
    assert FrameErrorLoss([1, 2, 3]).batch(lattice, edge_ids).shape == (50,)
    assert path_occupancy(lattice, edge_ids, 3, 4).shape == (50, 3, 4)
    # The Edge views are built only on access to ``edges``.
    assert lattice._edges is None and topology.lattice._edges is None
    assert len(lattice.edges) == lattice.num_edges == 12


def test_topology_lattices_share_one_list_view():
    topology = LatticeTopology(word_chain_decoder(3, 4, 2), 3, 4)
    rng = np.random.default_rng(8)
    lattices = [topology.at(rng.normal(size=(3, 4))) for _ in range(2)]
    walk_paths(lattices, stream_uniforms(0, 0, 20, 3))
    for lattice in lattices:
        backward(lattice)
        expected_additive_loss(lattice, np.zeros(lattice.num_edges))
    out, dst = edge_lists(topology.lattice)
    groups = out_edge_groups(topology.lattice)
    for lattice in lattices:
        assert edge_lists(lattice)[0] is out
        assert edge_lists(lattice)[1] is dst
        assert out_edge_groups(lattice) is groups


def test_topology_lattices_share_one_longest_path_count(monkeypatch):
    # compose seeds the chain's count; one epsilon-input edge between the
    # first two frames leaves the other's to the topology's fold.
    chain = word_chain_decoder(3, 4, 2)
    inserted = Wfst(5, [
        Edge(e.src + (e.src > 0), e.dst + (e.dst > 1), e.ilabel, e.olabel,
             0.0)
        for e in chain.edges
    ] + [Edge(1, 2, 0, 3, 0.0)], final=4)
    topologies = [(LatticeTopology(chain, 3, 4), 3),
                  (LatticeTopology(inserted, 3, 4), 4)]
    assert topologies[0][0].lattice._longest == 3
    rng = np.random.default_rng(8)

    def refold(*args):
        raise AssertionError("longest path counted again")

    monkeypatch.setattr(fst_module, "reverse_fold", refold)
    for topology, longest in topologies:
        lattices = [topology.at(rng.normal(size=(3, 4))) for _ in range(2)]
        walk_paths(lattices, stream_uniforms(0, 0, 20, longest))
        for lattice in (topology.lattice, *lattices):
            assert longest_path_edges(lattice) == longest


# ---------------------------------------------------------------------------
# Occupancy matrices
# ---------------------------------------------------------------------------


def test_occupancy_basic():
    fst = Wfst(
        3,
        [Edge(0, 1, 1, 1, 0.0), Edge(1, 2, 2, 2, 0.0)],
        final=2,
    )
    paths = edge_id_matrix([make_path(fst, [0, 1])])
    gamma = path_occupancy(fst, paths, 2, 2)[0]
    assert gamma.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_occupancy_single_frame_high_label():
    fst = Wfst(2, [Edge(0, 1, 3, 3, 0.0)], final=1)
    gamma = path_occupancy(fst, edge_id_matrix([make_path(fst, [0])]), 1, 3)[0]
    assert gamma.tolist() == [[0.0, 0.0, 1.0]]


def test_occupancy_skips_epsilon_inputs():
    fst = Wfst(
        4,
        [
            Edge(0, 1, 1, 1, 0.0),
            Edge(1, 2, 0, 5, 0.0),
            Edge(2, 3, 2, 2, 0.0),
        ],
        final=3,
    )
    paths = edge_id_matrix([make_path(fst, [0, 1, 2])])
    gamma = path_occupancy(fst, paths, 2, 2)[0]
    assert gamma.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_occupancy_frame_count_mismatch():
    fst = Wfst(2, [Edge(0, 1, 1, 1, 0.0)], final=1)
    path = make_path(fst, [0])
    with pytest.raises(DimensionMismatchError):
        path_occupancy(fst, edge_id_matrix([path]), 2, 2)
    with pytest.raises(DimensionMismatchError):
        path_occupancy(fst, edge_id_matrix([path]), 0, 2)
    with pytest.raises(DimensionMismatchError):
        path_occupancy(fst, edge_id_matrix([path]), 1, 0)  # label outside 1..Q
    # No frame and no symbol: a path with no input label has the empty stack.
    silent = Wfst(2, [Edge(0, 1, 0, 1, 0.0)], final=1)
    ids = edge_id_matrix([make_path(silent, [0])])
    assert path_occupancy(silent, ids, 0, 0).shape == (1, 0, 0)


def test_occupancy_label_past_index_range():
    fst = Wfst(2, [Edge(0, 1, 2**70, 1, 0.0)], final=1)
    with pytest.raises(DimensionMismatchError, match="outside 1..3"):
        path_occupancy(fst, edge_id_matrix([make_path(fst, [0])]), 1, 3)


def test_occupancy_rows_one_hot_on_lattice_paths():
    rng = np.random.default_rng(23)
    z = rng.normal(size=(3, 3))
    lattice = uniform_lattice(3, 3)
    for path in enumerate_paths(lattice, 100):
        gamma = path_occupancy(lattice, edge_id_matrix([path]), 3, 3)[0]
        assert gamma.sum(axis=1).tolist() == [1.0, 1.0, 1.0]
        assert set(np.unique(gamma)) <= {0.0, 1.0}


def test_occupancy_is_exact_score_derivative():
    rng = np.random.default_rng(29)
    z = rng.normal(size=(2, 3))
    decoder = identity_decoder(3)
    lattice = compose(build_score_fst(z), decoder)
    paths = enumerate_paths(lattice, 100)
    delta = 0.625  # exactly representable
    for path in paths[:4]:
        gamma = path_occupancy(lattice, edge_id_matrix([path]), 2, 3)[0]
        t, q = 1, 2
        bumped = z.copy()
        bumped[t, q - 1] += delta
        relattice = compose(build_score_fst(bumped), decoder)
        repath = make_path(relattice, path.edges)
        assert repath.log_weight - path.log_weight == delta * gamma[t, q - 1]


# ---------------------------------------------------------------------------
# Score CSV
# ---------------------------------------------------------------------------


def test_parse_logits_csv_basic():
    z = parse_logits_csv("1.0,2.0\n-0.5,3.25\n")
    assert z.tolist() == [[1.0, 2.0], [-0.5, 3.25]]
    # Blank and whitespace-only lines are skipped.
    again = parse_logits_csv("\n1.0,2.0\n \t\n-0.5,3.25\n\n")
    assert again.tolist() == z.tolist()


def test_parse_logits_csv_round_trip():
    rng = np.random.default_rng(31)
    z = rng.normal(size=(4, 3))
    again = parse_logits_csv(format_logits_csv(z))
    assert np.array_equal(z, again)


def test_parse_logits_csv_errors():
    with pytest.raises(FstParseError):
        parse_logits_csv("")
    with pytest.raises(FstParseError):
        parse_logits_csv("1.0,2.0\n3.0\n")
    with pytest.raises(FstParseError):
        parse_logits_csv("1.0,abc\n")
    with pytest.raises(FstParseError):
        parse_logits_csv("nan,1.0\n")
    assert parse_logits_csv("-inf,1.0\n").tolist() == [[float("-inf"), 1.0]]
