"""Transducer data model, path semantics, text I/O, and normalization."""

import math

import numpy as np
import pytest

from sampled_mbr import (
    Edge,
    Path,
    Wfst,
    CyclicFstError,
    DegenerateLatticeError,
    FstParseError,
    InvalidFstError,
    PathOverflowError,
    count_paths,
    empty_wfst,
    enumerate_paths,
    format_fst_text,
    is_acyclic,
    parse_fst_text,
    path_distribution,
    path_input_labels,
    path_output_labels,
    topological_order,
)
from sampled_mbr import fst as fst_module
from sampled_mbr.fst import distinct_rows, edge_lists, out_edge_groups
from helpers import (
    InvalidPathError,
    make_path,
    path_log_weight,
    random_acyclic_wfst,
    reference_distinct_rows,
    two_path_fixture,
)


# ---------------------------------------------------------------------------
# Construction invariants
# ---------------------------------------------------------------------------


def test_constructor_rejects_bad_references():
    with pytest.raises(InvalidFstError):
        Wfst(2, [Edge(0, 5, 1, 1, 0.0)], final=1)
    with pytest.raises(InvalidFstError):
        Wfst(2, [Edge(0, 1, -1, 1, 0.0)], final=1)
    with pytest.raises(InvalidFstError):
        Wfst(2, [Edge(0, 1, 1, 1, float("nan"))], final=1)
    with pytest.raises(InvalidFstError):
        Wfst(2, [Edge(0, 1, 1, 1, float("inf"))], final=1)
    with pytest.raises(InvalidFstError):
        Wfst(2, [], final=7)


@pytest.mark.parametrize("num_states", [0, 2**62, 2**64])
def test_constructor_rejects_state_counts_no_state_array_can_hold(num_states):
    # No array is allocated: the count is checked first.
    with pytest.raises(InvalidFstError, match="num_states .* out of range"):
        Wfst(num_states, [], final=0)


def test_constructor_rejects_edges_leaving_final():
    with pytest.raises(InvalidFstError):
        Wfst(2, [Edge(1, 0, 1, 1, 0.0)], final=1)


def test_constructor_names_the_lowest_bad_edge_by_its_first_failed_check():
    # Edge 1 fails the label and the weight checks, edges 2 to 4 fail one
    # check each, and labels past int64 are stored as objects.
    edges = [
        Edge(0, 1, 2**70, 1, 0.0),
        Edge(0, 1, -(2**70), 1, math.nan),
        Edge(0, 2**70, 1, 1, 0.0),
        Edge(0, 1, 1, 1, math.inf),
        Edge(2, 1, 1, 1, 0.0),
    ]
    for first, message in [
        (1, "has a negative label"),
        (2, "references an unknown state"),
        (3, "has an invalid log-weight"),
        (4, "leaves the final state"),
    ]:
        with pytest.raises(InvalidFstError) as err:
            Wfst(3, edges[first:] + edges[:first], final=2)
        assert str(err.value) == f"edge 0 {message}"
        with pytest.raises(InvalidFstError) as err:
            Wfst(3, edges[:1] + edges[first:], final=2)
        assert str(err.value) == f"edge 1 {message}"


def test_with_weights_rejects_bad_vectors_as_the_constructor_does():
    edges = [
        Edge(0, 1, 1, 1, 0.0), Edge(0, 1, 2, 2, 0.0), Edge(1, 2, 3, 3, 0.0)
    ]
    fst = Wfst(3, edges, final=2)
    for bad in ([0.0, 0.0], np.zeros(4), np.zeros((1, 3)), 0.0):
        with pytest.raises(InvalidFstError, match="^expected 3 log-weights"):
            fst.with_weights(bad)
    for weights, first in [
        ([0.0, math.nan, math.inf], 1),
        ([-math.inf, math.inf, math.nan], 1),
        ([0.0, 0.0, math.nan], 2),
    ]:
        with pytest.raises(InvalidFstError) as copied:
            fst.with_weights(weights)
        with pytest.raises(InvalidFstError) as built:
            Wfst(3, [
                Edge(e.src, e.dst, e.ilabel, e.olabel, w)
                for e, w in zip(edges, weights)
            ], final=2)
        assert str(copied.value) == str(built.value)
        assert str(copied.value) == f"edge {first} has an invalid log-weight"
    copy = fst.with_weights([-math.inf, 0.0, 1.0])
    assert [e.log_weight for e in copy.edges] == [-math.inf, 0.0, 1.0]


def test_edges_are_cached_and_not_shared_by_reweighted_copies():
    # The Edge views carry the weights, so each copy builds its own,
    # whether it was made before or after its source built them.
    fst = Wfst(
        3,
        [Edge(0, 1, 1, 1, 0.0), Edge(0, 1, 2, 2, -1.5), Edge(1, 2, 3, 3, 0.5)],
        final=2,
    )
    early = fst.with_weights([1.0, 2.0, 3.0])
    edges = fst.edges
    assert fst.edges is edges
    late = fst.with_weights([-math.inf, 0.0, 1.0])
    for copy, weights in (
        (early, [1.0, 2.0, 3.0]), (late, [-math.inf, 0.0, 1.0])
    ):
        assert copy.edges is copy.edges and copy.edges is not edges
        assert [e.log_weight for e in copy.edges] == weights
    assert [e.log_weight for e in fst.edges] == [0.0, -1.5, 0.5]


def test_equal_transducers_hash_equal_whatever_their_store():
    # run_experiment keys its topologies by decoder graph: graphs equal
    # edge for edge must be one key, with -0.0 equal to 0.0 and labels
    # past int64 compared by value.
    edges = [
        Edge(0, 1, 1, 2**70, 0.0),
        Edge(0, 1, 2, 2, -1.5),
        Edge(1, 2, 3, 0, -math.inf),
    ]
    fst = Wfst(3, edges, final=2)
    weights = [e.log_weight for e in edges]
    equal = [
        Wfst(3, [Edge(0, 1, 1, 2**70, -0.0)] + edges[1:], final=2),
        fst.with_weights(weights),
        fst.with_weights([-0.0] + weights[1:]),
        parse_fst_text(format_fst_text(fst)),
    ]
    for other in equal:
        assert other == fst and fst == other
        assert hash(other) == hash(fst)
    assert {fst: "graph"}[equal[2]] == "graph"
    for other in (
        fst.with_weights([0.0, -1.5, 0.0]),
        Wfst(3, edges[:2] + [Edge(1, 2, 3, 1, -math.inf)], final=2),
        Wfst(4, edges, final=2),
        Wfst(3, edges[:2], final=2),
    ):
        assert other != fst


def test_minus_inf_weight_is_legal():
    fst = Wfst(2, [Edge(0, 1, 1, 1, float("-inf"))], final=1)
    assert fst.edges[0].log_weight == float("-inf")


def test_out_edges_follow_edge_id_order():
    fst = Wfst(
        3,
        [Edge(0, 1, 1, 1, 0.0), Edge(0, 2, 2, 2, 0.0), Edge(1, 2, 3, 3, 0.0)],
        final=2,
    )
    assert fst.out_edge_ids(0) == (0, 1)
    assert fst.out_edge_ids(1) == (2,)
    assert fst.out_edge_ids(2) == ()
    # The reference oracles in tests/helpers.py read out_edge_ids, so it
    # slices the arrays itself and never reads the kernels' list view.
    assert "edge_lists" not in fst._structure
    assert edge_lists(fst)[0] == [[0, 1], [2], []]


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def test_parse_single_edge():
    fst = parse_fst_text("0 1 1 1 0.0\n1")
    assert fst.num_states == 2
    assert fst.num_edges == 1
    assert fst.edges[0].log_weight == 0.0
    assert fst.final == 1


def test_parse_two_parallel_edges_linear_weights():
    fst = parse_fst_text("0 1 1 2 -0.693147\n0 1 2 3 -1.203973\n1")
    assert math.isclose(math.exp(fst.edges[0].log_weight), 0.5, abs_tol=1e-6)
    assert math.isclose(math.exp(fst.edges[1].log_weight), 0.3, abs_tol=1e-6)


def test_parse_rejects_multiple_finals():
    with pytest.raises(FstParseError):
        parse_fst_text("0 1 1 1 0.0\n0 2 1 1 0.0\n1\n2")


def test_parse_rejects_missing_final():
    with pytest.raises(FstParseError):
        parse_fst_text("0 1 1 1 0.0\n")


def test_parse_rejects_malformed_lines():
    with pytest.raises(FstParseError) as err:
        parse_fst_text("0 1 1 1\n1")
    assert "line 1" in str(err.value)
    with pytest.raises(FstParseError):
        parse_fst_text("0 x 1 1 0.0\n1")
    with pytest.raises(FstParseError):
        parse_fst_text("0 -2 1 1 0.0\n1")
    with pytest.raises(FstParseError):
        parse_fst_text("0 1 1 1 nan\n1")
    with pytest.raises(FstParseError):
        parse_fst_text("0 1 1 1 inf\n1")


def test_parse_rejects_edge_leaving_final():
    with pytest.raises(FstParseError):
        parse_fst_text("0 1 1 1 0.0\n1 0 1 1 0.0\n1")


def test_parse_accepts_minus_inf_and_blank_lines():
    fst = parse_fst_text("\n0 1 1 1 -inf\n\n1\n")
    assert fst.edges[0].log_weight == float("-inf")


def test_round_trip_bit_equality(monkeypatch):
    # Valid text is parsed by column alone, never read line by line.
    def unused(text):
        raise AssertionError("valid text reached the bad-line locator")

    monkeypatch.setattr(fst_module, "_raise_first_bad_line", unused)
    rng = np.random.default_rng(101)
    for _ in range(20):
        fst = random_acyclic_wfst(rng, max_states=12)
        again = parse_fst_text(format_fst_text(fst))
        assert again == fst
        assert parse_fst_text(format_fst_text(again)) == again


# ---------------------------------------------------------------------------
# Path semantics
# ---------------------------------------------------------------------------


def test_path_log_weight_single_edge():
    fst = parse_fst_text("0 1 1 1 0.0\n1")
    assert path_log_weight(fst, make_path(fst, [0])) == 0.0


def test_path_log_weight_chained_product():
    fst = Wfst(
        3,
        [Edge(0, 1, 1, 1, math.log(2)), Edge(1, 2, 1, 1, math.log(3))],
        final=2,
    )
    path = make_path(fst, [0, 1])
    assert math.isclose(path.log_weight, math.log(6), rel_tol=1e-12)
    assert path.log_weight == math.log(2) + math.log(3)


def test_empty_path_weight_when_initial_is_final():
    fst = Wfst(1, [], final=0)
    assert path_log_weight(fst, Path((), 0.0)) == 0.0


def test_empty_path_rejected_otherwise():
    fst = parse_fst_text("0 1 1 1 0.0\n1")
    with pytest.raises(InvalidPathError):
        path_log_weight(fst, Path((), 0.0))


def test_non_incident_path_rejected():
    fst = Wfst(
        3,
        [Edge(0, 1, 1, 1, 0.0), Edge(0, 2, 1, 1, 0.0)],
        final=2,
    )
    with pytest.raises(InvalidPathError):
        make_path(fst, [0, 1])
    with pytest.raises(InvalidPathError):
        make_path(fst, [0])  # ends at 1, not final
    with pytest.raises(InvalidPathError):
        make_path(fst, [5])


def test_output_projection_drops_epsilon():
    fst = Wfst(
        4,
        [
            Edge(0, 1, 1, 5, 0.0),
            Edge(1, 2, 1, 0, 0.0),
            Edge(2, 3, 1, 7, 0.0),
        ],
        final=3,
    )
    path = make_path(fst, [0, 1, 2])
    assert path_output_labels(fst, path) == (5, 7)
    assert path_input_labels(fst, path) == (1, 1, 1)


def test_output_projection_all_epsilon_and_duplicates():
    fst = Wfst(
        3,
        [Edge(0, 1, 1, 0, 0.0), Edge(1, 2, 1, 0, 0.0)],
        final=2,
    )
    assert path_output_labels(fst, make_path(fst, [0, 1])) == ()
    dup = Wfst(
        3,
        [Edge(0, 1, 1, 3, 0.0), Edge(1, 2, 1, 3, 0.0)],
        final=2,
    )
    assert path_output_labels(dup, make_path(dup, [0, 1])) == (3, 3)


def _check_distinct_rows(matrix):
    distinct, inverse = distinct_rows(matrix)
    expected, expected_inverse = reference_distinct_rows(matrix)
    assert distinct.tobytes() == expected.tobytes()
    assert inverse.tobytes() == expected_inverse.tobytes()
    assert distinct.dtype == matrix.dtype
    assert distinct.shape[1:] == matrix.shape[1:]
    assert inverse.shape == (len(matrix),)
    assert np.array_equal(distinct[inverse], matrix)
    rows = [tuple(row) for row in distinct.tolist()]
    assert len(set(rows)) == len(rows)
    # First-appearance order: row i's first occurrence precedes row i + 1's.
    firsts = [int(np.argmax(inverse == i)) for i in range(len(rows))]
    assert firsts == sorted(firsts)
    return rows, inverse.tolist()


@pytest.mark.parametrize("shape", [(0, 3), (0, 0), (4, 0), (1, 0)])
def test_distinct_rows_of_empty_matrices(shape):
    rows, inverse = _check_distinct_rows(np.zeros(shape, dtype=np.intp))
    # Zero-width rows are all the one empty row.
    assert rows == ([()] if shape[0] and not shape[1] else [])
    assert inverse == [0] * shape[0]


def test_distinct_rows_tell_padding_apart():
    matrix = np.array(
        [[3, -1, -1], [3, 0, -1], [3, -1, -1], [3, 0, 0], [3, 0, -1]],
        dtype=np.intp,
    )
    rows, inverse = _check_distinct_rows(matrix)
    assert rows == [(3, -1, -1), (3, 0, -1), (3, 0, 0)]
    assert inverse == [0, 1, 0, 2, 1]


def test_distinct_rows_of_random_matrices():
    rng = np.random.default_rng(18)
    for _ in range(50):
        shape = tuple(int(n) for n in rng.integers(0, 7, size=2))
        matrix = rng.integers(-1, 3, size=shape).astype(np.intp)
        # A non-contiguous view must give the same rows as its copy.
        view = np.repeat(matrix, 2, axis=1)[:, ::2]
        assert _check_distinct_rows(view) == _check_distinct_rows(matrix)


def test_distinct_rows_of_long_peaked_rows():
    # 100 columns of a 14,000-edge range, mostly one path: every pass packs
    # a few columns, and the rows become distinct only near the end.
    rng = np.random.default_rng(21)
    usual = np.arange(100) * 140
    matrix = np.where(
        rng.random((300, 100)) < 0.99, usual, rng.integers(0, 14_000, (300, 100))
    )
    rows, _ = _check_distinct_rows(matrix)
    assert 1 < len(rows) < 300


def test_distinct_rows_rejects_entries_too_far_apart_to_rank():
    # Rows times the span of the entries must stay within 2^63.
    matrix = np.array([[0], [(1 << 62) - 1], [1]], dtype=np.int64)
    with pytest.raises(ValueError, match="too wide a range"):
        distinct_rows(matrix)
    rows, inverse = distinct_rows(matrix[:2])
    assert rows.tolist() == [[0], [(1 << 62) - 1]]
    assert inverse.tolist() == [0, 1]


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def test_enumerate_linear_chain():
    fst = Wfst(
        3,
        [Edge(0, 1, 1, 1, 0.0), Edge(1, 2, 2, 2, 0.0)],
        final=2,
    )
    paths = enumerate_paths(fst, 10)
    assert len(paths) == 1
    assert paths[0].edges == (0, 1)


def test_enumerate_two_by_two_grid():
    fst = Wfst(
        3,
        [
            Edge(0, 1, 1, 1, 0.0),
            Edge(0, 1, 2, 2, 0.0),
            Edge(1, 2, 1, 1, 0.0),
            Edge(1, 2, 2, 2, 0.0),
        ],
        final=2,
    )
    paths = enumerate_paths(fst, 10)
    assert [p.edges for p in paths] == [(0, 2), (0, 3), (1, 2), (1, 3)]


def test_enumerate_overflow_on_diamond():
    fst = Wfst(
        4,
        [
            Edge(0, 1, 1, 1, 0.0),
            Edge(0, 2, 1, 1, 0.0),
            Edge(1, 3, 1, 1, 0.0),
            Edge(2, 3, 1, 1, 0.0),
        ],
        final=3,
    )
    with pytest.raises(PathOverflowError):
        enumerate_paths(fst, 1)
    assert len(enumerate_paths(fst, 2)) == 2


def test_enumerate_rejects_cycles():
    fst = Wfst(
        2,
        [Edge(0, 0, 1, 1, 0.0), Edge(0, 1, 1, 1, 0.0)],
        final=1,
    )
    with pytest.raises(CyclicFstError):
        enumerate_paths(fst, 10)
    assert not is_acyclic(fst)
    with pytest.raises(CyclicFstError):
        topological_order(fst)


def test_topological_order_is_computed_once():
    rng = np.random.default_rng(3)
    for _ in range(10):
        fst = random_acyclic_wfst(rng)
        order = topological_order(fst)
        position = {q: i for i, q in enumerate(order)}
        assert sorted(order) == list(range(fst.num_states))
        assert all(position[e.src] < position[e.dst] for e in fst.edges)
        assert topological_order(fst) is order


def test_out_edge_groups_are_built_once_and_shared_by_copies():
    rng = np.random.default_rng(4)
    for _ in range(10):
        fst = random_acyclic_wfst(rng)
        groups = out_edge_groups(fst)
        assert out_edge_groups(fst) is groups
        assert out_edge_groups(fst.with_weights(fst.log_weight)) is groups
        src_at, dst_at, by_degree = groups
        assert src_at.tolist() == fst.src[fst.out_ids].tolist()
        assert dst_at.tolist() == fst.dst[fst.out_ids].tolist()
        # Every state with out-edges once, its positions in out_ids order.
        degrees = [positions.shape[1] for _, positions in by_degree]
        assert degrees == sorted(set(degrees)) and 0 not in degrees
        rows = {}
        for states, positions in by_degree:
            rows.update(zip(states.tolist(), positions.tolist()))
        assert rows == {
            q: list(range(fst.first_out[q], fst.first_out[q + 1]))
            for q in range(fst.num_states) if fst.out_edge_ids(q)
        }
    # A copy made before the groups are built shares them too.
    fst = random_acyclic_wfst(rng)
    copy = fst.with_weights(fst.log_weight)
    assert out_edge_groups(copy) is out_edge_groups(fst)


def test_enumeration_matches_brute_force_recount():
    rng = np.random.default_rng(77)
    for _ in range(30):
        fst = random_acyclic_wfst(rng, max_states=8)
        if fst.num_edges > 12:
            continue
        paths = enumerate_paths(fst, 100_000)
        assert len(paths) == _dfs_count(fst, fst.initial)
        assert count_paths(fst) == len(paths)
        # every enumerated path is valid and weights are exact edge sums
        for p in paths:
            assert path_log_weight(fst, p) == p.log_weight


def _dfs_count(fst, state):
    if state == fst.final:
        return 1
    return sum(_dfs_count(fst, fst.edges[k].dst) for k in fst.out_edge_ids(state))


# ---------------------------------------------------------------------------
# Normalized distributions
# ---------------------------------------------------------------------------


def test_distribution_single_path():
    fst = parse_fst_text("0 1 1 9 -0.5\n1")
    assert path_distribution(fst) == {(9,): 1.0}


def test_distribution_two_parallel_edges():
    dist = path_distribution(two_path_fixture())
    assert math.isclose(dist[(1,)], 0.4, abs_tol=1e-12)
    assert math.isclose(dist[(2,)], 0.6, abs_tol=1e-12)


def test_distribution_merges_equal_word_sequences():
    fst = Wfst(
        2,
        [
            Edge(0, 1, 1, 4, 0.0),
            Edge(0, 1, 2, 4, 0.0),
            Edge(0, 1, 3, 8, math.log(2)),
        ],
        final=1,
    )
    dist = path_distribution(fst)
    assert math.isclose(dist[(4,)], 0.5, abs_tol=1e-12)
    assert math.isclose(dist[(8,)], 0.5, abs_tol=1e-12)


def test_distribution_sums_to_one_on_random_fsts():
    rng = np.random.default_rng(5)
    for _ in range(25):
        fst = random_acyclic_wfst(rng, max_states=10)
        try:
            dist = path_distribution(fst)
        except DegenerateLatticeError:
            continue
        total = sum(dist.values())
        assert abs(total - 1.0) <= 1e-12
        assert all(p >= 0 for p in dist.values())


def test_distribution_degenerate_when_all_weights_zero():
    fst = Wfst(2, [Edge(0, 1, 1, 1, float("-inf"))], final=1)
    with pytest.raises(DegenerateLatticeError):
        path_distribution(fst)
    with pytest.raises(DegenerateLatticeError):
        path_distribution(empty_wfst())


def test_empty_wfst_shape():
    fst = empty_wfst()
    assert fst.num_states == 2
    assert fst.num_edges == 0
    assert count_paths(fst) == 0
