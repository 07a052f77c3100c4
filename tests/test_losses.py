"""Edit distance, per-edge loss annotation, and loss callables."""

import math

import numpy as np
import pytest

from sampled_mbr import (
    DimensionMismatchError,
    Edge,
    FrameErrorLoss,
    FstParseError,
    Path,
    UnsupportedTopologyError,
    Wfst,
    WordEditLoss,
    build_score_fst,
    compose,
    edge_loss_annotation,
    edit_distance,
    enumerate_paths,
    parse_label_sequence,
)
from sampled_mbr.fst import edge_id_matrix, frame_depths
from helpers import (
    ShiftedLoss,
    format_label_sequence,
    make_path,
    word_chain_decoder,
)


# ---------------------------------------------------------------------------
# Edit distance
# ---------------------------------------------------------------------------


def test_edit_distance_identity():
    assert edit_distance((1, 2, 3), (1, 2, 3)) == 0
    assert edit_distance((), ()) == 0


def test_edit_distance_counts_label_zero_as_a_word():
    # Only WordEditLoss reads label 0 as epsilon; the plain function
    # compares whatever labels it is given.
    assert edit_distance((0, 1), (1,)) == 1
    assert edit_distance((1,), (0, 1)) == 1


def test_edit_distance_pure_insertions():
    assert edit_distance((), (1, 2)) == 2
    assert edit_distance((1, 2), ()) == 2


def test_edit_distance_classic_pair():
    # k i t t e n -> s i t t i n g over a letter alphabet
    kitten = (11, 9, 20, 20, 5, 14)
    sitting = (19, 9, 20, 20, 9, 14, 7)
    assert edit_distance(kitten, sitting) == 3
    assert edit_distance(sitting, kitten) == 3


def test_edit_distance_metric_properties():
    rng = np.random.default_rng(211)
    for _ in range(200):
        x = tuple(rng.integers(1, 4, size=rng.integers(0, 6)))
        y = tuple(rng.integers(1, 4, size=rng.integers(0, 6)))
        z = tuple(rng.integers(1, 4, size=rng.integers(0, 6)))
        dxy = edit_distance(x, y)
        assert dxy == edit_distance(y, x)
        assert (dxy == 0) == (x == y)
        assert abs(len(x) - len(y)) <= dxy <= max(len(x), len(y))
        assert dxy <= edit_distance(x, z) + edit_distance(z, y)


def test_edit_distance_agrees_with_recursive_oracle_small():
    seqs = _all_sequences((1, 2, 3), 3)
    for x in seqs:
        for y in seqs:
            assert edit_distance(x, y) == _oracle(x, y)


def _all_sequences(tokens, max_len):
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [s + (t,) for s in frontier for t in tokens]
        out += frontier
    return out


def _oracle(x, y, memo=None):
    if memo is None:
        memo = {}
    key = (x, y)
    if key in memo:
        return memo[key]
    if not x:
        result = len(y)
    elif not y:
        result = len(x)
    else:
        result = min(
            _oracle(x[1:], y, memo) + 1,
            _oracle(x, y[1:], memo) + 1,
            _oracle(x[1:], y[1:], memo) + (x[0] != y[0]),
        )
    memo[key] = result
    return result


# ---------------------------------------------------------------------------
# Edge annotation
# ---------------------------------------------------------------------------


def test_annotation_zero_when_all_edges_match():
    fst = Wfst(
        3,
        [Edge(0, 1, 1, 1, 0.0), Edge(1, 2, 2, 2, 0.0)],
        final=2,
    )
    assert edge_loss_annotation(fst, (1, 2)).tolist() == [0.0, 0.0]


def test_annotation_single_frame_sausage():
    fst = build_score_fst(np.zeros((1, 2)))
    assert edge_loss_annotation(fst, (1,)).tolist() == [0.0, 1.0]


def test_annotation_sums_match_frame_error_per_path():
    rng = np.random.default_rng(37)
    z = rng.normal(size=(4, 3))
    fst = build_score_fst(z)
    ref = tuple(int(q) for q in rng.integers(1, 4, size=4))
    costs = edge_loss_annotation(fst, ref)
    loss = FrameErrorLoss(ref)
    for path in enumerate_paths(fst, 200):
        total = sum(costs[k] for k in path.edges)
        assert total == loss(fst, path)


def test_annotation_gives_zero_to_epsilon_edges():
    fst = Wfst(
        4,
        [
            Edge(0, 1, 1, 1, 0.0),
            Edge(1, 2, 0, 9, -0.5),
            Edge(2, 3, 2, 2, 0.0),
        ],
        final=3,
    )
    costs = edge_loss_annotation(fst, (2, 2))
    assert costs.tolist() == [1.0, 0.0, 0.0]


def test_annotation_rejects_frame_ambiguity():
    # state 1 is reachable after one frame (directly) or two (via state 2)
    fst = Wfst(
        4,
        [
            Edge(0, 1, 1, 1, 0.0),
            Edge(0, 2, 1, 1, 0.0),
            Edge(2, 1, 2, 2, 0.0),
            Edge(1, 3, 1, 1, 0.0),
        ],
        final=3,
    )
    with pytest.raises(UnsupportedTopologyError):
        edge_loss_annotation(fst, (1, 2, 1))


def test_annotation_gives_zero_to_edges_leaving_unreachable_states():
    # State 2 has no route from the start.  Its epsilon edge into state 1,
    # at depth 0, would make state 1 ambiguous, and its edges would
    # mismatch the reference, if state 2 were reachable.
    fst = Wfst(
        4,
        [
            Edge(0, 1, 1, 1, 0.0),
            Edge(1, 3, 3, 3, 0.0),
            Edge(2, 1, 0, 0, 0.0),
            Edge(2, 3, 5, 5, 0.0),
        ],
        final=3,
    )
    assert frame_depths(fst).tolist() == [0, 1, -1, 2]
    assert edge_loss_annotation(fst, (1, 2)).tolist() == [0.0, 1.0, 0.0, 0.0]


def test_annotation_rejects_wrong_frame_totals():
    fst = build_score_fst(np.zeros((3, 2)))
    with pytest.raises(DimensionMismatchError):
        edge_loss_annotation(fst, (1, 2))
    with pytest.raises(DimensionMismatchError):
        edge_loss_annotation(fst, (1, 2, 1, 1))


# ---------------------------------------------------------------------------
# Loss callables and reference files
# ---------------------------------------------------------------------------


def test_word_edit_loss_scores_paths():
    fst = Wfst(
        3,
        [Edge(0, 1, 1, 5, 0.0), Edge(1, 2, 2, 7, 0.0)],
        final=2,
    )
    path = make_path(fst, [0, 1])
    assert WordEditLoss((5, 7))(fst, path) == 0.0
    assert WordEditLoss((5,))(fst, path) == 1.0
    assert WordEditLoss(())(fst, path) == 2.0


def test_word_edit_loss_rejects_epsilon_reference():
    with pytest.raises(ValueError):
        WordEditLoss((1, 0, 2))


def test_frame_error_loss_scores_paths():
    fst = Wfst(
        3,
        [Edge(0, 1, 1, 1, 0.0), Edge(1, 2, 2, 2, 0.0)],
        final=2,
    )
    path = make_path(fst, [0, 1])
    assert FrameErrorLoss((1, 2))(fst, path) == 0.0
    assert FrameErrorLoss((2, 2))(fst, path) == 1.0
    with pytest.raises(DimensionMismatchError):
        FrameErrorLoss((1, 2, 1))(fst, path)
    with pytest.raises(ValueError):
        FrameErrorLoss((0, 1))


def _outcome(score):
    """A scoring call's value, or the type and message of its error."""
    try:
        return score()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "loss", [WordEditLoss((1, 2)), FrameErrorLoss((1, 3, 2))],
    ids=["word-edit", "frame-error"],
)
def test_loss_call_is_the_one_row_batch(loss):
    # Symbol 3 outputs epsilon, so rows hold epsilons between words.
    z = np.random.default_rng(2).normal(size=(3, 3))
    fst = compose(build_score_fst(z), word_chain_decoder(3, 3, 2))
    paths = enumerate_paths(fst, 100)
    values = [loss(fst, path) for path in paths]
    assert all(type(v) is float for v in values)
    assert values == loss.batch(fst, edge_id_matrix(paths)).tolist()
    # A path one frame short, and one through an edge id past the store.
    for edges in (paths[0].edges[:-1], (fst.num_edges + 1,)):
        path = Path(edges, 0.0)
        one_row = _outcome(lambda: loss.batch(fst, edge_id_matrix([path]))[0])
        assert _outcome(lambda: loss(fst, path)) == one_row
    assert type(_outcome(lambda: loss(fst, path))) is tuple


def test_shifted_loss_adds_offset():
    fst = Wfst(2, [Edge(0, 1, 1, 5, 0.0)], final=1)
    path = make_path(fst, [0])
    base = WordEditLoss((5,))
    assert ShiftedLoss(base, 7.5)(fst, path) == 7.5
    assert ShiftedLoss(base, -3.0)(fst, path) == -3.0


def test_parse_label_sequence():
    assert parse_label_sequence("1 2 3\n") == (1, 2, 3)
    assert parse_label_sequence("4\n5 6\n") == (4, 5, 6)
    assert parse_label_sequence("") == ()
    assert parse_label_sequence(format_label_sequence((9, 8))) == (9, 8)
    with pytest.raises(FstParseError):
        parse_label_sequence("1 x 3")
    with pytest.raises(FstParseError):
        parse_label_sequence("0 1")
