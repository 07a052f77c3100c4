"""Hypothesis losses: word-level edit distance and frame-level error counts.

Losses are exposed two ways: plain functions over label sequences, and
small objects binding a reference, whose one protocol method is
``loss.batch(fst, edge_ids)``: the float losses of the paths in the rows
of an edge-id matrix padded with -1.  Estimators, exact oracles and
training score paths only through it; ``loss(fst, path)`` is its one-row
view, and ``score_blocks`` scores row blocks against one loss each, bit
for bit as each loss's ``batch``, in one call.  Word-edit losses are
exact integer distances from one bit-parallel kernel run over every row
of a label matrix at once, so a batch costs numpy work per label column,
not Python work per path.  ``LOSS_KINDS`` names the two loss classes for
the CLI and training configs.  ``edge_loss_annotation`` is frame error's
additive form, per-edge terms whose path sums are the loss, at the frame
positions of ``fst.frame_depths``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, FstParseError
from .fst import EPSILON, Path, Wfst, edge_id_matrix, frame_depths, label_array


def edit_distance(hyp: Sequence[int], ref: Sequence[int]) -> int:
    """Levenshtein distance with unit substitution/insertion/deletion costs.

    Every label of ``hyp`` is a word here, epsilon included.  Exact;
    symmetric in its arguments.  One pair runs ``_EditDistances``'s
    recurrence on Python ints, each step cut to len(ref) bits, which
    costs microseconds where a kernel call costs about 0.1 ms.
    """
    masks: dict[int, int] = {}
    for j, word in enumerate(ref):
        masks[word] = masks.get(word, 0) | 1 << j
    ones = (1 << len(ref)) - 1
    pv, mv = ones, 0
    for word in hyp:
        eq = masks.get(word, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = (mv | ~(xh | pv)) << 1 | 1
        mh = (pv & xh) << 1
        pv = (mh | ~(xv | ph)) & ones
        mv = ph & xv & ones
    return len(hyp) + pv.bit_count() - mv.bit_count()


# Set bits of each byte value, to count the bits of the final vectors.
_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)])


class _EditDistances:
    """Edit distances of the rows of a label matrix to fixed references.

    Bit-parallel global-distance recurrence (Myers, JACM 1999, in the form
    of Hyyro 2001): one DP column per hypothesis word, held as vertical
    +1/-1 delta bit vectors over the reference positions.  All rows step
    together, one matrix column at a time; an entry that is not a word
    leaves its row's vectors as they were.  The match masks of every
    reference are built once, in one table indexed by (reference, word),
    and rows may carry different references.  The vectors are uint64 when
    no reference has more than 64 words, else Python-int objects run by
    the same code.  Each operation of a step carries information only
    toward higher bits, so the steps need no masking and uint64
    wrap-around is harmless; only the final vectors are cut to len(ref)
    bits, whose count gives the distance.
    """

    def __init__(self, references: Sequence[tuple[int, ...]]):
        lengths = [len(ref) for ref in references]
        dtype = np.uint64 if max(lengths, default=0) <= 64 else object
        # The references' words, sorted for searchsorted; with no word at
        # all, an epsilon column of zero masks keeps the table non-empty.
        vocab = sorted({w for ref in references for w in ref}) or [EPSILON]
        column = {w: c for c, w in enumerate(vocab)}
        # The last column is the zero mask of every other label.
        table = [[0] * (len(vocab) + 1) for _ in references]
        for masks, ref in zip(table, references):
            for j, word in enumerate(ref):
                masks[column[word]] |= 1 << j
        # The repeated last word is never equal to a label sorted past it.
        self._vocab = label_array(vocab + vocab[-1:])
        self._table = np.array(table, dtype=dtype).ravel()
        self._longest = max(lengths, default=0)
        self._ones = np.array([(1 << m) - 1 for m in lengths], dtype=dtype)

    def __call__(
        self, labels: np.ndarray, which: np.ndarray | None = None
    ) -> np.ndarray:
        """Per row of ``labels``, the int64 edit distance of its words, in
        order, to reference ``which[row]`` (reference 0 for every row when
        ``which`` is None).  The words are all entries but epsilon and -1
        padding (labels are nonnegative)."""
        words = labels > EPSILON
        num_columns = len(self._vocab)
        # Column-major, so each step reads contiguous rows.
        labels, words = labels.T, words.T
        index = np.searchsorted(self._vocab[:-1], labels)
        index[self._vocab[index] != labels] = num_columns - 1
        if which is None:
            which = np.zeros(labels.shape[1], dtype=np.intp)
        else:
            index += which * num_columns
        eqs = self._table[index]
        del index
        ones = self._ones[which]
        pv = ones.copy()
        mv = np.zeros_like(pv)
        one = pv.dtype.type(1)
        for eq, word in zip(eqs, words):
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            # Row 0 of a global distance grows by one per hypothesis word.
            ph = (mv | ~(xh | pv)) << one | one
            mh = (pv & xh) << one
            np.copyto(pv, mh | ~(xv | ph), where=word)
            np.copyto(mv, ph & xv, where=word)
        # The last column: row 0 holds the word count, and the low
        # len(ref) bits of pv and mv are its +1 and -1 steps down.
        pv &= ones
        mv &= ones
        distance = words.sum(axis=0)
        for shift in range(0, self._longest, 8):
            distance += _BYTE_BITS[(pv >> shift & 255).astype(np.intp)]
            distance -= _BYTE_BITS[(mv >> shift & 255).astype(np.intp)]
        return distance


def edge_loss_annotation(fst: Wfst, ref: Sequence[int]) -> np.ndarray:
    """Per-edge loss whose path sums equal the path's frame error, as
    ``FrameErrorLoss(ref).batch`` gives it.

    Requires a frame-synchronous transducer: every route to a given state
    consumes the same number of non-epsilon input labels (``frame_depths``),
    so each edge has a well-defined frame position.  An edge consuming
    symbol q at frame t gets loss 1 if q differs from ref[t], else 0;
    epsilon-input edges and edges leaving a state no route reaches get 0.
    Complete paths must consume exactly len(ref) frames.
    """
    num_frames = len(ref)
    depth = frame_depths(fst)
    # Only an edge consuming a frame past the last enters a deeper state.
    if (depth > num_frames).any():
        raise DimensionMismatchError(
            f"a path consumes more than {num_frames} frames"
        )
    final_frame = int(depth[fst.final])
    if final_frame not in (-1, num_frames):
        raise DimensionMismatchError(
            f"complete paths consume {final_frame} frames, "
            f"reference has {num_frames}"
        )
    frame, inputs = depth[fst.src], fst.ilabel[:-1]
    consumed = (inputs != EPSILON) & (frame >= 0)
    losses = np.zeros(fst.num_edges)
    losses[consumed] = inputs[consumed] != label_array(ref)[frame[consumed]]
    return losses


class WordEditLoss:
    """Edit distance between a path's output words and a reference transcript.

    The reference's match masks are built once, with the object; ``batch``
    is one gather of the output labels and one lockstep bit-parallel run
    over all rows, epsilons masked, so its cost grows with the rows and
    their length whether or not they repeat.  One loss object may score
    paths of any lattice.
    """

    def __init__(self, reference: Sequence[int]):
        reference = tuple(int(w) for w in reference)
        if any(w == EPSILON for w in reference):
            raise ValueError("reference transcript contains epsilon")
        self.reference = reference
        self._distances = _EditDistances([reference])

    def __call__(self, fst: Wfst, path: Path) -> float:
        return float(self.batch(fst, edge_id_matrix([path]))[0])

    def batch(self, fst: Wfst, edge_ids: np.ndarray) -> np.ndarray:
        """Losses of the paths in the rows of an edge-id matrix; the -1
        row padding reads the label array's appended epsilon."""
        return self._distances(fst.olabel[edge_ids]).astype(float)


class FrameErrorLoss:
    """Count of frames where a path's input symbol differs from an alignment."""

    def __init__(self, alignment: Sequence[int]):
        alignment = tuple(int(q) for q in alignment)
        if any(q < 1 for q in alignment):
            raise ValueError("alignment symbols must be positive")
        self.alignment = alignment

    def __call__(self, fst: Wfst, path: Path) -> float:
        return float(self.batch(fst, edge_id_matrix([path]))[0])

    def batch(self, fst: Wfst, edge_ids: np.ndarray) -> np.ndarray:
        """Losses of the paths in the rows of an edge-id matrix: one gather
        of the input labels and one comparison against the alignment."""
        return score_blocks([self], fst, edge_ids)[0]


def score_blocks(
    losses: Sequence, fst: Wfst, edge_ids: np.ndarray
) -> np.ndarray:
    """The (len(losses), rows // len(losses)) float losses of the rows of
    an edge-id matrix split into equal blocks, as ``walk_paths`` splits
    them: block d is scored bit for bit as ``losses[d].batch`` scores it.

    The losses are WordEditLoss or FrameErrorLoss objects of one class.
    Word edit is one kernel call over all the references; frame error is
    one comparison against the alignments, stacked with zero padding.
    """
    if not losses or len(edge_ids) % len(losses):
        raise ValueError(
            f"{len(edge_ids)} rows do not split into {len(losses)} "
            "equal blocks"
        )
    kinds = {type(loss) for loss in losses}
    if kinds not in ({WordEditLoss}, {FrameErrorLoss}):
        raise ValueError("losses are not WordEditLoss or FrameErrorLoss "
                         "objects of one class")
    blocks, per = len(losses), len(edge_ids) // len(losses)
    if kinds == {WordEditLoss}:
        distances = _EditDistances([loss.reference for loss in losses])
        which = np.repeat(np.arange(blocks), per)
        distance = distances(fst.olabel[edge_ids], which)
        return distance.astype(float).reshape(blocks, per)
    inputs = fst.ilabel[edge_ids]
    consumed = inputs != EPSILON
    frames = consumed.sum(axis=1)
    lengths = np.repeat([len(loss.alignment) for loss in losses], per)
    wrong = np.flatnonzero(frames != lengths)
    if wrong.size:
        raise DimensionMismatchError(
            f"path consumes {frames[wrong[0]]} frames, alignment has "
            f"{lengths[wrong[0]]}"
        )
    width = max(len(loss.alignment) for loss in losses)
    alignments = label_array([
        loss.alignment + (0,) * (width - len(loss.alignment))
        for loss in losses
    ])
    symbols = inputs[consumed]
    if symbols.size != len(inputs) * width:
        # Each row's symbols in order, then the zeros no symbol equals.
        padded = np.zeros((len(inputs), width), dtype=inputs.dtype)
        padded[np.arange(width) < lengths[:, None]] = symbols
        symbols = padded
    symbols = symbols.reshape(blocks, per, width)
    return (symbols != alignments[:, None]).sum(axis=2).astype(float)


# The loss classes by the names of the CLI's --loss and a config's loss.
LOSS_KINDS = {"word-edit": WordEditLoss, "frame-error": FrameErrorLoss}


def parse_label_sequence(text: str) -> tuple[int, ...]:
    """Whitespace-separated label ids (transcript or alignment file body)."""
    labels: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        for token in raw.split():
            try:
                value = int(token)
            except ValueError:
                raise FstParseError(
                    f"malformed label {token!r}", lineno
                ) from None
            if value < 1:
                raise FstParseError(
                    f"label {value} is not a positive id", lineno
                )
            labels.append(value)
    return tuple(labels)

