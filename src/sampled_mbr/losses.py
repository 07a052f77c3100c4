"""Hypothesis losses: word-level edit distance and frame-level error counts.

Losses are exposed two ways: plain functions over label sequences, and
small objects binding a reference, whose one protocol method is
``loss.batch(fst, edge_ids)``: the float losses of the paths in the rows
of an edge-id matrix padded with -1.  Estimators, exact oracles and
training score paths only through it; ``loss(fst, path)`` is its one-row
view.  ``edge_loss_annotation`` is frame error's additive form, per-edge
terms whose path sums are the loss, at the frame positions of
``fst.frame_depths``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, FstParseError
from .fst import EPSILON, Path, Wfst, edge_id_matrix, frame_depths, label_array


def edit_distance(hyp: Sequence[int], ref: Sequence[int]) -> int:
    """Levenshtein distance with unit substitution/insertion/deletion costs.

    Bit-parallel global-distance recurrence (Myers, JACM 1999, in the form
    of Hyyro 2001): one column of the DP per hypothesis word, held as
    vertical +1/-1 delta bit vectors over the reference words, so each
    step is a few integer operations on len(ref)-bit Python ints and long
    references need no blocking.  Exact; symmetric in its arguments.
    """
    return _distance(hyp, _match_masks(ref), len(ref))


def _match_masks(ref: Sequence[int]) -> dict[int, int]:
    """Per word, the bit vector of the reference positions holding it."""
    peq: dict[int, int] = {}
    for j, word in enumerate(ref):
        peq[word] = peq.get(word, 0) | (1 << j)
    return peq


def _distance(hyp: Sequence[int], peq: dict[int, int], m: int) -> int:
    """Edit distance of ``hyp`` to the length-``m`` reference behind ``peq``."""
    if m == 0:
        return len(hyp)
    mask = (1 << m) - 1
    top = 1 << (m - 1)
    pv, mv, score = mask, 0, m
    for word in hyp:
        eq = peq.get(word, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        # Row 0 of a global distance grows by one per hypothesis word.
        ph = (ph << 1) | 1
        mh <<= 1
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
    return score


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

    The reference's match masks are built once, and each distinct output
    word tuple is scored once: ``of_words`` memoizes the distance per tuple
    for the life of the object, and ``batch`` per row of output labels,
    epsilons included, in the same memo.  The keys are labels alone, so
    one loss object may score paths of any lattice.  The CLI and training
    make one loss per command, step or dev utterance, which bounds the
    memo by the hypotheses those draw or enumerate.
    """

    def __init__(self, reference: Sequence[int]):
        reference = tuple(int(w) for w in reference)
        if any(w == EPSILON for w in reference):
            raise ValueError("reference transcript contains epsilon")
        self.reference = reference
        self._peq = _match_masks(reference)
        self._memo: dict[tuple[int, ...], float] = {}

    def __call__(self, fst: Wfst, path: Path) -> float:
        return float(self.batch(fst, edge_id_matrix([path]))[0])

    def of_words(self, words: tuple[int, ...]) -> float:
        """Edit distance of an output-word tuple to the reference."""
        value = self._memo.get(words)
        if value is None:
            value = float(_distance(words, self._peq, len(self.reference)))
            self._memo[words] = value
        return value

    def batch(self, fst: Wfst, edge_ids: np.ndarray) -> np.ndarray:
        """Losses of the paths in the rows of an edge-id matrix.

        The output labels are one gather, and the memo key is the gathered
        row; a row with no epsilon is its own word tuple, so both kinds of
        key give the same value.
        """
        memo, peq, m = self._memo, self._peq, len(self.reference)
        values = []
        for row in fst.olabel[edge_ids].tolist():
            key = tuple(row)
            value = memo.get(key)
            if value is None:
                words = [w for w in row if w != EPSILON]
                value = memo[key] = float(_distance(words, peq, m))
            values.append(value)
        return np.array(values)


class FrameErrorLoss:
    """Count of frames where a path's input symbol differs from an alignment."""

    def __init__(self, alignment: Sequence[int]):
        alignment = tuple(int(q) for q in alignment)
        if any(q < 1 for q in alignment):
            raise ValueError("alignment symbols must be positive")
        self.alignment = alignment
        self._alignment = label_array(alignment)

    def __call__(self, fst: Wfst, path: Path) -> float:
        return float(self.batch(fst, edge_id_matrix([path]))[0])

    def batch(self, fst: Wfst, edge_ids: np.ndarray) -> np.ndarray:
        """Losses of the paths in the rows of an edge-id matrix: one gather
        of the input labels and one comparison against the alignment."""
        inputs = fst.ilabel[edge_ids]
        consumed = inputs != EPSILON
        frames = consumed.sum(axis=1)
        wrong = np.flatnonzero(frames != len(self.alignment))
        if wrong.size:
            raise DimensionMismatchError(
                f"path consumes {frames[wrong[0]]} frames, alignment has "
                f"{len(self.alignment)}"
            )
        symbols = inputs[consumed].reshape(len(inputs), len(self.alignment))
        return (symbols != self._alignment).sum(axis=1).astype(float)


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

