"""Hypothesis losses: word-level edit distance and frame-level error counts.

Losses are exposed two ways: plain functions over label sequences, and
small callable objects binding a reference so estimators can score paths
uniformly via ``loss(fst, path)``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    FstParseError,
    UnsupportedTopologyError,
)
from .fst import (
    EPSILON,
    Path,
    Wfst,
    path_input_labels,
    path_output_labels,
    topological_order,
)


def edit_distance(hyp: Sequence[int], ref: Sequence[int]) -> int:
    """Levenshtein distance with unit substitution/insertion/deletion costs.

    Two-row dynamic program, O(len(hyp)*len(ref)) time and O(len(ref))
    memory.  Symmetric in its arguments.
    """
    if not ref:
        return len(hyp)
    prev = list(range(len(ref) + 1))
    for i, h in enumerate(hyp, 1):
        cur = [i] + [0] * len(ref)
        for j, r in enumerate(ref, 1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (h != r),
            )
        prev = cur
    return prev[-1]


def edge_loss_annotation(fst: Wfst, ref: Sequence[int]) -> np.ndarray:
    """Per-edge loss whose path sums equal the path's frame error.

    Requires a frame-synchronous transducer: every route to a given state
    consumes the same number of non-epsilon input labels, so each edge has
    a well-defined frame position.  An edge consuming symbol q at frame t
    gets loss 1 if q differs from ref[t], else 0; epsilon-input edges get
    0.  Complete paths must consume exactly len(ref) frames.
    """
    num_frames = len(ref)
    frame_at: list[int | None] = [None] * fst.num_states
    frame_at[fst.initial] = 0
    losses = np.zeros(fst.num_edges)
    # Edges are examined in an order where every source state has already
    # received its frame index from some incoming route (or is unreachable).
    for q in topological_order(fst):
        t = frame_at[q]
        if t is None:
            continue
        for k in fst.out_edge_ids(q):
            e = fst.edges[k]
            if e.ilabel == EPSILON:
                advanced = t
            else:
                if t >= num_frames:
                    raise DimensionMismatchError(
                        f"a path consumes more than {num_frames} frames"
                    )
                losses[k] = 0.0 if e.ilabel == ref[t] else 1.0
                advanced = t + 1
            seen = frame_at[e.dst]
            if seen is None:
                frame_at[e.dst] = advanced
            elif seen != advanced:
                raise UnsupportedTopologyError(
                    f"state {e.dst} is reachable at frame depths "
                    f"{seen} and {advanced}; per-edge frame positions "
                    "are ambiguous"
                )
    final_frame = frame_at[fst.final]
    if final_frame is not None and final_frame != num_frames:
        raise DimensionMismatchError(
            f"complete paths consume {final_frame} frames, "
            f"reference has {num_frames}"
        )
    return losses


class WordEditLoss:
    """Edit distance between a path's output words and a reference transcript."""

    def __init__(self, reference: Sequence[int]):
        reference = tuple(int(w) for w in reference)
        if any(w == EPSILON for w in reference):
            raise ValueError("reference transcript contains epsilon")
        self.reference = reference

    def __call__(self, fst: Wfst, path: Path) -> float:
        return float(edit_distance(path_output_labels(fst, path), self.reference))


class FrameErrorLoss:
    """Count of frames where a path's input symbol differs from an alignment."""

    def __init__(self, alignment: Sequence[int]):
        alignment = tuple(int(q) for q in alignment)
        if any(q < 1 for q in alignment):
            raise ValueError("alignment symbols must be positive")
        self.alignment = alignment

    def __call__(self, fst: Wfst, path: Path) -> float:
        labels = path_input_labels(fst, path)
        if len(labels) != len(self.alignment):
            raise DimensionMismatchError(
                f"path consumes {len(labels)} frames, alignment has "
                f"{len(self.alignment)}"
            )
        return float(
            sum(1 for q, r in zip(labels, self.alignment) if q != r)
        )


class ShiftedLoss:
    """A base loss plus a constant offset (for shift-invariance checks)."""

    def __init__(self, base, offset: float):
        self.base = base
        self.offset = float(offset)

    def __call__(self, fst: Wfst, path: Path) -> float:
        return self.base(fst, path) + self.offset


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


def format_label_sequence(labels: Sequence[int]) -> str:
    return " ".join(str(int(w)) for w in labels) + "\n"
