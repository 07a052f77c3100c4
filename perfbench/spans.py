"""Span tracing at the library's module boundaries, installed from outside.

The tracer wraps public functions of ``sampled_mbr`` where the consuming
module looks them up: every ``sampled_mbr.*`` submodule global that is the
original function is replaced by a wrapper, and methods are replaced on
their class.  Nothing under ``src/`` changes, and the wrappers are removed
again after each traced op, so untraced ops run the library untouched.

Spans are aggregated in memory per name: self time (duration minus the
time covered by child spans), call count, and errors per layer.  Work
counters are recorded at the same boundaries by small hooks that run
outside any span; their cost is kept apart as bookkeeping time, so that
    sum(self times) + bookkeeping + unattributed == traced op wall time
holds up to rounding.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# The package re-exports ``compose`` (the function) under the name of
# its module, so the modules are taken from ``sys.modules``.
cli_mod = importlib.import_module("sampled_mbr.cli")
compose_mod = importlib.import_module("sampled_mbr.compose")
estimators_mod = importlib.import_module("sampled_mbr.estimators")
fst_mod = importlib.import_module("sampled_mbr.fst")
losses_mod = importlib.import_module("sampled_mbr.losses")
sampling_mod = importlib.import_module("sampled_mbr.sampling")
training_mod = importlib.import_module("sampled_mbr.training")

_path_output_labels = fst_mod.path_output_labels
_path_input_labels = fst_mod.path_input_labels


def _after_walk(tracer, args, paths):
    tracer.counts["sampling.walk_steps"] += sum(len(p.edges) for p in paths)


def _after_loss(tracer, args, value):
    loss, fst, path = args[:3]
    reference = getattr(loss, "reference", None)
    if reference is not None:
        hyp = _path_output_labels(fst, path)
        tracer.counts["losses.dp_cells"] += len(hyp) * len(reference)
    else:
        reference = getattr(loss, "alignment", None)
        hyp = _path_input_labels(fst, path)
    tracer.op_hypotheses.add((type(loss).__name__, reference, hyp))


def _after_occupancy(tracer, args, gamma):
    tracer.counts["compose.occupancy_bytes"] += gamma.nbytes


def _after_compose(tracer, args, lattice):
    tracer.counts["compose.edges_out"] += lattice.num_edges


def _after_enumerate(tracer, args, paths):
    tracer.counts["fst.enumerate_paths.paths"] += len(paths)
    tracer.op_graphs.add(hash(args[0]))


# (owner, attribute, span name, counter hook).  The owner is a module for
# functions and a class for methods.  The layer is the span name's first
# dotted component.
SPANS = [
    (fst_mod, "topological_order", "fst.topological_order", None),
    (fst_mod, "enumerate_paths", "fst.enumerate_paths", _after_enumerate),
    (fst_mod, "parse_fst_text", "fst.parse_fst_text", None),
    (compose_mod, "build_score_fst", "compose.build_score_fst", None),
    (compose_mod, "compose", "compose.compose", _after_compose),
    (compose_mod, "path_occupancy", "compose.path_occupancy", _after_occupancy),
    (compose_mod, "parse_logits_csv", "compose.parse_logits_csv", None),
    (sampling_mod, "backward", "sampling.backward", None),
    (sampling_mod, "sample_paths", "sampling.walk", _after_walk),
    (sampling_mod.SampleStream, "generator", "sampling.rng", None),
    (losses_mod.WordEditLoss, "__call__", "losses.loss", _after_loss),
    (losses_mod.FrameErrorLoss, "__call__", "losses.loss", _after_loss),
    (losses_mod, "edge_loss_annotation", "losses.edge_loss_annotation", None),
    (losses_mod, "parse_label_sequence", "losses.parse_label_sequence", None),
    (estimators_mod, "sampled_estimate", "estimators.sampled_estimate", None),
    (estimators_mod, "expected_additive_loss",
     "estimators.expected_additive_loss", None),
    (estimators_mod, "expected_loss_exact", "estimators.exact", None),
    (estimators_mod, "expected_loss_gradient_exact", "estimators.exact", None),
    (training_mod, "run_experiment", "training.run_experiment", None),
    (training_mod, "train_step", "training.train_step", None),
    (training_mod.EnumeratedObjective, "__init__",
     "training.enumerated_objective", None),
    (training_mod.EnumeratedObjective, "expected_loss",
     "training.enumerated_objective", None),
    (training_mod, "build_task", "training.build_task", None),
    (training_mod, "parse_config", "training.parse_config", None),
    (cli_mod, "main", "cli", None),
]

LAYERS = ("fst", "compose", "sampling", "losses", "estimators", "training", "cli")


class Tracer:
    """Aggregated spans and counters for the traced ops of one run."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.bookkeeping_s = 0.0
        self.unattributed_s = 0.0
        self.wall_s = 0.0
        self.ops = 0
        self.op_hypotheses: set = set()
        self.op_graphs: set = set()
        self._stack: list[list[float]] = []
        self._last_error: BaseException | None = None
        self.last_wall_s = 0.0
        self._patches = self._build_patches()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name: str, hook):
        layer = name.split(".", 1)[0]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # Count an error once, in the innermost layer it left.
                if exc is not self._last_error:
                    self._last_error = exc
                    self.errors[layer] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                self.self_s[name] += duration - frame[0]
                self.calls[name] += 1
                stack[-1][0] += duration
            if hook is not None:
                hook(self, args, result)
                spent = perf_counter() - t1
                self.bookkeeping_s += spent
                stack[-1][0] += spent
            return result

        return wrapper

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every traced reference."""
        modules = [
            m for key, m in sys.modules.items()
            if key.startswith("sampled_mbr.") and m is not None
        ]
        patches = []
        for owner, attr, name, hook in SPANS:
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                patches.append(
                    (owner, attr, original, self._wrap(original, name, hook))
                )
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, hook)
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        patches.append((module, key, original, wrapper))
        return patches

    # -- one traced op ------------------------------------------------------

    def run(self, op, *args):
        """Call ``op(*args)`` with the wrappers installed and return its result.

        The op's wall time is left in ``last_wall_s``.  An exception from the
        op propagates after the wrappers are removed.
        """
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        root = [0.0]
        self._stack.append(root)
        t0 = perf_counter()
        try:
            return op(*args)
        finally:
            wall = perf_counter() - t0
            self._stack.pop()
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self.ops += 1
            self.wall_s += wall
            self.last_wall_s = wall
            self.unattributed_s += wall - root[0]
            self.counts["losses.distinct"] += len(self.op_hypotheses)
            self.counts["training.graphs"] += len(self.op_graphs)
            self.op_hypotheses.clear()
            self.op_graphs.clear()

    # -- results --------------------------------------------------------

    def accounted_s(self) -> float:
        """Self times plus bookkeeping plus unattributed time."""
        return sum(self.self_s.values()) + self.bookkeeping_s + self.unattributed_s

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as (value, unit), averaged over traced ops."""
        ops = max(self.ops, 1)
        s, n, c = self.self_s, self.calls, self.counts

        def per_op(value):
            return value / ops

        loss_calls = n["losses.loss"]
        graphs = c["training.graphs"]
        out = {
            f"{name}.self_s": (per_op(s[name]), "s/op")
            for name in dict.fromkeys(span for _, _, span, _ in SPANS)
        }
        out.update({
            "sampling.rng.calls": (per_op(n["sampling.rng"]), "count/op"),
            "sampling.walk_steps": (per_op(c["sampling.walk_steps"]), "count/op"),
            "losses.loss.calls": (per_op(loss_calls), "count/op"),
            "losses.distinct_ratio": (
                c["losses.distinct"] / loss_calls if loss_calls else 0.0, "ratio"
            ),
            "losses.dp_cells": (per_op(c["losses.dp_cells"]), "count/op"),
            "compose.occupancy_bytes": (
                per_op(c["compose.occupancy_bytes"]), "B/op"
            ),
            "compose.edges_out": (per_op(c["compose.edges_out"]), "count/op"),
            "fst.enumerate_paths.paths": (
                per_op(c["fst.enumerate_paths.paths"]), "count/op"
            ),
            "training.enumerations_per_graph": (
                n["fst.enumerate_paths"] / graphs if graphs else 0.0, "ratio"
            ),
        })
        for layer in LAYERS:
            out[f"{layer}.errors"] = (per_op(self.errors[layer]), "count/op")
        out["trace.bookkeeping_s"] = (per_op(self.bookkeeping_s), "s/op")
        out["trace.unattributed_s"] = (per_op(self.unattributed_s), "s/op")
        out["trace.wall_s"] = (per_op(self.wall_s), "s/op")
        return out

    def spans(self) -> dict:
        """Every span name with its total self time, calls and share."""
        wall = self.wall_s or 1.0
        return {
            name: {
                "self_s": self.self_s[name],
                "calls": self.calls[name],
                "share": self.self_s[name] / wall,
            }
            for name in sorted(self.self_s)
        }
