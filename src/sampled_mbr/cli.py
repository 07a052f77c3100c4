"""Command-line front end.

Subcommands: estimate (sampled expected loss + gradient as JSON), gradcheck
(exact gradient vs finite differences), sample (path histogram), train
(synthetic-task training run), inspect (FST summary).  All outputs are
deterministic given flags and seed; error paths print
``error: <category>: <message>`` on stderr and exit nonzero (2 usage/parse,
3 dimension, 4 degenerate, 5 overflow, 1 otherwise).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from pathlib import Path as FsPath

import numpy as np

from . import __version__
from .compose import LatticeTopology, parse_logits_csv
from .errors import FstParseError, SampledMbrError, UsageError
from .estimators import (
    estimate_report,
    expected_loss_exact,
    expected_loss_gradient_exact,
    sampled_estimate,
)
from .fst import (
    MAX_ENUMERATED_PATHS,
    Wfst,
    count_paths,
    is_acyclic,
    label_rows,
    parse_fst_text,
    path_distribution,
)
from .losses import FrameErrorLoss, WordEditLoss, parse_label_sequence
from .sampling import sample_edge_ids, stochasticity_deviation
from .training import (
    build_task,
    format_curve_csv,
    format_model_text,
    parse_config,
    run_experiment,
    zero_wall_times,
)

STOCHASTIC_TOLERANCE = 1e-9


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SampledMbrError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sampled-mbr",
        description="Sampled minimum-Bayes-risk estimation and training "
        "over weighted finite-state lattices.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    estimate = sub.add_parser(
        "estimate", help="sampled expected loss and score gradient (JSON)"
    )
    _lattice_flags(estimate)
    estimate.add_argument("--ref", required=True, help="reference label file")
    estimate.add_argument(
        "--loss", choices=("word-edit", "frame-error"), default="word-edit"
    )
    estimate.add_argument("--samples", type=int, default=100)
    estimate.add_argument("--seed", type=int, default=0)
    estimate.add_argument(
        "--exact",
        action="store_true",
        help="also include enumeration values and deviations",
    )
    estimate.add_argument(
        "--no-variance-reduction",
        action="store_true",
        help="use the plain estimator with an independent occupancy baseline",
    )
    estimate.add_argument("--out", help="output path (default stdout)")
    estimate.set_defaults(handler=cmd_estimate)

    gradcheck = sub.add_parser(
        "gradcheck",
        help="compare the exact gradient against central finite differences",
    )
    _lattice_flags(gradcheck)
    gradcheck.add_argument("--ref", required=True)
    gradcheck.add_argument(
        "--loss", choices=("word-edit", "frame-error"), default="word-edit"
    )
    gradcheck.add_argument("--eps", type=float, default=1e-5)
    gradcheck.add_argument("--tol", type=float, default=1e-4)
    gradcheck.add_argument("--out", help="output path (default stdout)")
    gradcheck.set_defaults(handler=cmd_gradcheck)

    sample = sub.add_parser(
        "sample", help="sample paths and report word-sequence frequencies"
    )
    _lattice_flags(sample)
    sample.add_argument("--samples", type=int, default=1000)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--out", help="output path (default stdout)")
    sample.set_defaults(handler=cmd_sample)

    train = sub.add_parser("train", help="run a synthetic training experiment")
    train.add_argument("--config", required=True, help="key=value config file")
    train.add_argument("--curve", required=True, help="training-curve CSV path")
    train.add_argument("--model", help="final model output path")
    train.set_defaults(handler=cmd_train)

    inspect = sub.add_parser("inspect", help="summarize an FST file")
    inspect.add_argument("--fst", required=True)
    inspect.add_argument("--json", action="store_true", dest="as_json")
    inspect.add_argument("--out", help="output path (default stdout)")
    inspect.set_defaults(handler=cmd_inspect)
    return parser


def _lattice_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--fst", required=True, help="decoder graph FST file")
    parser.add_argument(
        "--logits", required=True, help="frame-score CSV (T rows, Q columns)"
    )


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        FsPath(out).write_text(text)


def _read_text(path: str) -> str:
    """An input file's text; bytes that are not UTF-8 are a parse error."""
    try:
        return FsPath(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FstParseError(f"{path}: {exc}") from None


def _load_lattice(args) -> tuple[Wfst, np.ndarray, LatticeTopology]:
    """The composed lattice, its score matrix and its topology."""
    decoder = parse_fst_text(_read_text(args.fst))
    z = parse_logits_csv(_read_text(args.logits))
    topology = LatticeTopology(decoder, *z.shape)
    return topology.at(z), z, topology


def _load_loss(args):
    labels = parse_label_sequence(_read_text(args.ref))
    if args.loss == "frame-error":
        return FrameErrorLoss(labels)
    return WordEditLoss(labels)


def _check_samples_and_seed(args):
    if args.samples < 1:
        raise UsageError("--samples must be positive")
    # Sample i walks stream index i; the plain estimator draws 2x --samples.
    bits = 63 if getattr(args, "no_variance_reduction", False) else 64
    if args.samples > 1 << bits:
        raise UsageError(f"--samples must be at most 2^{bits}")
    if not 0 <= args.seed < 1 << 64:
        raise UsageError("--seed must be in 0..2^64-1")


def cmd_estimate(args) -> int:
    _check_samples_and_seed(args)
    lattice, z, _ = _load_lattice(args)
    loss = _load_loss(args)
    num_frames, num_symbols = z.shape
    estimate = sampled_estimate(
        lattice,
        loss,
        num_frames,
        num_symbols,
        args.samples,
        args.seed,
        variance_reduction=not args.no_variance_reduction,
    )
    report = estimate_report(estimate)
    if args.exact:
        exact_value = expected_loss_exact(lattice, loss)
        exact_gradient = expected_loss_gradient_exact(
            lattice, loss, num_frames, num_symbols
        )
        report["exact_expected_loss"] = exact_value
        report["exact_gradient"] = [float(g) for g in exact_gradient.ravel()]
        report["abs_error_expected_loss"] = abs(
            estimate.expected_loss - exact_value
        )
        report["max_abs_error_gradient"] = float(
            np.abs(estimate.gradient - exact_gradient).max()
        )
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0


def cmd_gradcheck(args) -> int:
    if not all(math.isfinite(v) and v > 0 for v in (args.eps, args.tol)):
        raise UsageError("--eps and --tol must be finite and positive")
    lattice, z, topology = _load_lattice(args)
    loss = _load_loss(args)
    num_frames, num_symbols = z.shape
    exact = expected_loss_gradient_exact(lattice, loss, num_frames, num_symbols)

    def value_at(scores: np.ndarray) -> float:
        return expected_loss_exact(topology.at(scores), loss)

    worst = (0.0, 0, 0, 0.0, 0.0)  # (rel error, t, q, exact, fd)
    for t in range(num_frames):
        for q in range(num_symbols):
            bumped = z.copy()
            bumped[t, q] += args.eps
            upper = value_at(bumped)
            bumped[t, q] -= 2 * args.eps
            lower = value_at(bumped)
            fd = float((upper - lower) / (2 * args.eps))
            scale = max(abs(float(exact[t, q])), abs(fd))
            if scale <= 1e-8:
                continue
            rel = abs(float(exact[t, q]) - fd) / scale
            if rel > worst[0]:
                worst = (rel, t, q, float(exact[t, q]), fd)
    ok = worst[0] < args.tol
    lines = [
        f"max_relative_error {worst[0]!r}",
        f"worst_element t={worst[1]} q={worst[2]} "
        f"exact={worst[3]!r} finite_difference={worst[4]!r}",
        f"tolerance {args.tol!r}",
        f"result {'pass' if ok else 'fail'}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def cmd_sample(args) -> int:
    _check_samples_and_seed(args)
    lattice, _, _ = _load_lattice(args)
    edge_ids = sample_edge_ids(lattice, args.seed, args.samples)
    counts = Counter(label_rows(lattice.olabel, edge_ids))
    exact: dict[tuple[int, ...], float] | None = None
    # Sampling has already rejected a cyclic lattice.
    if count_paths(lattice) <= MAX_ENUMERATED_PATHS:
        exact = path_distribution(lattice)
    lines = []
    keys = sorted(set(counts) | set(exact or {}))
    for words in keys:
        rendered = " ".join(str(w) for w in words) if words else "-"
        freq = counts.get(words, 0) / args.samples
        if exact is None:
            lines.append(f"{rendered}\t{freq!r}")
        else:
            lines.append(f"{rendered}\t{freq!r}\t{exact.get(words, 0.0)!r}")
    if exact is not None:
        tv = 0.5 * sum(
            abs(counts.get(w, 0) / args.samples - exact.get(w, 0.0))
            for w in keys
        )
        lines.append(f"tv_distance {tv!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_train(args) -> int:
    train_config, task_config = parse_config(_read_text(args.config))
    dataset = build_task(train_config, task_config)
    records, model = run_experiment(dataset, train_config)
    # Wall times vary run to run; zero them so identical configs give
    # byte-identical curve files.
    FsPath(args.curve).write_text(format_curve_csv(zero_wall_times(records)))
    if args.model:
        FsPath(args.model).write_text(format_model_text(model))
    first, last = records[0], records[-1]
    sys.stdout.write(
        f"initial_exact_expected_loss {first.exact_expected_loss!r}\n"
        f"final_exact_expected_loss {last.exact_expected_loss!r}\n"
    )
    return 0


def cmd_inspect(args) -> int:
    fst = parse_fst_text(_read_text(args.fst))
    acyclic = is_acyclic(fst)
    paths: int | None = None
    if acyclic:
        total = count_paths(fst)
        if total <= MAX_ENUMERATED_PATHS:
            paths = total
    deviation = stochasticity_deviation(fst)
    stochastic = deviation <= STOCHASTIC_TOLERANCE
    if args.as_json:
        text = json.dumps(
            {
                "states": fst.num_states,
                "edges": fst.num_edges,
                "acyclic": acyclic,
                "paths": paths,
                "stochastic": stochastic,
                "max_deviation": deviation,
            },
            indent=2,
        ) + "\n"
    else:
        text = (
            f"states: {fst.num_states}\n"
            f"edges: {fst.num_edges}\n"
            f"acyclic: {str(acyclic).lower()}\n"
            f"paths: {paths if paths is not None else 'n/a'}\n"
            f"stochastic: {str(stochastic).lower()} "
            f"(max dev {deviation:.1e})\n"
        )
    _emit(text, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
