"""The four benchmark workloads.

Every input is generated here from the workload seed and the op index; the
library only ever sees the generated inputs.  Each workload's ``run`` is the
timed op and calls the library through its module attributes, so the tracer
in ``spans.py`` can wrap the names the library itself looks up.  ``check``
is untimed: it verifies the op's output against an independent expectation
and digests the output bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sampled_mbr.fst import EPSILON, Edge, Wfst, enumerate_paths, parse_fst_text

# The package re-exports ``compose`` (the function) under the name of
# its module, so the modules are taken from ``sys.modules``.
cli_mod = importlib.import_module("sampled_mbr.cli")
compose_mod = importlib.import_module("sampled_mbr.compose")
estimators_mod = importlib.import_module("sampled_mbr.estimators")
losses_mod = importlib.import_module("sampled_mbr.losses")
sampling_mod = importlib.import_module("sampled_mbr.sampling")

# Standard errors a sampled frame-error value may stray from the exact one.
# A 5-sigma miss has probability below 1e-6 per op.
SAMPLED_TOLERANCE_SE = 5.0
# Sum of one gradient row; every path occupies one symbol per frame, so the
# centred covariance rows cancel to rounding error.
ROW_SUM_TOLERANCE = 1e-9


@dataclass
class Outcome:
    """What ``check`` found about one op's output."""

    problems: list[str]
    digest: bytes
    work: float
    quality: dict[str, float] = field(default_factory=dict)


def _rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng([tag, seed, index])


def _stream_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**62))


def _sha(*chunks: bytes) -> bytes:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.digest()


def _chain_decoder_text(num_frames: int, num_symbols: int, vocab: int) -> str:
    """Frame chain accepting every symbol string; symbols above ``vocab``
    are fillers that output no word."""
    lines = [
        f"{t} {t + 1} {q} {q if q <= vocab else EPSILON} 0.0"
        for t in range(num_frames)
        for q in range(1, num_symbols + 1)
    ]
    lines.append(str(num_frames))
    return "\n".join(lines) + "\n"


def _csv(z: np.ndarray) -> str:
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in z)


def _row_sum_problems(gradient: np.ndarray, expected: float) -> list[str]:
    worst = float(np.abs(gradient.sum(axis=1) - expected).max())
    if not math.isfinite(worst) or worst > ROW_SUM_TOLERANCE:
        return [f"gradient row sum off by {worst!r}"]
    return []


class Workload:
    name = ""
    tag = 0
    # Ops always run even past the deadline, so that the output digest
    # covers the same ops on every machine.
    min_ops = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self):
        """Build shared inputs and warm up; repeated to time set-up."""

    def make_input(self, index: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out, corrupt: bool = False) -> Outcome:
        """Verify ``out``; ``corrupt`` shifts the expected value so that a
        correct output must be reported as wrong."""
        raise NotImplementedError

    def figures(self, walls, rates, quality) -> dict[str, tuple[float, str]]:
        """This workload's own figures as (value, unit), printed but not
        gated, from passed ops' times, work rates and quality values."""
        return {}


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_mod.main(argv)
    return code, buffer.getvalue()


class Train(Workload):
    """One default ``sampled-mbr train`` run per op, via ``cli.main``."""

    name = "train"
    tag = 1
    min_ops = 2
    # The defaults of the train subcommand, written out so the workload
    # stays fixed if a default changes.  ``task_seed = 0`` keeps the default
    # config's dataset (the one the training criterion is stated for); each
    # op varies only ``seed``, which drives the sample streams.
    CONFIG = {
        "task_seed": 0,
        "steps": 200,
        "learning_rate": 1.0,
        "samples_per_step": 100,
        "loss": "word-edit",
        "variance_reduction": "true",
        "eval_interval": 20,
        "exact_gradients": "false",
        "vocab_size": 3,
        "frames": 6,
        "clusters": 4,
        "feature_dim": 8,
        "num_utterances": 200,
        "noise": 0.3,
    }
    WARM_UP = {"steps": 4, "eval_interval": 2, "num_utterances": 20}

    def _write_config(self, stem: str, seed: int, overrides=None) -> dict:
        values = dict(self.CONFIG, seed=seed, **(overrides or {}))
        config = self.workdir / f"{stem}.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        return {
            "config": config,
            "curve": self.workdir / f"{stem}.csv",
            "model": self.workdir / f"{stem}.model",
            "values": values,
        }

    def prepare(self):
        warm = self._write_config("warm", 0, self.WARM_UP)
        self.run(warm)

    def make_input(self, index: int):
        seed = _stream_seed(_rng(self.seed, self.tag, index))
        return self._write_config(f"op{index}", seed)

    def run(self, inp):
        return _quiet_cli([
            "train", "--config", str(inp["config"]),
            "--curve", str(inp["curve"]), "--model", str(inp["model"]),
        ])

    def check(self, inp, out, corrupt=False) -> Outcome:
        code, stdout = out
        if code != 0:
            return Outcome([f"train exited {code}"], b"", 0.0)
        curve = inp["curve"].read_bytes()
        model = inp["model"].read_bytes()
        rows = [line.split(",") for line in curve.decode().splitlines()[1:]]
        exact = [float(r[1]) for r in rows]
        values = inp["values"]
        problems = []
        expected_rows = 1 + math.ceil(values["steps"] / values["eval_interval"])
        if len(rows) != expected_rows:
            problems.append(f"curve has {len(rows)} rows, not {expected_rows}")
        # Criterion 9's rule: training at least halves the dev loss.
        bound = 0.5 * exact[0] - (exact[0] if corrupt else 0.0)
        if not exact[-1] < bound:
            problems.append(f"final dev loss {exact[-1]!r} not below {bound!r}")
        if f"final_exact_expected_loss {exact[-1]!r}" not in stdout:
            problems.append("printed final loss differs from the curve")
        num_dev = max(1, values["num_utterances"] // 10)
        sampled = values["samples_per_step"] * (values["steps"] + len(rows) * num_dev)
        return Outcome(
            problems,
            _sha(curve, model, stdout.encode()),
            float(sampled),
            {"train_dev_loss": exact[-1]},
        )

    def figures(self, walls, rates, quality):
        return {
            "train_s": (statistics.median(walls), "s"),
            "train_dev_loss": (statistics.median(quality["train_dev_loss"]), "loss"),
        }


class EstimateLong(Workload):
    """``sampled-mbr estimate`` on a T=50, Q=10 chain lattice, in-process.

    One op runs the estimate twice on fresh scores, once per loss, so every
    op does the same work.
    """

    name = "estimate-long"
    tag = 2
    min_ops = 4
    FRAMES, SYMBOLS, VOCAB, SAMPLES = 50, 10, 6, 1000
    WARM_UP_SAMPLES = 100

    def prepare(self):
        text = _chain_decoder_text(self.FRAMES, self.SYMBOLS, self.VOCAB)
        self.decoder = self.workdir / "chain.fst"
        self.decoder.write_text(text)
        self.decoder_fst = parse_fst_text(text)
        self.run(self._input("warm", _rng(self.seed, self.tag, 2**32),
                             self.WARM_UP_SAMPLES))

    def _input(self, stem: str, rng: np.random.Generator, samples: int):
        z = rng.normal(0.0, 1.0, size=(self.FRAMES, self.SYMBOLS))
        # The best-scoring symbols as truth make the frame error depend on
        # which paths are drawn, so a biased sampler fails the check.
        truth = z.argmax(axis=1) + 1
        words = [int(q) for q in truth if q <= self.VOCAB]
        alignment = [int(q) for q in truth]
        paths = {
            kind: self.workdir / f"{stem}.{kind}"
            for kind in ("csv", "words", "align", "word-edit.json",
                         "frame-error.json")
        }
        paths["csv"].write_text(_csv(z))
        paths["words"].write_text(" ".join(map(str, words)) + "\n")
        paths["align"].write_text(" ".join(map(str, alignment)) + "\n")
        return {
            "z": z, "alignment": alignment, "paths": paths,
            "seed": _stream_seed(rng), "samples": samples,
        }

    def make_input(self, index: int):
        return self._input(
            f"op{index}", _rng(self.seed, self.tag, index), self.SAMPLES
        )

    def run(self, inp):
        paths = inp["paths"]
        codes = []
        for loss, ref in (("word-edit", "words"), ("frame-error", "align")):
            code, _ = _quiet_cli([
                "estimate", "--fst", str(self.decoder),
                "--logits", str(paths["csv"]), "--ref", str(paths[ref]),
                "--loss", loss, "--samples", str(inp["samples"]),
                "--seed", str(inp["seed"]), "--out", str(paths[f"{loss}.json"]),
            ])
            codes.append(code)
        return codes

    def check(self, inp, out, corrupt=False) -> Outcome:
        if out != [0, 0]:
            return Outcome([f"estimate exited {out}"], b"", 0.0)
        offset = 1.0 if corrupt else 0.0
        problems = []
        blobs = []
        reports = {}
        for loss in ("word-edit", "frame-error"):
            blob = inp["paths"][f"{loss}.json"].read_bytes()
            blobs.append(blob)
            report = json.loads(blob)
            reports[loss] = report
            gradient = np.array(report["gradient"]).reshape(
                report["gradient_shape"]
            )
            if gradient.shape != (self.FRAMES, self.SYMBOLS):
                problems.append(f"{loss}: gradient shape {gradient.shape}")
                continue
            if report["num_samples"] != inp["samples"]:
                problems.append(f"{loss}: {report['num_samples']} samples")
            problems += [f"{loss}: {p}" for p in _row_sum_problems(gradient, offset)]
        # The frame error is edge-additive, so its exact expectation comes
        # from one backward pass over the same lattice.
        lattice = compose_mod.compose(
            compose_mod.build_score_fst(inp["z"]), self.decoder_fst
        )
        costs = losses_mod.edge_loss_annotation(lattice, inp["alignment"])
        _, exact = estimators_mod.expected_additive_loss(lattice, costs)
        exact += offset
        report = reports["frame-error"]
        sampled = report["expected_loss"]
        stderr = math.sqrt(report["loss_variance"] / report["num_samples"])
        error = abs(sampled - exact)
        if not error <= SAMPLED_TOLERANCE_SE * stderr + 1e-12:
            problems.append(
                f"frame-error estimate {sampled!r} is {error!r} from exact "
                f"{exact!r} (standard error {stderr!r})"
            )
        return Outcome(
            problems,
            _sha(*blobs),
            2.0 * inp["samples"],
            {"estimate_abs_err": error},
        )

    def figures(self, walls, rates, quality):
        return {
            "estimate_paths_per_s": (statistics.median(rates), "1/s"),
            "estimate_abs_err": (statistics.fmean(quality["estimate_abs_err"]), "loss"),
        }


def _small_fixtures(rng: np.random.Generator) -> list[Wfst]:
    """Ten lattices shaped like the sampler-fidelity criterion's fixtures:
    at most 10 paths each and 1 to 3 edges per path, weights from ``rng``."""

    def parallel(weights) -> Wfst:
        edges = [Edge(0, 1, q, q, float(w)) for q, w in enumerate(weights, 1)]
        return Wfst(2, edges, final=1)

    identity = Wfst(
        2, [Edge(0, 0, 1, 1, 0.0), Edge(0, 0, 2, 2, 0.0), Edge(0, 1, 0, 0, 0.0)],
        final=1,
    )
    word_chain = Wfst(
        3,
        [Edge(t, t + 1, q, q if q <= 1 else EPSILON, 0.0)
         for t in range(2) for q in (1, 2)],
        final=2,
    )
    score = compose_mod.build_score_fst
    return [
        parallel([math.log(2.0), math.log(3.0)]),
        score(np.log([[2.0, 3.0]])),
        compose_mod.compose(score(np.zeros((2, 2))), identity),
        score(rng.normal(0.0, 1.0, size=(3, 2))),
        score(rng.normal(0.0, 2.0, size=(1, 4))),
        compose_mod.compose(
            score(rng.normal(0.0, 1.0, size=(2, 2))), word_chain
        ),
        parallel(rng.normal(0.0, 1.0, size=int(rng.integers(2, 11)))),
        parallel(rng.normal(0.0, 1.0, size=int(rng.integers(2, 11)))),
        parallel(rng.normal(0.0, 1.0, size=int(rng.integers(2, 11)))),
        score(rng.normal(0.0, 1.0, size=(2, 3))),
    ]


class SampleSmall(Workload):
    """``sample_paths``: 100k draws per op on one of ten tiny lattices."""

    name = "sample-small"
    tag = 3
    min_ops = 3
    DRAWS = 100_000
    MAX_TV = 0.01
    REDRAWS = 20
    WARM_UP_DRAWS = 1000

    def prepare(self):
        self.fixtures = []
        for fst in _small_fixtures(_rng(self.seed, self.tag, 2**32)):
            paths = enumerate_paths(fst, 10)
            log_w = np.array([p.log_weight for p in paths])
            probs = np.exp(log_w - log_w.max())
            probs /= probs.sum()
            exact = dict(zip((p.edges for p in paths), probs.tolist()))
            self.fixtures.append((fst, exact))
            sampling_mod.sample_paths(fst, 0, self.WARM_UP_DRAWS)

    def make_input(self, index: int):
        rng = _rng(self.seed, self.tag, index)
        return {
            "fixture": index % len(self.fixtures),
            "seed": _stream_seed(rng),
            "redraw": rng.integers(0, self.DRAWS, size=self.REDRAWS).tolist(),
        }

    def run(self, inp):
        fst, _ = self.fixtures[inp["fixture"]]
        return sampling_mod.sample_paths(fst, inp["seed"], self.DRAWS)

    def check(self, inp, out, corrupt=False) -> Outcome:
        fst, exact = self.fixtures[inp["fixture"]]
        if corrupt:
            # Move 0.05 of probability between the first two paths.
            first, second = list(exact)[:2]
            exact = dict(exact)
            exact[first] += 0.05
            exact[second] -= 0.05
        problems = []
        if len(out) != self.DRAWS:
            problems.append(f"{len(out)} paths drawn, not {self.DRAWS}")
        counts = Counter(p.edges for p in out)
        unknown = set(counts) - set(exact)
        if unknown:
            problems.append(f"{len(unknown)} sampled paths are not lattice paths")
        tv = 0.5 * sum(
            abs(counts.get(k, 0) / self.DRAWS - exact.get(k, 0.0))
            for k in set(counts) | set(exact)
        )
        if not tv < self.MAX_TV:
            problems.append(f"total variation {tv!r} not below {self.MAX_TV}")
        # Sample i depends only on (seed, i): redraw single indices.
        for j in inp["redraw"]:
            again = sampling_mod.sample_paths(fst, inp["seed"], 1, start_index=j)
            if again[0].edges != out[j].edges:
                problems.append(f"index {j} redraws a different path")
                break
        lengths = np.fromiter((len(p.edges) for p in out), dtype=np.int32)
        ids = np.fromiter(
            (k for p in out for k in p.edges), dtype=np.int32,
            count=int(lengths.sum()),
        )
        return Outcome(
            problems,
            _sha(lengths.tobytes(), ids.tobytes()),
            float(self.DRAWS),
            {"sample_tv": tv},
        )

    def figures(self, walls, rates, quality):
        return {
            "sample_draws_per_s": (statistics.median(rates), "1/s"),
            "sample_tv": (max(quality["sample_tv"]), "prob"),
        }


class LatticeExact(Workload):
    """Compose a T=100, Q=12 score sausage with a bigram-style decoder, then
    run the backward pass, the exact additive frame-error pass and a
    10-sample estimate."""

    name = "lattice-exact"
    tag = 4
    min_ops = 4
    FRAMES, SYMBOLS, VOCAB, SAMPLES = 100, 12, 9, 10

    def prepare(self):
        rng = _rng(self.seed, self.tag, 2**32)
        self.decoder = self._bigram_decoder(rng)
        self.run(self._input(rng, frames=10))

    def _bigram_decoder(self, rng: np.random.Generator) -> Wfst:
        """Context state c remembers the last symbol (0 at the start);
        every context but the start may exit to the final state on epsilon.
        Symbols above VOCAB output no word."""
        q_count = self.SYMBOLS
        final = q_count + 1
        edges = []
        for context in range(q_count + 1):
            probs = rng.dirichlet(np.ones(q_count))
            for q in range(1, q_count + 1):
                word = q if q <= self.VOCAB else EPSILON
                edges.append(
                    Edge(context, q, q, word, float(np.log(probs[q - 1])))
                )
            if context:
                edges.append(Edge(context, final, EPSILON, EPSILON, 0.0))
        return Wfst(final + 1, edges, final=final)

    def _input(self, rng: np.random.Generator, frames: int):
        return {
            "z": rng.normal(0.0, 1.0, size=(frames, self.SYMBOLS)),
            "alignment": [
                int(q) for q in rng.integers(1, self.SYMBOLS + 1, size=frames)
            ],
            "seed": _stream_seed(rng),
        }

    def make_input(self, index: int):
        return self._input(_rng(self.seed, self.tag, index), self.FRAMES)

    def run(self, inp):
        z = inp["z"]
        lattice = compose_mod.compose(
            compose_mod.build_score_fst(z), self.decoder
        )
        beta = sampling_mod.backward(lattice)
        costs = losses_mod.edge_loss_annotation(lattice, inp["alignment"])
        log_z, expected = estimators_mod.expected_additive_loss(lattice, costs)
        estimate = estimators_mod.sampled_estimate(
            lattice, losses_mod.FrameErrorLoss(inp["alignment"]),
            z.shape[0], z.shape[1], self.SAMPLES, inp["seed"],
        )
        return {
            "states": lattice.num_states,
            "edges": lattice.num_edges,
            "backward_log_z": float(beta[lattice.initial]),
            "additive_log_z": log_z,
            "expected_loss": expected,
            "estimate": estimate,
        }

    def check(self, inp, out, corrupt=False) -> Outcome:
        problems = []
        expected = out["additive_log_z"] + (1.0 if corrupt else 0.0)
        if not math.isclose(out["backward_log_z"], expected, rel_tol=1e-12):
            problems.append(
                f"backward log Z {out['backward_log_z']!r} differs from "
                f"additive-pass log Z {expected!r}"
            )
        estimate = out["estimate"]
        problems += _row_sum_problems(estimate.gradient, 0.0)
        if not math.isfinite(out["expected_loss"]):
            problems.append(f"expected loss {out['expected_loss']!r}")
        summary = json.dumps(
            [out["states"], out["edges"], out["backward_log_z"],
             out["additive_log_z"], out["expected_loss"],
             estimate.expected_loss, estimate.loss_variance]
        ).encode()
        return Outcome(
            problems,
            _sha(summary, estimate.gradient.tobytes(),
                 estimate.per_sample_losses.tobytes()),
            float(out["edges"]),
        )

    def figures(self, walls, rates, quality):
        return {"lattice_edges_per_s": (statistics.median(rates), "1/s")}


WORKLOADS = {
    w.name: w for w in (Train, EstimateLong, SampleSmall, LatticeExact)
}
