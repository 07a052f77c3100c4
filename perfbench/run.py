"""Benchmark for the sampled-mbr library and CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) in this single process and thread:
set-up, then a closed loop of ops, one after another, until ``--seconds``
have passed (and at least the workload's minimum op count has run).  Every
op's output is checked, and the outputs of the first ops are digested.

``--trace 0`` reports the end-to-end metrics with no tracing installed.
``--trace 1`` runs every op twice on the same inputs, once untraced and once
with spans wrapped around the library's module boundaries (``spans.py``),
in alternating order; it reports the per-layer metrics and the tracing
overhead, and fails an op whose traced output differs from its untraced
output.

Human-readable lines go to standard output; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full
record, with the aggregated spans, is written under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy is imported.
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up (input generation and warm-up) is repeated and its median reported.
SETUP_REPEATS = 3
# The tail percentile is the highest with this many op times beyond it.
TAIL_BEYOND = 10


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def _import_library() -> float:
    """Import sampled_mbr from this checkout's src/; returns seconds taken."""
    if not (SRC / "sampled_mbr" / "__init__.py").is_file():
        raise SystemExit(f"error: no sampled_mbr package under {SRC}")
    started = perf_counter()
    sys.path.insert(0, str(SRC))
    import sampled_mbr

    elapsed = perf_counter() - started
    if Path(sampled_mbr.__file__).resolve().parent != SRC / "sampled_mbr":
        raise SystemExit(f"error: imported {sampled_mbr.__file__}, not {SRC}")
    return elapsed


def _environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = sum(
        len(p.read_bytes().splitlines())
        for p in sorted((SRC / "sampled_mbr").glob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def _tail(times: list[float]) -> tuple[float, str]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Below 2 * TAIL_BEYOND samples that percentile would lie under the
    median, so the maximum is reported instead and labelled so.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n >= 2 * TAIL_BEYOND:
        pct = 100.0 * (n - TAIL_BEYOND) / n
        return ordered[n - TAIL_BEYOND - 1], f"p{pct:.1f} of {n} ops"
    return ordered[-1], f"max of {n} ops, fewer than {2 * TAIL_BEYOND}"


class Run:
    """One benchmark run: set-up, the op loop, checks and reporting."""

    def __init__(self, workload, seconds: float, trace: bool):
        self.workload = workload
        self.seconds = seconds
        self.tracer = None
        if trace:
            from spans import Tracer

            self.tracer = Tracer()
        self.walls: list[float] = []
        self.rates: list[float] = []
        self.digests: list[bytes] = []
        self.quality: dict[str, list[float]] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.untraced_s = 0.0
        self.selftest = "not run"

    def _execute(self, inp, traced: bool):
        """Run and check one execution.

        Returns (outcome, wall seconds, output), or (None, 0.0, traceback)
        when the op or its check raised.
        """
        w = self.workload
        try:
            if traced:
                out = self.tracer.run(w.run, inp)
                wall = self.tracer.last_wall_s
            else:
                t0 = perf_counter()
                out = w.run(inp)
                wall = perf_counter() - t0
            return w.check(inp, out), wall, out
        except Exception:
            return None, 0.0, traceback.format_exc(limit=4)

    def _op(self, index: int):
        w = self.workload
        inp = w.make_input(index)
        order = [False]
        if self.tracer is not None:
            order = [False, True] if index % 2 == 0 else [True, False]
        results = {traced: self._execute(inp, traced) for traced in order}
        problems = []
        for traced, (outcome, _, detail) in results.items():
            if outcome is None:
                kind = "traced" if traced else "untraced"
                problems.append(f"raised ({kind}):\n{detail}")
            else:
                problems += outcome.problems
        outcome, wall, out = results[False]
        self.attempted += 1
        if outcome is not None:
            # A wrong output still took its time.
            self.walls.append(wall)
            self.rates.append(outcome.work / wall)
            for key, value in outcome.quality.items():
                self.quality.setdefault(key, []).append(value)
        if not problems and self.tracer is not None:
            self.untraced_s += wall
            if results[True][0].digest != outcome.digest:
                problems.append("traced output differs from untraced output")
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"op {index}: " + "; ".join(problems))
            return
        if index < w.min_ops:
            self.digests.append(outcome.digest)
        if index == 0:
            # A check must reject the same output against a corrupted
            # expected value.
            corrupted = w.check(inp, out, corrupt=True)
            self.selftest = "ok" if corrupted.problems else "corruption not detected"

    def loop(self):
        started = perf_counter()
        index = 0
        while (
            index < self.workload.min_ops
            or perf_counter() - started < self.seconds
        ):
            self._op(index)
            index += 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    import_s = _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    env = _environment()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        prepare_s = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            workload.prepare()
            prepare_s.append(perf_counter() - t0)
        setup_s = import_s + statistics.median(prepare_s)
        run = Run(workload, args.seconds, bool(args.trace))
        run.loop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digest = hashlib.sha256(b"".join(run.digests)).hexdigest()
    correct = run.failed == 0 and run.selftest == "ok"
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}"]
    lines += [f"env {k} {v}" for k, v in env.items()]
    lines.append(f"outputs_sha256 {digest} (ops 0..{workload.min_ops - 1})")
    lines.append(f"selftest {run.selftest}")
    lines.append(
        f"ops attempted {run.attempted} failed {run.failed} "
        f"fail_ratio {run.failed / run.attempted!r}"
    )
    lines += run.problems

    metrics: dict[str, tuple[float, str]] = {}
    named: dict[str, tuple[float, str]] = {}
    if run.tracer is None:
        if run.walls:
            tail, tail_label = _tail(run.walls)
            metrics = {
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "MB",
                ),
                "op_p50_ms": (1000.0 * statistics.median(run.walls), "ms"),
                "op_tail_ms": (1000.0 * tail, "ms"),
                "work_per_s": (statistics.median(run.rates), "1/s"),
            }
            lines.append(f"op_tail_ms is the {tail_label}")
            named = workload.figures(run.walls, run.rates, run.quality)
    else:
        tracer = run.tracer
        metrics = tracer.per_layer()
        metrics["trace.overhead_ratio"] = (
            tracer.wall_s / run.untraced_s if run.untraced_s else 0.0, "ratio"
        )
        gap = abs(tracer.accounted_s() - tracer.wall_s)
        if gap > 1e-6 * max(tracer.wall_s, 1.0):
            correct = False
            lines.append(f"trace accounting is off by {gap!r} s")
    for name, (value, unit) in {**metrics, **named}.items():
        lines.append(f"metric {name} {value!r} {unit}")

    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "outputs_sha256": digest,
        "op_digests": [d.hex() for d in run.digests],
        "op_wall_s": run.walls,
        "quality": run.quality,
        "metrics": reported,
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "spans": run.tracer.spans() if run.tracer is not None else None,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print("\n".join(lines))
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": reported,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
