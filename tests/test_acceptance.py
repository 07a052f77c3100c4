"""Acceptance gate: ten behavioral criteria with pinned tolerances.

Each test prints one ``criterion N (<name>): PASS|FAIL`` line on the real
terminal (bypassing capture) and then asserts, so a full run shows the
scorecard even when everything is green.
"""

import json
import math
import time
from collections import Counter

import numpy as np

from sampled_mbr import (
    FrameErrorLoss,
    TaskConfig,
    TrainConfig,
    WordEditLoss,
    build_score_fst,
    build_task,
    compose,
    count_paths,
    edge_loss_annotation,
    edit_distance,
    enumerate_paths,
    expected_additive_loss,
    expected_loss_exact,
    expected_loss_gradient_exact,
    format_fst_text,
    run_experiment,
    sample_paths,
    sampled_estimate,
)
from sampled_mbr.cli import main as cli_main

from helpers import (
    ShiftedLoss,
    loss_shift_check,
    random_acyclic_wfst,
    random_parallel_fixture,
    random_task,
    reweight_stochastic,
    two_path_fixture,
    two_path_lattice,
    uniform_lattice,
    word_chain_decoder,
)


def _report(capsys, number: int, name: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"\ncriterion {number} ({name}): {'PASS' if ok else 'FAIL'}")


# ---------------------------------------------------------------------------
# 1. Reweighting makes every reachable state locally normalized.
# ---------------------------------------------------------------------------


def test_criterion_1_stochastic_reweighting(capsys):
    rng = np.random.default_rng(0)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        fst = random_acyclic_wfst(rng, max_states=30)
        pushed = reweight_stochastic(fst)
        # Walk only positive-probability edges; states beyond them are
        # never visited by the sampler.
        reachable = {pushed.initial}
        frontier = [pushed.initial]
        while frontier:
            state = frontier.pop()
            for edge_id in pushed.out_edge_ids(state):
                edge = pushed.edges[edge_id]
                if edge.log_weight == float("-inf"):
                    continue
                if edge.dst not in reachable:
                    reachable.add(edge.dst)
                    frontier.append(edge.dst)
        for state in reachable:
            if state == pushed.final:
                continue
            weights = [
                pushed.edges[i].log_weight for i in pushed.out_edge_ids(state)
            ]
            total = float(np.logaddexp.reduce(weights))
            worst = max(worst, abs(total))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(capsys, 1, "stochastic reweighting", ok)
    assert worst <= 1e-9
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. Sampled path frequencies track enumerated probabilities.
# ---------------------------------------------------------------------------


def _small_fixtures() -> list:
    rng = np.random.default_rng(8)
    fixtures = [
        two_path_fixture(),
        two_path_lattice()[0],
        uniform_lattice(2, 2),
        build_score_fst(rng.normal(0.0, 1.0, size=(3, 2))),
        build_score_fst(rng.normal(0.0, 2.0, size=(1, 4))),
        compose(
            build_score_fst(rng.normal(0.0, 1.0, size=(2, 2))),
            word_chain_decoder(2, 2, 1),
        ),
        random_parallel_fixture(rng),
        random_parallel_fixture(rng),
        random_parallel_fixture(rng),
        build_score_fst(rng.normal(0.0, 1.0, size=(2, 3))),
    ]
    return fixtures


def test_criterion_2_sampler_fidelity(capsys):
    started = time.perf_counter()
    draws = 100_000
    worst_tv = 0.0
    for index, fst in enumerate(_small_fixtures()):
        paths = enumerate_paths(fst, 10)
        assert len(paths) <= 10
        log_weights = np.array([p.log_weight for p in paths])
        shifted = np.exp(log_weights - log_weights.max())
        probs = shifted / shifted.sum()
        counts = Counter(sample_paths(fst, 100 + index, draws))
        assert sum(counts.values()) == draws
        assert set(counts) <= set(paths)
        tv = 0.5 * sum(
            abs(counts.get(path, 0) / draws - p)
            for path, p in zip(paths, probs)
        )
        worst_tv = max(worst_tv, tv)
    elapsed = time.perf_counter() - started
    ok = worst_tv < 0.01 and elapsed < 30.0
    _report(capsys, 2, "sampler fidelity", ok)
    assert worst_tv < 0.01
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 3. Exact gradients agree with central finite differences.
# ---------------------------------------------------------------------------


def test_criterion_3_gradient_exactness(capsys):
    rng = np.random.default_rng(7)
    started = time.perf_counter()
    eps = 1e-5
    worst_rel = 0.0
    for _ in range(20):
        lattice, z, decoder, reference = random_task(rng)
        assert count_paths(lattice) <= 100
        loss = WordEditLoss(reference)
        gradient = expected_loss_gradient_exact(lattice, loss, *z.shape)

        def value_at(scores: np.ndarray) -> float:
            recomposed = compose(build_score_fst(scores), decoder)
            return expected_loss_exact(recomposed, loss)

        for t in range(z.shape[0]):
            for q in range(z.shape[1]):
                if abs(gradient[t, q]) <= 1e-8:
                    continue
                bumped = z.copy()
                bumped[t, q] += eps
                upper = value_at(bumped)
                bumped[t, q] -= 2 * eps
                lower = value_at(bumped)
                fd = (upper - lower) / (2 * eps)
                rel = abs(gradient[t, q] - fd) / abs(gradient[t, q])
                worst_rel = max(worst_rel, rel)
    elapsed = time.perf_counter() - started
    ok = worst_rel < 1e-4 and elapsed < 60.0
    _report(capsys, 3, "gradient exactness", ok)
    assert worst_rel < 1e-4
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 4. The sampled estimator is unbiased for value and gradient.
# ---------------------------------------------------------------------------


def test_criterion_4_estimator_unbiasedness(capsys):
    lattice, _ = two_path_lattice()
    loss = WordEditLoss((1,))
    exact_value = expected_loss_exact(lattice, loss)
    exact_gradient = expected_loss_gradient_exact(lattice, loss, 1, 2)
    assert math.isclose(exact_value, 0.6, rel_tol=1e-12)
    assert np.allclose(exact_gradient, [[-0.24, 0.24]], atol=1e-12)

    reps = 1000
    values = np.empty(reps)
    gradients = np.empty((reps, 1, 2))
    for rep in range(reps):
        estimate = sampled_estimate(
            lattice, loss, 1, 2, 10, 2024, start_index=rep * 10
        )
        values[rep] = estimate.expected_loss
        gradients[rep] = estimate.gradient
    value_se = values.std(ddof=1) / math.sqrt(reps)
    value_ok = abs(values.mean() - exact_value) <= 4 * value_se
    gradient_se = gradients.std(axis=0, ddof=1) / math.sqrt(reps)
    gradient_ok = bool(
        (
            np.abs(gradients.mean(axis=0) - exact_gradient)
            <= 4 * gradient_se + 1e-15
        ).all()
    )
    ok = value_ok and gradient_ok
    _report(capsys, 4, "estimator unbiasedness", ok)
    assert value_ok
    assert gradient_ok


# ---------------------------------------------------------------------------
# 5. The VR gradient is bit-identical under additive loss shifts.
# ---------------------------------------------------------------------------


def test_criterion_5_shift_invariance(capsys):
    rng = np.random.default_rng(15)
    cases = [
        (two_path_lattice()[0], WordEditLoss((1,)), 1, 2),
        (build_score_fst(rng.normal(size=(3, 2))), WordEditLoss((1, 2)), 3, 2),
        (uniform_lattice(2, 3), WordEditLoss((3,)), 2, 3),
        (build_score_fst(rng.normal(size=(2, 2))), FrameErrorLoss((1, 2)), 2, 2),
    ]
    for _ in range(4):
        lattice, z, _, reference = random_task(rng)
        cases.append((lattice, WordEditLoss(reference), z.shape[0], z.shape[1]))
    ok = True
    for seed, (fst, loss, num_frames, num_symbols) in enumerate(cases):
        for shift in (-3.0, 7.5, 100.0):
            same = loss_shift_check(
                fst, loss, num_frames, num_symbols, 60, seed, shift
            )
            ok = ok and same
    _report(capsys, 5, "loss shift invariance", ok)
    assert ok


# ---------------------------------------------------------------------------
# 6. Centering strictly reduces gradient variance on offset losses.
# ---------------------------------------------------------------------------


def test_criterion_6_variance_reduction(capsys):
    lattice, _ = two_path_lattice()
    loss = ShiftedLoss(WordEditLoss((1,)), 10.0)  # path losses {10, 11}
    reps = 1000
    per_step = 100
    centered = np.empty((reps, 2))
    plain = np.empty((reps, 2))
    for rep in range(reps):
        start = rep * 2 * per_step
        centered[rep] = sampled_estimate(
            lattice, loss, 1, 2, per_step, 50, start
        ).gradient.ravel()
        plain[rep] = sampled_estimate(
            lattice,
            loss,
            1,
            2,
            per_step,
            51,
            start,
            variance_reduction=False,
        ).gradient.ravel()
    centered_var = float(centered.var(axis=0, ddof=1).sum())
    plain_var = float(plain.var(axis=0, ddof=1).sum())
    ok = centered_var < plain_var
    _report(capsys, 6, "variance reduction", ok)
    assert ok


# ---------------------------------------------------------------------------
# 7. The additive-loss recursion matches brute-force enumeration.
# ---------------------------------------------------------------------------


def test_criterion_7_additive_loss_oracle(capsys):
    rng = np.random.default_rng(12)
    shapes = [
        (num_frames, num_symbols)
        for num_frames in (2, 3, 4, 5)
        for num_symbols in (2, 3, 4)
        if num_symbols**num_frames <= 1000
    ]
    worst_rel = 0.0
    checked = 0
    while checked < 20:
        num_frames, num_symbols = shapes[checked % len(shapes)]
        z = rng.normal(0.0, 1.5, size=(num_frames, num_symbols))
        fst = build_score_fst(z)
        reference = tuple(
            int(q) for q in rng.integers(1, num_symbols + 1, size=num_frames)
        )
        costs = edge_loss_annotation(fst, reference)
        _, recursion_value = expected_additive_loss(fst, costs)
        brute = expected_loss_exact(fst, FrameErrorLoss(reference))
        worst_rel = max(worst_rel, abs(recursion_value - brute) / abs(brute))
        checked += 1
    ok = worst_rel < 1e-10
    _report(capsys, 7, "additive-loss oracle", ok)
    assert ok


# ---------------------------------------------------------------------------
# 8. Edit distance agrees with an independent recursive oracle.
# ---------------------------------------------------------------------------


def _recursive_distance(a, b, memo):
    if not a:
        return len(b)
    if not b:
        return len(a)
    key = (a, b)
    cached = memo.get(key)
    if cached is not None:
        return cached
    substitution = _recursive_distance(a[1:], b[1:], memo) + (a[0] != b[0])
    deletion = _recursive_distance(a[1:], b, memo) + 1
    insertion = _recursive_distance(a, b[1:], memo) + 1
    value = min(substitution, deletion, insertion)
    memo[key] = value
    return value


def test_criterion_8_edit_distance_oracle(capsys):
    from itertools import product

    sequences = [
        seq
        for length in range(6)
        for seq in product((1, 2, 3), repeat=length)
    ]
    assert len(sequences) == 364
    memo = {}
    ok = all(
        edit_distance(a, b) == _recursive_distance(a, b, memo)
        for a in sequences
        for b in sequences
    )
    # Classic spot checks, letters mapped to integer tokens.
    kitten = (10, 11, 12, 12, 13, 14)
    sitting = (15, 11, 12, 12, 11, 14, 16)
    ok = ok and edit_distance(kitten, sitting) == 3
    sunday = (1, 2, 3, 4, 5, 6)
    saturday = (1, 5, 7, 2, 8, 4, 5, 6)
    ok = ok and edit_distance(sunday, saturday) == 3
    _report(capsys, 8, "edit distance oracle", ok)
    assert ok


# ---------------------------------------------------------------------------
# 9. Training reduces the dev objective for both loss arms.
# ---------------------------------------------------------------------------


def test_criterion_9_end_to_end_training(capsys):
    started = time.perf_counter()
    word_config = TrainConfig()
    task_config = TaskConfig()
    dataset = build_task(word_config, task_config)
    word_records, _ = run_experiment(dataset, word_config)
    word_ok = (
        word_records[0].exact_expected_loss > 0
        and word_records[-1].exact_expected_loss
        < 0.5 * word_records[0].exact_expected_loss
    )
    frame_config = TrainConfig(loss="frame-error")
    frame_records, _ = run_experiment(dataset, frame_config)
    frame_ok = (
        frame_records[-1].exact_expected_loss
        < frame_records[0].exact_expected_loss
    )
    elapsed = time.perf_counter() - started
    ok = word_ok and frame_ok and elapsed < 60.0
    _report(capsys, 9, "end-to-end training", ok)
    assert word_ok
    assert frame_ok
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 10. Every CLI command is byte-deterministic given flags and seed.
# ---------------------------------------------------------------------------


def test_criterion_10_cli_determinism(capsys, tmp_path):
    decoder = tmp_path / "dec.fst"
    decoder.write_text(format_fst_text(word_chain_decoder(2, 2, 2)))
    logits = tmp_path / "z.csv"
    logits.write_text("0.3,-0.4\n-1.1,0.9\n")
    reference = tmp_path / "ref.txt"
    reference.write_text("1 2\n")
    config = tmp_path / "config.txt"
    config.write_text(
        "steps = 6\nsamples_per_step = 25\nseed = 1\neval_interval = 3\n"
        "vocab_size = 2\nframes = 3\nclusters = 2\nfeature_dim = 3\n"
        "num_utterances = 12\nnoise = 0.2\n"
    )

    def command(tag: str) -> list[tuple[list[str], list]]:
        return [
            (
                [
                    "estimate", "--fst", str(decoder), "--logits", str(logits),
                    "--ref", str(reference), "--samples", "300", "--seed", "7",
                    "--exact", "--out", str(tmp_path / f"est_{tag}.json"),
                ],
                [tmp_path / f"est_{tag}.json"],
            ),
            (
                [
                    "gradcheck", "--fst", str(decoder), "--logits", str(logits),
                    "--ref", str(reference),
                    "--out", str(tmp_path / f"gc_{tag}.txt"),
                ],
                [tmp_path / f"gc_{tag}.txt"],
            ),
            (
                [
                    "sample", "--fst", str(decoder), "--logits", str(logits),
                    "--samples", "400", "--seed", "5",
                    "--out", str(tmp_path / f"hist_{tag}.txt"),
                ],
                [tmp_path / f"hist_{tag}.txt"],
            ),
            (
                [
                    "train", "--config", str(config),
                    "--curve", str(tmp_path / f"curve_{tag}.csv"),
                    "--model", str(tmp_path / f"model_{tag}.txt"),
                ],
                [tmp_path / f"curve_{tag}.csv", tmp_path / f"model_{tag}.txt"],
            ),
            (
                [
                    "inspect", "--fst", str(decoder), "--json",
                    "--out", str(tmp_path / f"info_{tag}.json"),
                ],
                [tmp_path / f"info_{tag}.json"],
            ),
        ]

    ok = True
    for (argv_a, files_a), (argv_b, files_b) in zip(
        command("a"), command("b")
    ):
        assert cli_main(argv_a) == 0
        assert cli_main(argv_b) == 0
        for file_a, file_b in zip(files_a, files_b):
            ok = ok and file_a.read_bytes() == file_b.read_bytes()
    # The estimate report really did carry sampling results.
    parsed = json.loads((tmp_path / "est_a.json").read_text())
    assert parsed["num_samples"] == 300
    _report(capsys, 10, "CLI determinism", ok)
    assert ok
