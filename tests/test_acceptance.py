"""Acceptance gate: one test per shipped guarantee.

Each test prints a single [PASS]/[FAIL] line with the measured values, then
asserts. Heavyweight artifacts (the full scaled curriculum run) are shared
module-wide so the whole gate stays inside a desk-scale time budget.
"""

import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from aqakit.evaluate import (LabelSet, accuracy, classify_corpus,
                             mean_average_precision, micro_f1, pearson)
from aqakit.forge import (AudioMeta, QAPair, SoundEvent, build_aig_prompt,
                          compute_dataset_stats, detect_unanswerable,
                          sample_audioset, serialize_meta)
from aqakit.frontend import (TOKEN_RATE_HZ, Waveform, compute_fbank,
                             patchify)
from aqakit.model import (AudioTextLm, BOS_ID, DecoderConfig, EOS_ID,
                          GenerationConfig, count_lora_params,
                          finite_diff_check, generate, llama_7b_geometry,
                          sample_next_id)
from aqakit.training import (StageConfig, TrainerConfig, default_curriculum,
                             make_example, run_curriculum, run_stage,
                             scale_curriculum)
from exact_match import ExactMatchProvider

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture()
def report(capsys):
    def _report(name: str, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        assert ok, f"{name}: {detail}"
    return _report


@pytest.fixture(scope="module")
def curriculum_run(demo_corpus):
    """One full scaled curriculum on the 200-pair closed-ended demo corpus,
    read back from its WAV files as `aqakit train` reads it."""
    items = demo_corpus().items
    assert len(items) == 200 and all(it.pair.closed for it in items)
    model = AudioTextLm(DecoderConfig(), seed=0,
                        out_scale=0.35, lora_a_scale=0.5)
    base0 = {k: v.copy() for k, v in model.base.items()}
    stages = scale_curriculum(default_curriculum(), 1e-4)
    t0 = time.perf_counter()
    reports = run_curriculum(model, items, stages,
                             TrainerConfig(batch_size=8, seed=0))
    wall = time.perf_counter() - t0
    return {"model": model, "base0": base0, "reports": reports, "wall": wall}


def test_shape_chain_ten_second_waveform(report):
    rng = np.random.default_rng(5)
    t0 = time.perf_counter()
    w = Waveform(rng.uniform(-1.0, 1.0, 16_000 * 10))
    spec = compute_fbank(w)
    grid = patchify(spec)
    cfg = DecoderConfig(d_audio=24, d_model=48)
    rows, _ = AudioTextLm(cfg)._audio_rows(grid)
    wall = time.perf_counter() - t0
    n_patches = grid.patches.shape[0] * grid.patches.shape[1]
    ok = (spec.frames.shape == (1024, 128)
          and grid.patches.shape[:2] == (64, 8) and n_patches == 512
          and rows.shape == (32, 48)
          and TOKEN_RATE_HZ * 10 == cfg.n_audio_tokens
          and wall < 1.0)
    report("shape chain", ok,
           f"fbank {spec.frames.shape}, {n_patches} patches "
           f"{grid.patches.shape[:2]}, {rows.shape[0]} audio rows of width "
           f"{rows.shape[1]} at {TOKEN_RATE_HZ} Hz in {wall:.2f}s (< 1s)")


def test_adapter_param_count_7b_geometry(report):
    count = count_lora_params(llama_7b_geometry())
    report("adapter parameter count", count == 4_194_304,
           f"{count:,} (expected 4,194,304 exactly)")


def test_gradient_check_toy_model(report, demo_corpus):
    model = AudioTextLm(DecoderConfig(), seed=1)
    ex = make_example(demo_corpus(2).items[0], 108)
    t0 = time.perf_counter()
    err = finite_diff_check(model, ex, epsilon=1e-5)
    wall = time.perf_counter() - t0
    ok = err < 1e-4 and wall < 60.0
    report("gradient check", ok,
           f"max relative error {err:.2e} (< 1e-4) in {wall:.1f}s (< 60s)")


def test_frozen_base_invariance(report, curriculum_run, demo_corpus):
    model, base0 = curriculum_run["model"], curriculum_run["base0"]
    frozen_ok = all(np.array_equal(model.base[k], base0[k]) for k in base0)

    # with every B still zero, scrambling or zeroing A must not move a bit
    cfg = DecoderConfig()
    fresh = AudioTextLm(cfg, seed=6)
    audio = demo_corpus(2).items[0].audio
    ids = np.array([BOS_ID, 104, 105, 106])
    ref = fresh.forward(audio, ids)
    rng = np.random.default_rng(8)
    for name in fresh.lora:
        if name.endswith("lora_A"):
            fresh.lora[name] = rng.normal(size=fresh.lora[name].shape)
    scrambled = fresh.forward(audio, ids)
    for name in fresh.lora:
        if name.endswith("lora_A"):
            fresh.lora[name] = np.zeros_like(fresh.lora[name])
    adapter_free = fresh.forward(audio, ids)
    zero_ulp = (np.array_equal(ref, scrambled)
                and np.array_equal(ref, adapter_free))
    report("frozen-base invariance", frozen_ok and zero_ulp,
           f"base tensors bit-identical after full run: {frozen_ok}; "
           f"zero-B forward matches adapter-free forward to 0 ulps: "
           f"{zero_ulp}")


def test_curriculum_table(report):
    got = [(s.stage, s.trainable, s.tasks, s.n_samples, s.lr, s.epochs)
           for s in default_curriculum()]
    want = [
        (1, "projection_only", "clf_and_desc", 1_200_000, 1e-3, 2),
        (2, "all_non_lm", "clf_and_desc", 1_200_000, 1e-4, 2),
        (3, "all_non_lm", "all_closed", 1_900_000, 1e-4, 1),
        (4, "all_non_lm", "all", 5_600_000, 1e-4, 1),
    ]
    report("curriculum table", got == want,
           "4 stages field-for-field (trainable sets, task filters, "
           "1.2M/1.2M/1.9M/5.6M samples, 1e-3/1e-4/1e-4/1e-4, 2/2/1/1 epochs)"
           if got == want else f"got {got}")


def test_desk_scale_training(report, curriculum_run, demo_corpus):
    reports = curriculum_run["reports"]
    first = reports[0].epoch_mean_losses[0]
    last = reports[-1].epoch_mean_losses[-1]
    reduction = 1.0 - last / first

    # frozen memorization recipe: 10 examples, single-example steps
    items = demo_corpus(2).items[:10]
    model = AudioTextLm(DecoderConfig(), seed=0,
                        out_scale=0.35, lora_a_scale=0.5)
    stage = StageConfig(4, "all", 10, 2e-2, 200)
    t0 = time.perf_counter()
    run_stage(model, items, stage, TrainerConfig(batch_size=1, seed=0))
    overfit_wall = time.perf_counter() - t0
    overfit = float(np.mean([model.loss_only(make_example(it, 108))
                             for it in items]))

    total_wall = curriculum_run["wall"] + overfit_wall
    ok = reduction >= 0.5 and overfit < 0.1 and total_wall < 600.0
    report("desk-scale training", ok,
           f"stage-4 mean loss {last:.3f} vs first epoch {first:.3f}: "
           f"reduction {100 * reduction:.1f}% (needs >= 50%); "
           f"10-example overfit {overfit:.3f} (< 0.1); "
           f"runtime {total_wall:.0f}s (< 600s)")


def test_selection_matches_bruteforce_oracle(report):
    rng = np.random.default_rng(77)
    mismatches = 0
    for _ in range(100):
        classes = [f"c{j}" for j in range(int(rng.integers(1, 11)))]
        label_counts = {c: int(rng.integers(1, 21)) for c in classes}
        labels_of = {
            f"a{j:02d}": list(rng.choice(
                classes, size=int(rng.integers(1, min(len(classes), 3) + 1)),
                replace=False))
            for j in range(int(rng.integers(1, 51)))}
        n = int(rng.integers(1, len(labels_of) + 1))
        got = sample_audioset(label_counts, labels_of, n)
        weights = {a: sum(Fraction(1, label_counts[c]) for c in cs)
                   for a, cs in labels_of.items()}
        ranked = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
        mismatches += got != [a for a, _ in ranked[:n]]
    report("selection oracle", mismatches == 0,
           f"{mismatches} mismatches over 100 random instances "
           "(exact list equality, ties by ascending id)")


AMBULANCE_CAPTION = ("An ambulance siren echoes while traffic noise fades, "
                     "and an engine revs.")

AMBULANCE_META_STRING = (
    "Sound Events: "
    "Sound of Ambulance (siren) (High-pitched and wailing): [0.0s-1.0s]; "
    "Sound of Traffic noise, roadway noise (Droning, loud and intrusive): "
    "[0.0s-10.0s]; "
    "Sound of Accelerating, revving, vroom (High-pitched, short and intense): "
    "[2.0s-10.0s]; "
    "Sound of Generic impact sounds (Loud and sharp): [6.7s-6.8s]. "
    "Description: " + AMBULANCE_CAPTION
)


def _ambulance_meta() -> AudioMeta:
    return AudioMeta(
        audio_id="amb01",
        events=[
            SoundEvent("Ambulance (siren)", "High-pitched and wailing",
                       0.0, 1.0),
            SoundEvent("Traffic noise, roadway noise",
                       "Droning, loud and intrusive", 0.0, 10.0),
            SoundEvent("Accelerating, revving, vroom",
                       "High-pitched, short and intense", 2.0, 10.0),
            SoundEvent("Generic impact sounds", "Loud and sharp", 6.7, 6.8),
        ],
        caption=AMBULANCE_CAPTION,
    )


def test_prompt_and_meta_fidelity(report):
    golden = (FIXTURES / "aig_prompt_golden.txt").read_text(encoding="utf-8")
    prompt_ok = build_aig_prompt(_ambulance_meta()) + "\n" == golden
    meta_ok = serialize_meta(_ambulance_meta()) == AMBULANCE_META_STRING
    report("prompt fidelity", prompt_ok and meta_ok,
           f"instruction prompt byte-for-byte vs golden fixture: {prompt_ok};"
           f" serialized meta byte-for-byte: {meta_ok}")


def test_dataset_statistics(report):
    closed = [QAPair("a", f"c{i}", f"x{i}", task="classification")
              for i in range(1918)]
    open_ = [QAPair("a", f"o{i}", f"y{i}", task="open_ended")
             for i in range(3764)]
    stats = compute_dataset_stats(closed + open_)
    split_ok = (stats.total_pairs == 5682
                and abs(stats.closed_percent - 33.8) < 0.1
                and abs(stats.open_percent - 66.2) < 0.1)

    rng = np.random.default_rng(9)
    unique_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        qs = [f"q{int(rng.integers(0, 8))}" for _ in range(n)]
        answers = [f"x{int(rng.integers(0, 8))}" for _ in range(n)]
        pairs = [QAPair("a", q, x, task="open_ended")
                 for q, x in zip(qs, answers)]
        s = compute_dataset_stats(pairs)
        unique_ok &= s.unique_question_fraction == len(set(qs)) / n
        unique_ok &= s.unique_answer_fraction == len(set(answers)) / n
    report("dataset statistics", split_ok and unique_ok,
           f"closed {stats.closed_percent:.2f}% / open "
           f"{stats.open_percent:.2f}% of {stats.total_pairs} "
           f"(33.8/66.2 within 0.1pp: {split_ok}); uniqueness equals the "
           f"set-based oracle on 1000 random manifests: {unique_ok}")


def test_metric_oracles(report):
    map_a = mean_average_precision(np.array([[0.9], [0.8], [0.7]]),
                                   np.array([[1], [0], [1]]))
    map_b = mean_average_precision(np.array([[0.8], [0.9], [0.7]]),
                                   np.array([[1], [0], [1]]))
    map_ok = abs(map_a - 5 / 6) < 1e-9 and abs(map_b - 7 / 12) < 1e-9

    f1_ok = abs(micro_f1([{"a"}, {"b"}, set()],
                         [{"a"}, set(), {"b"}]) - 0.5) < 1e-9
    acc_ok = (abs(accuracy([0, 1, 1, 0], [0, 1, 0, 0]) - 0.75) < 1e-9
              and accuracy([2, 2], [2, 2]) == 1.0)
    r_ok = abs(pearson([1, 2, 3, 4], [2, 1, 4, 3]) - 0.6) < 1e-9

    labels = LabelSet(("dog", "cat", "rain"))
    result = classify_corpus(["cat", "rain", "dog", "cat"], labels,
                             ExactMatchProvider(dimension=16))
    exact_acc = accuracy(result.predictions, [1, 2, 0, 1])
    report("metric oracles",
           map_ok and f1_ok and acc_ok and r_ok and exact_acc == 1.0,
           f"mAP {map_a:.4f}/{map_b:.4f} vs 5/6 and 7/12 ({map_ok}); "
           f"micro-F1 0.5 hand case ({f1_ok}); accuracy oracle ({acc_ok}); "
           f"Pearson 0.6 hand case ({r_ok}); verbatim labels through the "
           f"exact-match provider score accuracy {exact_acc}")


def test_sampling_distribution(report, demo_corpus):
    logits = np.array([0.5, -0.3, 1.2, 0.0])
    # at temperature 1 the mass before the least likely id is 0.89 < top_p,
    # so the nucleus keeps all four ids and the draw follows the softmax
    cfg = GenerationConfig(temperature=1.0)
    rng = np.random.default_rng(123)
    counts = np.zeros(4)
    for _ in range(100_000):
        counts[sample_next_id(logits, [], cfg, rng)] += 1
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    tv = 0.5 * float(np.abs(counts / counts.sum() - probs).sum())

    model = AudioTextLm(DecoderConfig(), seed=1)
    audio = demo_corpus(2).items[0].audio
    greedy_cfg = GenerationConfig(temperature=0.0, max_new_tokens=6)
    got = list(generate(model, audio, np.array([BOS_ID]), greedy_cfg))
    want, prefix = [], [BOS_ID]
    for _ in range(6):
        step = model.forward(audio, np.array(prefix + want, dtype=np.int64))[-1]
        for tid in set(want):
            step[tid] = step[tid] / 1.1 if step[tid] > 0 else step[tid] * 1.1
        want.append(int(np.argmax(step)))
        if want[-1] == EOS_ID:
            break
    report("sampling distribution", tv < 0.01 and got == want,
           f"total variation {tv:.4f} over 1e5 draws on a 4-token "
           f"vocabulary (< 0.01); temperature-0 output equals stepwise "
           f"argmax after the 1.1 repetition penalty exactly: {got == want}")


def test_unanswerable_detection(report):
    positives = [
        "It cannot be determined from the audio that the bell type is brass.",
        "The audio clip does not provide enough information to determine "
        "the type of the bell.",
    ]
    negatives = ["The bell rings three times.", "A dog barks in the yard."]
    detect_ok = (all(detect_unanswerable(a) for a in positives)
                 and not any(detect_unanswerable(a) for a in negatives))

    answers = positives * 3 + negatives * 17   # 6 planted among 40
    pairs = [QAPair("a", f"q{i}", a, task="open_ended",
                    unanswerable=detect_unanswerable(a))
             for i, a in enumerate(answers)]
    frac = compute_dataset_stats(pairs).unanswerable_fraction
    frac_ok = frac == 6 / 40
    report("unanswerable detection", detect_ok and frac_ok,
           f"both quoted phrasings flagged and factual answers not: "
           f"{detect_ok}; measured fraction {frac} equals planted 6/40: "
           f"{frac_ok}")
