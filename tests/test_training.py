"""Curriculum config, LR schedule, and the training loop."""

import json
import math

import numpy as np
import pytest

from aqakit import synthetic
from aqakit.frontend import compute_fbank, patchify, read_wav
from aqakit.model import AudioTextLm, DecoderConfig, load_checkpoint
from aqakit.training import (CorpusItem, StageConfig, TrainerConfig,
                             default_curriculum, filter_tasks, lr_at,
                             make_example, read_curriculum, run_curriculum,
                             run_stage, scale_curriculum, validate_curriculum,
                             warmup_steps)
from aqakit.forge import QAPair, read_manifest


# -- curriculum table -----------------------------------------------------------

def test_default_curriculum_matches_published_table():
    stages = default_curriculum()
    expected = [
        (1, "projection_only", "clf_and_desc", 1_200_000, 1e-3, 2),
        (2, "all_non_lm", "clf_and_desc", 1_200_000, 1e-4, 2),
        (3, "all_non_lm", "all_closed", 1_900_000, 1e-4, 1),
        (4, "all_non_lm", "all", 5_600_000, 1e-4, 1),
    ]
    assert [(s.stage, s.trainable, s.tasks, s.n_samples, s.lr, s.epochs)
            for s in stages] == expected
    validate_curriculum(stages)


def test_stage_config_validation():
    with pytest.raises(ValueError):
        StageConfig(2, "everything", 10, 1e-3, 1)
    with pytest.raises(ValueError):
        StageConfig(2, "all", 0, 1e-3, 1)
    with pytest.raises(ValueError):
        StageConfig(2, "all", 10, -1e-3, 1)


def test_validate_curriculum_rejects_bad_order():
    stages = default_curriculum()
    with pytest.raises(ValueError, match="numbered"):
        validate_curriculum(stages[::-1])
    shrinking = [stages[0],
                 StageConfig(2, "all", 10, 1e-4, 1),
                 StageConfig(3, "clf_and_desc", 10, 1e-4, 1)]
    with pytest.raises(ValueError, match="openness"):
        validate_curriculum(shrinking)


def test_scale_curriculum_identity_at_factor_one():
    assert scale_curriculum(default_curriculum(), 1.0) == default_curriculum()


def test_scale_curriculum_tiny_factor_budgets():
    scaled = scale_curriculum(default_curriculum(), 1e-5)
    assert [s.n_samples for s in scaled] == [12, 12, 19, 56]
    # everything but the budgets is untouched
    for base, s in zip(default_curriculum(), scaled):
        assert (s.stage, s.trainable, s.tasks, s.lr, s.epochs) == \
            (base.stage, base.trainable, base.tasks, base.lr, base.epochs)
    # inter-stage ratio preserved up to flooring
    assert scaled[3].n_samples / scaled[0].n_samples == \
        pytest.approx(5_600_000 / 1_200_000, abs=0.1)


def test_scale_curriculum_floors_at_one_sample():
    scaled = scale_curriculum(default_curriculum(), 1e-9)
    assert [s.n_samples for s in scaled] == [1, 1, 1, 1]


def test_scale_curriculum_rejects_bad_factor():
    for factor in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            scale_curriculum(default_curriculum(), factor)


def test_curriculum_file_roundtrip(tmp_path):
    path = tmp_path / "curriculum.ini"
    path.write_text("[stage1]\ntasks = clf_and_desc\nn_samples = 120\n"
                    "lr = 0.001\nepochs = 2\n\n"
                    "[stage2]\ntasks = clf_and_desc\nn_samples = 120\n"
                    "lr = 0.0001\nepochs = 2\n\n"
                    "[stage3]\ntasks = all_closed\nn_samples = 190\n"
                    "lr = 0.0001\nepochs = 1\n\n"
                    "[stage4]\ntasks = all\nn_samples = 560\n"
                    "lr = 0.0001\nepochs = 1\n")
    stages = read_curriculum(path)
    assert stages == scale_curriculum(default_curriculum(), 1e-4)
    assert [s.trainable for s in stages] == ["projection_only"] + 3 * ["all_non_lm"]


@pytest.mark.parametrize("lr", [math.nan, math.inf])
def test_stage_config_rejects_a_non_finite_lr(lr):
    with pytest.raises(ValueError, match="lr must be positive and finite"):
        StageConfig(2, "all", 10, lr, 1)


def test_read_curriculum_rejects_garbage(tmp_path):
    path = tmp_path / "curriculum.ini"
    path.write_text("[stage1]\ntrainable = projection_only\n")
    with pytest.raises(ValueError):
        read_curriculum(path)


@pytest.mark.parametrize("extra", ["trainable = all_non_lm", "lr_decay = 0.5"])
def test_read_curriculum_rejects_unknown_keys(tmp_path, extra):
    path = tmp_path / "curriculum.ini"
    path.write_text("[stage1]\ntasks = clf_and_desc\nn_samples = 4\n"
                    f"lr = 0.001\nepochs = 1\n{extra}\n")
    key = extra.split(" =")[0]
    with pytest.raises(ValueError) as info:
        read_curriculum(path)
    assert str(info.value) == f"{path}: [stage1]: unknown key {key!r}"


# -- task filters ---------------------------------------------------------------

def _manifest_20_per_kind():
    rows = []
    for kind in ("classification", "acoustic_features", "caption",
                 "temporal", "open_ended"):
        rows += [QAPair(f"a{i}", f"q{kind}{i}", "ans", task=kind) for i in range(20)]
    return rows


def test_filter_counts_on_balanced_manifest():
    rows = _manifest_20_per_kind()
    clf = filter_tasks(rows, StageConfig(1, "clf_and_desc", 10, 1e-3, 1))
    closed = filter_tasks(rows, StageConfig(3, "all_closed", 10, 1e-4, 1))
    everything = filter_tasks(rows, StageConfig(4, "all", 10, 1e-4, 1))
    assert (len(clf), len(closed), len(everything)) == (40, 80, 100)
    assert all(r.task in ("classification", "acoustic_features") for r in clf)
    assert not any(r.task == "open_ended" for r in closed)
    # openness chain: each filter keeps a superset of the previous one
    assert set(id(r) for r in clf) <= set(id(r) for r in closed)
    assert set(id(r) for r in closed) <= set(id(r) for r in everything)


def test_filter_rejects_empty_result():
    rows = [QAPair("a", "q", "ans", task="open_ended")]
    with pytest.raises(ValueError, match="stage 1"):
        filter_tasks(rows, StageConfig(1, "clf_and_desc", 10, 1e-3, 1))


# -- learning-rate schedule -------------------------------------------------------

def test_lr_peak_exactly_at_warmup_end():
    w = warmup_steps(200)
    assert w == 10  # 5% of 200
    assert lr_at(w, 200, 1e-3) == 1e-3


def test_lr_hand_computed_ramp_value():
    assert lr_at(5, 200, 1e-3) == 5e-4


def test_lr_single_peak_and_piecewise_linearity():
    values = [lr_at(s, 100, 1.0) for s in range(100)]
    w = warmup_steps(100)
    assert values.index(max(values)) == w
    assert values.count(max(values)) == 1
    assert max(values) == 1.0
    # linear segments: constant second differences on each side
    ramp = np.diff(values[:w + 1])
    decay = np.diff(values[w:])
    assert np.allclose(ramp, ramp[0]) and np.allclose(decay, decay[0])


def test_lr_final_value_is_small_for_long_spans():
    assert lr_at(199, 200, 1.0) < 0.01


def test_lr_bounds_and_degenerate_spans():
    with pytest.raises(ValueError):
        lr_at(0, 0, 1.0)
    with pytest.raises(ValueError):
        lr_at(5, 5, 1.0)
    with pytest.raises(ValueError):
        lr_at(-1, 5, 1.0)
    assert lr_at(0, 1, 1e-3) == 1e-3
    assert lr_at(0, 2, 1e-3) == 0.0  # ramp starts at zero
    assert lr_at(1, 2, 1e-3) == 1e-3


def test_trainer_config_validation():
    with pytest.raises(ValueError):
        TrainerConfig(batch_size=0)


# -- the training loop -------------------------------------------------------------

@pytest.fixture(scope="module")
def demo_items(demo_corpus):
    # 8 classes x 2 clips x 5 pairs = 80 QA pairs
    return demo_corpus(2).items


def test_read_corpus_reads_each_clip_once_for_the_manifest_pairs(
        demo_corpus, monkeypatch):
    root = demo_corpus(2).root
    read = []
    read_grid = synthetic.read_grid

    def recording_read_grid(path):
        read.append(path.name)
        return read_grid(path)

    monkeypatch.setattr(synthetic, "read_grid", recording_read_grid)
    items = synthetic.read_corpus(root / "manifest.jsonl", root / "audio")
    pairs = read_manifest(root / "manifest.jsonl")
    assert [it.pair for it in items] == pairs
    assert read == sorted({f"{p.audio_id}.wav" for p in pairs})
    for it in items:
        wav = root / "audio" / f"{it.pair.audio_id}.wav"
        want = patchify(compute_fbank(read_wav(wav)))
        assert it.audio.patches.tobytes() == want.patches.tobytes()


def _model(seed=0):
    return AudioTextLm(DecoderConfig(), seed=seed)


def test_make_example_applies_text_cutoff(demo_items):
    item = demo_items[0]
    ex = make_example(item, text_cutoff=12)
    assert len(ex.text_tokens) == 12
    assert len(ex.loss_mask) == 12


def test_corpus_item_delegates_task_fields(demo_items):
    item = demo_items[0]
    assert item.task == item.pair.task
    assert item.closed == item.pair.closed


def test_run_stage_projection_only_freezes_everything_else(demo_items):
    model = _model()
    before = {name: t.copy() for name, t in model.trainable_parameters().items()}
    stage = StageConfig(1, "clf_and_desc", 16, 1e-3, 1)
    report = run_stage(model, demo_items, stage, TrainerConfig(batch_size=8))
    after = model.trainable_parameters()
    for name in after:
        if name.startswith("audio.proj."):
            assert not np.array_equal(before[name], after[name])
        else:
            assert np.array_equal(before[name], after[name])
    assert report.steps == 2


def test_run_stage_steps_invariant(demo_items):
    model = _model()
    stage = StageConfig(2, "clf_and_desc", 20, 1e-4, 2)
    report = run_stage(model, demo_items, stage, TrainerConfig(batch_size=8))
    assert report.steps == math.ceil(20 / 8) * 2
    assert len(report.epoch_mean_losses) == 2


def test_run_stage_is_deterministic(demo_items):
    def run():
        model = _model(seed=3)
        stage = StageConfig(2, "clf_and_desc", 12, 1e-4, 2)
        return run_stage(model, demo_items, stage,
                         TrainerConfig(batch_size=4, seed=11))

    first, second = run(), run()
    assert first.epoch_mean_losses == second.epoch_mean_losses
    assert first.initial_loss == second.initial_loss
    assert first.final_loss == second.final_loss


def test_run_stage_aborts_on_divergence(demo_items):
    model = _model()
    model.audio["audio.proj.weight"][:] = np.nan
    stage = StageConfig(2, "clf_and_desc", 8, 1e-4, 1)
    report = run_stage(model, demo_items, stage, TrainerConfig(batch_size=8))
    assert report.aborted
    assert report.steps == 0
    assert not np.isfinite(report.final_loss)


def test_run_stage_aborts_mid_stage(demo_items, monkeypatch):
    from aqakit.training import trainer
    real = trainer._batch_loss_and_grads
    calls = []

    def poisoned(model, batch):
        loss, grads = real(model, batch)
        calls.append(batch)
        return (math.nan if len(calls) == 5 else loss), grads

    monkeypatch.setattr(trainer, "_batch_loss_and_grads", poisoned)
    stage = StageConfig(2, "clf_and_desc", 24, 1e-4, 2)
    report = run_stage(_model(), demo_items, stage, TrainerConfig(batch_size=8))
    # 3 batches per epoch: the 5th is epoch 2's second, after 4 updates
    assert report.aborted
    assert report.steps == 4 and type(report.steps) is int
    assert math.isfinite(report.initial_loss)
    assert math.isnan(report.final_loss)
    assert math.isfinite(report.epoch_mean_losses[0])
    assert math.isnan(report.epoch_mean_losses[1])


def test_aborted_stage_report_line_is_strict_json(demo_items, tmp_path):
    model = _model()
    model.audio["audio.proj.weight"][:] = np.nan
    report_path = tmp_path / "reports.jsonl"
    ckpt_root = tmp_path / "ckpts"
    reports = run_curriculum(model, demo_items,
                             [StageConfig(1, "clf_and_desc", 8, 1e-3, 1)],
                             TrainerConfig(batch_size=8),
                             report_path=report_path,
                             checkpoint_root=ckpt_root)
    assert reports[0].aborted and math.isnan(reports[0].final_loss)

    def no_constants(name):
        raise AssertionError(f"{name} is not JSON")

    [line] = report_path.read_text().splitlines()
    row = json.loads(line, parse_constant=no_constants)
    assert row["aborted"] and row["steps"] == 0
    assert row["initial_loss"] is None and row["final_loss"] is None
    assert row["epoch_mean_losses"] == [None]
    assert not ckpt_root.exists()


def test_write_jsonl_refuses_nan(tmp_path):
    from aqakit.files import write_jsonl
    path = tmp_path / "rows.jsonl"
    with pytest.raises(ValueError):
        write_jsonl(path, [{"loss": 1.0}, {"loss": math.nan}])
    assert not path.exists()


def test_overfit_drives_loss_down(demo_items):
    # memorization recipe: larger output head and LoRA-A init, single-example
    # steps; 80 epochs is the short version of the 200-epoch sanity run
    model = AudioTextLm(DecoderConfig(), seed=0,
                        out_scale=0.35, lora_a_scale=0.5)
    ten = demo_items[:10]
    stage = StageConfig(4, "all", 10, 2e-2, 80)
    cfg = TrainerConfig(batch_size=1, seed=0)
    report = run_stage(model, ten, stage, cfg)
    assert not report.aborted
    post = float(np.mean([model.loss_only(make_example(it, 108))
                          for it in ten]))
    assert post < 0.2
    assert post < 0.05 * report.epoch_mean_losses[0]


def test_run_curriculum_reports_checkpoints_and_frozen_base(
        demo_items, tmp_path):
    model = _model(seed=1)
    base_before = {k: v.copy() for k, v in model.base.items()}
    stages = scale_curriculum(default_curriculum(), 1e-5)  # 12/12/19/56
    report_path = tmp_path / "reports.jsonl"
    ckpt_root = tmp_path / "ckpts"
    reports = run_curriculum(model, demo_items, stages,
                             TrainerConfig(batch_size=8, seed=0),
                             report_path=report_path,
                             checkpoint_root=ckpt_root)
    assert [r.stage for r in reports] == [1, 2, 3, 4]
    assert all(not r.aborted for r in reports)
    # the frozen decoder never moves
    for name, tensor in model.base.items():
        assert np.array_equal(base_before[name], tensor), name
    # one JSON line per stage
    lines = report_path.read_text().splitlines()
    assert len(lines) == 4
    assert [json.loads(l)["stage"] for l in lines] == [1, 2, 3, 4]
    # stage checkpoints reload into a working model
    reloaded = load_checkpoint(ckpt_root / "stage4")
    ex = make_example(demo_items[0], text_cutoff=108)
    assert np.isfinite(reloaded.loss_only(ex))


def test_rerun_into_same_report_keeps_only_the_last_run(demo_items,
                                                       tmp_path):
    stages = [StageConfig(1, "clf_and_desc", 4, 1e-3, 1),
              StageConfig(2, "clf_and_desc", 4, 1e-4, 1)]
    report_path = tmp_path / "reports.jsonl"
    for seed in (0, 1):
        reports = run_curriculum(_model(), demo_items, stages,
                                 TrainerConfig(batch_size=4, seed=seed),
                                 report_path=report_path)
    lines = report_path.read_text().splitlines()
    assert [json.loads(l)["stage"] for l in lines] == [1, 2]
    assert [json.loads(l)["initial_loss"] for l in lines] == \
        [r.initial_loss for r in reports]


def test_run_curriculum_validates_stage_list(demo_items):
    model = _model()
    bad = [StageConfig(2, "all", 4, 1e-4, 1)]
    with pytest.raises(ValueError):
        run_curriculum(model, demo_items, bad, TrainerConfig(batch_size=8))
