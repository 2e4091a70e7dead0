"""Stage and curriculum execution: deterministic SGD over QA corpora.

One CorpusItem joins a QA pair with its audio patches. Each epoch draws
min(n_samples, pool) items without replacement using a seed derived from
(seed, stage, epoch), so a full run is reproducible bit for bit. Batch
losses are recorded before the update they trigger.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from math import ceil
from pathlib import Path

import numpy as np

from ..frontend import PatchGrid
from ..model.checkpoint import save_checkpoint
from ..model.tokenizer import build_qa_ids
from ..model.decoder import TrainingExample
from .curriculum import StageConfig, filter_tasks, validate_curriculum
from .schedule import lr_at

# stage-1 trainable subset; None means every trainable tensor
_PROJECTION_ONLY = ("audio.proj.weight", "audio.proj.bias")


@dataclass
class TrainerConfig:
    batch_size: int = 256
    text_cutoff: int = 108
    warmup_fraction: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.text_cutoff < 1:
            raise ValueError("text_cutoff must be >= 1")
        if not 0 < self.warmup_fraction < 1:
            raise ValueError("warmup_fraction must be in (0, 1)")


@dataclass
class CorpusItem:
    pair: "QAPair"  # aqakit.forge.QAPair, duck-typed to avoid the import
    audio: PatchGrid

    @property
    def task(self) -> str:
        return self.pair.task

    @property
    def closed(self) -> bool:
        return self.pair.closed


@dataclass
class StageReport:
    stage: int
    steps: int
    initial_loss: float
    final_loss: float
    epoch_mean_losses: list[float] = field(default_factory=list)
    wall_time_s: float = 0.0
    aborted: bool = False


def make_example(item: CorpusItem, text_cutoff: int) -> TrainingExample:
    ids, mask = build_qa_ids(item.pair.question, item.pair.answer,
                             cutoff=text_cutoff)
    return TrainingExample(audio_tokens=item.audio, text_tokens=ids,
                           loss_mask=mask)


def _batch_loss_and_grads(model, batch: list[TrainingExample]):
    losses = []
    total: dict[str, np.ndarray] = {}
    for ex in batch:
        loss, grads = model.loss_and_grads(ex)
        losses.append(loss)
        for name, g in grads.items():
            if name in total:
                total[name] += g
            else:
                total[name] = g.copy()
    n = len(batch)
    return float(np.mean(losses)), {k: g / n for k, g in total.items()}


def run_stage(model, corpus: list[CorpusItem], stage: StageConfig,
              cfg: TrainerConfig) -> StageReport:
    """One curriculum stage. Only the stage's trainable set is updated;
    a non-finite batch loss aborts immediately (report.aborted)."""
    pool = filter_tasks(corpus, stage)
    n = min(stage.n_samples, len(pool))
    steps_per_epoch = ceil(n / cfg.batch_size)
    total_steps = steps_per_epoch * stage.epochs
    allowed = _PROJECTION_ONLY if stage.trainable == "projection_only" else None

    examples = None  # built lazily per epoch from the drawn items
    start = time.perf_counter()
    step = 0
    initial = None
    last = None
    epoch_means: list[float] = []
    for epoch in range(stage.epochs):
        rng = np.random.default_rng([cfg.seed, stage.stage, epoch])
        order = rng.permutation(len(pool))[:n]
        examples = [make_example(pool[i], cfg.text_cutoff) for i in order]
        batch_losses = []
        for lo in range(0, n, cfg.batch_size):
            batch = examples[lo:lo + cfg.batch_size]
            loss, grads = _batch_loss_and_grads(model, batch)
            if initial is None:
                initial = loss
            last = loss
            if not np.isfinite(loss):
                epoch_means.append(float(np.mean(batch_losses + [loss])))
                return StageReport(stage=stage.stage, steps=step,
                                   initial_loss=initial, final_loss=loss,
                                   epoch_mean_losses=epoch_means,
                                   wall_time_s=time.perf_counter() - start,
                                   aborted=True)
            model.sgd_step(grads, lr_at(step, total_steps, cfg, stage.lr),
                           allowed=allowed)
            batch_losses.append(loss)
            step += 1
        epoch_means.append(float(np.mean(batch_losses)))
    return StageReport(stage=stage.stage, steps=step, initial_loss=initial,
                       final_loss=last, epoch_mean_losses=epoch_means,
                       wall_time_s=time.perf_counter() - start)


def run_curriculum(model, corpus: list[CorpusItem],
                   stages: list[StageConfig], cfg: TrainerConfig,
                   report_path: str | Path | None = None,
                   checkpoint_root: str | Path | None = None,
                   ) -> list[StageReport]:
    """All stages in order on one model. Reports stream to report_path as
    JSON lines; checkpoints land under checkpoint_root after each stage.
    Stops early if a stage aborts."""
    validate_curriculum(stages)
    reports = []
    for stage in stages:
        report = run_stage(model, corpus, stage, cfg)
        reports.append(report)
        if report_path is not None:
            with open(report_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(asdict(report)) + "\n")
        if checkpoint_root is not None and not report.aborted:
            save_checkpoint(Path(checkpoint_root) / f"stage{stage.stage}",
                            model)
        if report.aborted:
            break
    return reports
