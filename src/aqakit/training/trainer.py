"""Stage and curriculum execution: deterministic SGD over QA corpora.

One CorpusItem joins a QA pair with its audio patches. Each epoch draws
min(n_samples, pool) items without replacement using a seed derived from
(seed, stage, epoch), so a full run is reproducible bit for bit. Batch
losses are recorded before the update they trigger.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from math import ceil, isfinite
from pathlib import Path

import numpy as np

from ..files import write_jsonl
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
    seed: int = 0
    # the paper's text cutoff in tokens; fixed, not settable
    text_cutoff: int = field(default=108, init=False)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


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
    return TrainingExample(audio=item.audio, text_tokens=ids,
                           loss_mask=mask)


def _batch_loss_and_grads(model, batch: list[TrainingExample]):
    first, *rest = batch
    loss, total = model.loss_and_grads(first)
    losses = [loss]
    for ex in rest:
        loss, grads = model.loss_and_grads(ex)
        losses.append(loss)
        for name, g in grads.items():
            total[name] += g
    n = len(batch)
    return float(np.mean(losses)), {k: g / n for k, g in total.items()}


def _batches(pool: list[CorpusItem], n: int, stage: StageConfig,
             cfg: TrainerConfig):
    """The stage's batches in order, each epoch's examples made as it starts."""
    for epoch in range(stage.epochs):
        rng = np.random.default_rng([cfg.seed, stage.stage, epoch])
        order = rng.permutation(len(pool))[:n]
        examples = [make_example(pool[i], cfg.text_cutoff) for i in order]
        for lo in range(0, n, cfg.batch_size):
            yield examples[lo:lo + cfg.batch_size]


def run_stage(model, corpus: list[CorpusItem], stage: StageConfig,
              cfg: TrainerConfig) -> StageReport:
    """One curriculum stage. Only the stage's trainable set is updated;
    a non-finite batch loss aborts immediately (report.aborted)."""
    pool = filter_tasks(corpus, stage)
    n = min(stage.n_samples, len(pool))
    steps_per_epoch = ceil(n / cfg.batch_size)
    total_steps = steps_per_epoch * stage.epochs
    allowed = _PROJECTION_ONLY if stage.trainable == "projection_only" else None

    start = time.perf_counter()
    losses: list[float] = []
    for batch in _batches(pool, n, stage, cfg):
        loss, grads = _batch_loss_and_grads(model, batch)
        losses.append(loss)
        if not isfinite(loss):
            break
        model.sgd_step(grads, lr_at(len(losses) - 1, total_steps, stage.lr),
                       allowed=allowed)
    aborted = not isfinite(losses[-1])
    return StageReport(
        stage=stage.stage, steps=len(losses) - aborted,
        initial_loss=losses[0], final_loss=losses[-1],
        epoch_mean_losses=[float(np.mean(losses[lo:lo + steps_per_epoch]))
                           for lo in range(0, len(losses), steps_per_epoch)],
        wall_time_s=time.perf_counter() - start, aborted=aborted)


def _report_row(report: StageReport) -> dict:
    """The report as a strict JSON object: a non-finite loss becomes null."""
    def loss(x: float) -> float | None:
        return x if isfinite(x) else None
    return {**asdict(report), "initial_loss": loss(report.initial_loss),
            "final_loss": loss(report.final_loss),
            "epoch_mean_losses": [loss(x) for x in report.epoch_mean_losses]}


def run_curriculum(model, corpus: list[CorpusItem],
                   stages: list[StageConfig], cfg: TrainerConfig,
                   report_path: str | Path | None = None,
                   checkpoint_root: str | Path | None = None,
                   ) -> list[StageReport]:
    """All stages in order on one model. After each stage its checkpoint
    lands under checkpoint_root, then report_path is rewritten with one
    JSON line (non-finite losses as null) per stage finished in this run,
    so a stage whose checkpoint save raises gets no line. An aborted stage
    gets its line and no checkpoint, and ends the run."""
    validate_curriculum(stages)
    if report_path is not None:
        write_jsonl(report_path, [])  # no lines left from an earlier run
    reports = []
    for stage in stages:
        report = run_stage(model, corpus, stage, cfg)
        if not report.aborted and checkpoint_root is not None:
            save_checkpoint(Path(checkpoint_root) / f"stage{stage.stage}",
                            model)
        reports.append(report)
        if report_path is not None:
            write_jsonl(report_path, map(_report_row, reports))
        if report.aborted:
            break
    return reports
