"""The four-stage training curriculum: which task kinds are in play, and
the most samples each stage draws per epoch.

Stage 1 warms up only the audio projection on the most objective tasks;
later stages unlock every non-LM parameter and progressively more open
task mixes, so what trains follows from the stage number alone. The
full-scale sample budgets are kept as the documented preset;
scale_curriculum shrinks them for desk-size runs.

n_samples is a cap: run_stage draws min(n_samples, pool) items per epoch
from the rows the stage's task filter admits. On the 200-pair demo corpus
at factor 1e-4, stage 4 sees 200 of its 560 samples and stages 1-2 see 80
of their 120.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

from ..files import read_text

TASK_FILTERS = ("clf_and_desc", "all_closed", "all")

# openness rank; later stages must not move left
_OPENNESS = {name: rank for rank, name in enumerate(TASK_FILTERS)}


@dataclass(frozen=True)
class StageConfig:
    stage: int
    tasks: str
    n_samples: int
    lr: float
    epochs: int

    def __post_init__(self) -> None:
        if self.stage < 1:
            raise ValueError(f"stage must be >= 1, got {self.stage}")
        if self.tasks not in TASK_FILTERS:
            raise ValueError(f"unknown task filter {self.tasks!r}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")

    @property
    def trainable(self) -> str:
        """projection_only in stage 1, all_non_lm in every later stage."""
        return "projection_only" if self.stage == 1 else "all_non_lm"


def default_curriculum() -> list[StageConfig]:
    return [
        StageConfig(1, "clf_and_desc", 1_200_000, 1e-3, 2),
        StageConfig(2, "clf_and_desc", 1_200_000, 1e-4, 2),
        StageConfig(3, "all_closed", 1_900_000, 1e-4, 1),
        StageConfig(4, "all", 5_600_000, 1e-4, 1),
    ]


def scale_curriculum(stages: list[StageConfig],
                     factor: float) -> list[StageConfig]:
    """Shrink sample budgets by factor (floored, at least 1 each); every
    other field is untouched."""
    if not 0 < factor <= 1:
        raise ValueError(f"factor must be in (0, 1], got {factor}")
    return [replace(s, n_samples=max(1, math.floor(s.n_samples * factor)))
            for s in stages]


def validate_curriculum(stages: list[StageConfig]) -> None:
    if not stages:
        raise ValueError("empty curriculum")
    for i, s in enumerate(stages):
        if s.stage != i + 1:
            raise ValueError(
                f"stages must be numbered 1..{len(stages)} in order, "
                f"position {i} holds stage {s.stage}")
    for prev, cur in zip(stages, stages[1:]):
        if _OPENNESS[cur.tasks] < _OPENNESS[prev.tasks]:
            raise ValueError(
                f"task openness decreases from stage {prev.stage} "
                f"({prev.tasks}) to stage {cur.stage} ({cur.tasks})")


def filter_tasks(rows: list, s: StageConfig) -> list:
    """Rows whose task kind the stage trains on. Rows need .task and
    .closed attributes (QAPair or anything wrapping one)."""
    if s.tasks == "clf_and_desc":
        kept = [r for r in rows
                if r.task in ("classification", "acoustic_features")]
    elif s.tasks == "all_closed":
        kept = [r for r in rows if r.closed]
    else:
        kept = list(rows)
    if not kept:
        present = sorted({r.task for r in rows})
        raise ValueError(
            f"stage {s.stage} filter {s.tasks!r} matched nothing "
            f"(manifest has {len(rows)} rows with tasks {present})")
    return kept


# -- curriculum files ---------------------------------------------------------

# [stageN] with N in ASCII digits and no leading zero: each section is
# read back as f"stage{N}"
_SECTION = re.compile(r"^stage(0|[1-9][0-9]*)$")
_STAGE_KEYS = {"tasks", "n_samples", "lr", "epochs"}


def read_curriculum(path: str | Path) -> list[StageConfig]:
    """Stages from an INI file: one [stageN] section per stage, each with
    exactly the keys tasks, n_samples, lr and epochs. Values are taken
    as written (no % interpolation). A file that does not parse or does
    not describe a valid curriculum raises ValueError naming it."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(read_text(path), source=str(path))
    except configparser.Error as exc:
        raise ValueError(f"{path}: {' '.join(str(exc).split())}") from None
    numbered = []
    for section in parser.sections():
        match = _SECTION.match(section)
        if not match:
            raise ValueError(f"{path}: unexpected section [{section}]")
        numbered.append(int(match.group(1)))
    stages = []
    for n in sorted(numbered):
        sec = parser[f"stage{n}"]
        unknown = sorted(set(sec) - _STAGE_KEYS)
        if unknown:
            raise ValueError(f"{path}: [stage{n}]: unknown key {unknown[0]!r}")
        try:
            stages.append(StageConfig(
                stage=n,
                tasks=sec["tasks"],
                n_samples=int(sec["n_samples"]),
                lr=float(sec["lr"]),
                epochs=int(sec["epochs"]),
            ))
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{path}: bad [stage{n}]: {exc}") from exc
    try:
        validate_curriculum(stages)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return stages
