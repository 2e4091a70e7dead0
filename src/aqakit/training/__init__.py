"""Curriculum training: stage configs, LR schedule, and the SGD loop."""

from .curriculum import (TASK_FILTERS, TRAINABLE_SETS, StageConfig,
                         default_curriculum, filter_tasks, read_curriculum,
                         scale_curriculum, validate_curriculum,
                         write_curriculum)
from .schedule import lr_at, warmup_steps
from .trainer import (CorpusItem, StageReport, TrainerConfig, make_example,
                      run_curriculum, run_stage)

__all__ = [
    "TASK_FILTERS", "TRAINABLE_SETS", "StageConfig", "default_curriculum",
    "filter_tasks", "read_curriculum", "scale_curriculum",
    "validate_curriculum", "write_curriculum", "lr_at", "warmup_steps",
    "CorpusItem", "StageReport", "TrainerConfig", "make_example",
    "run_curriculum", "run_stage",
]
