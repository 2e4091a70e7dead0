"""Descriptive statistics over a QA manifest."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .qa import QAPair


@dataclass
class DatasetStats:
    total_pairs: int
    task_counts: dict[str, int] = field(default_factory=dict)
    task_percentages: dict[str, float] = field(default_factory=dict)
    closed_percent: float = 0.0
    open_percent: float = 0.0
    unique_question_fraction: float = 0.0
    unique_answer_fraction: float = 0.0
    unanswerable_fraction: float = 0.0


def _unique_fraction(values: list[str]) -> float:
    # distinct count over total, so a value seen twice still counts once
    return len(set(values)) / len(values)


def compute_dataset_stats(pairs: list[QAPair]) -> DatasetStats:
    if not pairs:
        raise ValueError("empty manifest")
    total = len(pairs)
    task_counts = dict(Counter(p.task for p in pairs))
    task_percentages = {t: 100.0 * c / total for t, c in task_counts.items()}
    closed = sum(p.closed for p in pairs)
    return DatasetStats(
        total_pairs=total,
        task_counts=task_counts,
        task_percentages=task_percentages,
        closed_percent=100.0 * closed / total,
        open_percent=100.0 * (total - closed) / total,
        unique_question_fraction=_unique_fraction([p.question for p in pairs]),
        unique_answer_fraction=_unique_fraction([p.answer for p in pairs]),
        unanswerable_fraction=sum(p.unanswerable for p in pairs) / total,
    )

