"""The dataset row: one (audio, question, answer) tuple plus its task kind,
and the JSON-lines manifest format every tool in the pipeline shares."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..files import jsonl_rows, read_jsonl, write_jsonl

TASK_KINDS = ("classification", "acoustic_features", "caption", "temporal",
              "open_ended")

# stable field order for manifest rows
_FIELDS = ("audio_id", "question", "answer", "task", "closed", "unanswerable")


@dataclass
class QAPair:
    audio_id: str
    question: str
    answer: str
    task: str
    unanswerable: bool = False

    def __post_init__(self) -> None:
        _check_row(qa_to_dict(self))

    @property
    def closed(self) -> bool:
        return self.task != "open_ended"


def _check_row(row: dict) -> None:
    """Raise TypeError or ValueError at a manifest row's first fault."""
    for f in _FIELDS:
        want = bool if f in ("closed", "unanswerable") else str
        if not isinstance(row[f], want):
            raise TypeError(f"{f} must be a {want.__name__}: {row[f]!r}")
    if row["task"] not in TASK_KINDS:
        raise ValueError(f"unknown task kind {row['task']!r}")
    if not row["question"] or not row["answer"]:
        raise ValueError("question and answer must be non-empty")


def qa_to_dict(p: QAPair) -> dict:
    return {f: getattr(p, f) for f in _FIELDS}


def qa_from_dict(d: dict) -> QAPair:
    row = {f: d[f] if f != "unanswerable" else d.get(f, False) for f in _FIELDS}
    _check_row(row)
    pair = QAPair(**{f: v for f, v in row.items() if f != "closed"})
    if row["closed"] != pair.closed:
        raise ValueError("closed flag must mirror task != open_ended")
    return pair


def read_manifest(path: str | Path) -> list[QAPair]:
    return read_jsonl(path, qa_from_dict)


def write_manifest(path: str | Path, pairs: list[QAPair]) -> None:
    write_jsonl(path, (qa_to_dict(p) for p in pairs))


def validate_manifest(path: str | Path) -> list[tuple[int, str]]:
    """Schema check for a manifest file; returns (line number, problem)
    tuples, empty when the file is clean."""
    return [(line_no, problem) for line_no, _, problem
            in jsonl_rows(path, qa_from_dict) if problem is not None]
