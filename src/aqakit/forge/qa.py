"""The dataset row: one (audio, question, answer) tuple plus its task kind,
and the JSON-lines manifest format every tool in the pipeline shares."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..files import jsonl_rows, read_jsonl, write_jsonl

TASK_KINDS = ("classification", "acoustic_features", "caption", "temporal",
              "open_ended")
CLOSED_TASKS = ("classification", "acoustic_features", "caption", "temporal")

# stable field order for manifest rows
_FIELDS = ("audio_id", "question", "answer", "task", "closed", "unanswerable")


@dataclass
class QAPair:
    audio_id: str
    question: str
    answer: str
    task: str
    closed: bool
    unanswerable: bool = False

    def __post_init__(self) -> None:
        for f in _FIELDS:
            want = bool if f in ("closed", "unanswerable") else str
            if not isinstance(getattr(self, f), want):
                raise TypeError(f"{f} must be a {want.__name__}: {getattr(self, f)!r}")
        if self.task not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.task!r}")
        if not self.question or not self.answer:
            raise ValueError("question and answer must be non-empty")
        if self.closed != (self.task != "open_ended"):
            raise ValueError("closed flag must mirror task != open_ended")


def qa_to_dict(p: QAPair) -> dict:
    return {f: getattr(p, f) for f in _FIELDS}


def qa_from_dict(d: dict) -> QAPair:
    return QAPair(audio_id=d["audio_id"], question=d["question"],
                  answer=d["answer"], task=d["task"], closed=d["closed"],
                  unanswerable=d.get("unanswerable", False))


def read_manifest(path: str | Path) -> list[QAPair]:
    return read_jsonl(path, qa_from_dict)


def write_manifest(path: str | Path, pairs: list[QAPair]) -> None:
    write_jsonl(path, (qa_to_dict(p) for p in pairs))


def validate_manifest(path: str | Path) -> list[tuple[int, str]]:
    """Schema check for a manifest file; returns (line number, problem)
    tuples, empty when the file is clean."""
    return [(line_no, problem) for line_no, _, problem
            in jsonl_rows(path, qa_from_dict) if problem is not None]
