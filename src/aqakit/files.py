"""Text files on disk: atomic writes and the JSON-lines row format that
carries metas, manifests and predictions between subcommands."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Callable, Iterable


def atomic_write(path: str | Path, text: str) -> None:
    """Temp file in the same directory, then rename: a reader sees the old
    file or the new one, never half of one."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_jsonl(path: str | Path, parse: Callable[[dict], object]) -> list:
    """parse(row) for every JSON-object row; blank lines are skipped and a
    bad row raises ValueError naming path and line."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise TypeError("row is not a JSON object")
                rows.append(parse(row))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{line_no}: bad row: {exc}") from exc
    return rows


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    atomic_write(path, "".join(json.dumps(row, ensure_ascii=False) + "\n"
                               for row in rows))
