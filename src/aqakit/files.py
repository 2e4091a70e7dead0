"""Files on disk: the one writer of every file the package makes, text or
binary, each written atomically; and the one reader of every text input
(JSON, JSON lines, one name per line, and the text read_text hands to the
checkpoint and curriculum parsers), so each error names its file."""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import Callable, Iterable


def atomic_write(path: str | Path, data: str | bytes) -> None:
    """Write data, a str as UTF-8, to a temp file in the same directory,
    then rename: a reader sees the old file or the new one, never half of
    one. The parent directory is created if missing, and the file gets the
    mode a plain write gives it (0o666 less the umask)."""
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def naming(*paths):
    """A ValueError raised in the block names the given input files (None
    skipped), unless its message already starts with one of them."""
    try:
        yield
    except ValueError as exc:
        msg = str(exc)
        if any(p and msg.startswith(f"{p}:") for p in paths):
            raise
        named = ", ".join(str(p) for p in paths if p)
        raise ValueError(f"{named}: {msg}") from exc


def string_list(value, what: str) -> list[str]:
    """value, when it is a non-empty list of non-empty strings; otherwise a
    ValueError that starts with what."""
    if not (isinstance(value, list) and value
            and all(isinstance(v, str) and v for v in value)):
        raise ValueError(f"{what} must be a non-empty list of non-empty "
                         f"strings, got {value!r}")
    return value


def read_text(path: str | Path) -> str:
    """The text of the file at path; bytes that are not UTF-8 raise
    ValueError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def read_json(path: str | Path):
    """The JSON document in the file at path; bad JSON or bytes that are
    not UTF-8 raise ValueError naming the file."""
    text = read_text(path)
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def read_names(path: str | Path) -> list[str]:
    """The stripped non-blank lines of the file at path, one name each."""
    return [ln.strip() for ln in read_text(path).splitlines() if ln.strip()]


def jsonl_rows(path: str | Path, parse: Callable[[dict], object]):
    """(line number, parse(row), None) per good row of the JSON-lines file
    at path and (line number, None, problem) per bad one; blank lines are
    skipped. A KeyError, TypeError or ValueError from parse is a problem."""
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line.decode("utf-8"))
                if not isinstance(row, dict):
                    raise TypeError("row is not a JSON object")
                item, problem = parse(row), None
            except KeyError as exc:
                item, problem = None, f"missing field {exc}"
            except (TypeError, ValueError) as exc:
                item, problem = None, str(exc)
            yield line_no, item, problem


def read_jsonl(path: str | Path, parse: Callable[[dict], object]) -> list:
    """parse(row) for every row; the first bad row raises ValueError naming
    path and line."""
    rows = []
    for line_no, item, problem in jsonl_rows(path, parse):
        if problem is not None:
            raise ValueError(f"{path}:{line_no}: bad row: {problem}")
        rows.append(item)
    return rows


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    """One JSON object per line; a NaN or infinity raises ValueError."""
    atomic_write(path, "".join(json.dumps(row, ensure_ascii=False,
                                          allow_nan=False) + "\n"
                               for row in rows))
