"""Fixtures shared by the test modules."""

import errno
import os
from dataclasses import dataclass
from pathlib import Path

import pytest

from aqakit.synthetic import read_corpus, write_demo_corpus
from aqakit.training import CorpusItem


@dataclass(frozen=True)
class DemoCorpus:
    root: Path      # manifest.jsonl, meta.jsonl and audio/<audio_id>.wav
    items: list[CorpusItem]


@pytest.fixture(scope="session")
def demo_corpus(tmp_path_factory):
    """demo_corpus(clips_per_class) is the seed-0 demo corpus of that size,
    written once per session and read back through read_corpus, as
    `aqakit train` reads it. Tests must not write into its directory."""
    made = {}

    def get(clips_per_class: int = 5) -> DemoCorpus:
        if clips_per_class not in made:
            root = tmp_path_factory.mktemp(f"demo{clips_per_class}")
            write_demo_corpus(root, clips_per_class)
            made[clips_per_class] = DemoCorpus(
                root, read_corpus(root / "manifest.jsonl", root / "audio"))
        return made[clips_per_class]

    return get


@pytest.fixture
def disk_full(monkeypatch):
    """disk_full(after) lets the next `after` file writes through
    files.atomic_write finish; every later one stores half its bytes in the
    temp file and then raises ENOSPC, as a full disk would."""
    real_fdopen = os.fdopen

    class HalfWriter:
        def __init__(self, fh):
            self._fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

        def write(self, data):
            self._fh.write(data[:len(data) // 2])
            self._fh.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def arm(after: int = 0) -> None:
        opened = []

        def fdopen(fd, mode):
            opened.append(fd)
            fh = real_fdopen(fd, mode)
            return fh if len(opened) <= after else HalfWriter(fh)

        monkeypatch.setattr("aqakit.files.os.fdopen", fdopen)

    return arm
