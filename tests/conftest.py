"""Fixtures shared by the test modules."""

import errno
import os

import pytest


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
