"""Every name a subpackage exports through __all__ exists, and the package
writes files only through aqakit.files."""

import importlib
import re
from pathlib import Path

import pytest

import aqakit


@pytest.mark.parametrize("module", ["aqakit.model", "aqakit.forge",
                                    "aqakit.evaluate", "aqakit.training"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


# a Path write, or an open() call (one level of nested parentheses) given a
# mode that writes, appends, creates or updates, or os.open given such a flag
_WRITES = re.compile(
    r"\.write_(?:bytes|text)\("
    r"|\bopen\((?:[^()]|\([^()]*\))*?[\"'][rbt]*[wax+][rbt+]*[\"']"
    r"|\bopen\((?:[^()]|\([^()]*\))*?\bO_(?:WRONLY|RDWR|CREAT|APPEND|TRUNC)\b")


def test_only_files_py_writes_files():
    package = Path(aqakit.__file__).parent
    found = [f"{path.relative_to(package)}:{text.count(chr(10), 0, m.start()) + 1}"
             for path in sorted(package.rglob("*.py")) if path.name != "files.py"
             for text in [path.read_text(encoding="utf-8")]
             for m in _WRITES.finditer(text)]
    assert not found, f"files written outside aqakit/files.py: {found}"
